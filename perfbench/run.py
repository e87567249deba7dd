"""Benchmark of the rubberroll package: seeded workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: one process runs one
operation at a time, in batches of fixed composition, until ``--seconds`` of
calibrated operation time have passed and at least the workload's minimum
number of operations has run.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs a fixed set of operations, each untraced, traced (the
package's public functions wrapped) and untraced again, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Calibration time the measured times are scaled to (about the kernel's
# time on a 2-core Xeon VM), and the operation time between calibrations.
# See README.md, "Machine noise and calibration".
CAL_REF_S = 0.02
CAL_EVERY_S = 0.5
VERIFY_REPEATS = 3
IMPORT_CLI = "import rubberroll.cli"
VERIFY_QUICK = ("import sys; from rubberroll.cli import main; "
                "sys.exit(main(['verify', '--quick']))")


class SourceMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def use_checkout_source() -> None:
    """Import rubberroll from this checkout's src/, never from elsewhere."""
    if not (SRC / "rubberroll" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC / 'rubberroll'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rubberroll
    if Path(rubberroll.__file__).resolve().parent != SRC / "rubberroll":
        raise SourceMissing(f"rubberroll imported from {rubberroll.__file__}, not {SRC}")


def _fresh_python(code: str) -> float:
    """Wall seconds of a fresh interpreter running code; raises on failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return dt


def median_fresh_python(code: str, repeats: int) -> float:
    _fresh_python(code)     # writes the bytecode cache and warms the file cache
    return statistics.median(_fresh_python(code) for _ in range(repeats))


def environment(args) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            rev = proc.stdout.decode().strip() or rev
        except OSError:     # no git program
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "rubberroll").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def _calibration_kernel(n: int = 25_000) -> float:
    # scalar float math in the interpreter plus small array operations, the
    # mix of the package's hot loops, written without using the package
    a = np.linspace(0.0, 1.0, 6)
    s = 0.0
    for i in range(n):
        x = i * 1e-4
        s += math.sqrt(1.0 + x * x) * math.sin(x) - math.cos(x) / (1.0 + x)
        if i % 8 == 0:
            s += float(np.dot(a, a * x))
    return s


def calibrate() -> float:
    """Mean of three timings of the calibration kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(3):
        _calibration_kernel()
    return (time.perf_counter() - t0) / 3


class Pass:
    """Outcome of running a list of operations: latencies and failures.

    The operations are timed in segments of about CAL_EVERY_S, each closed
    by a calibration, and every batch ends a segment.  ``latencies`` and
    ``batch_walls`` are scaled by CAL_REF_S over the mean of the
    calibration times on either side of the segment; ``raw_latencies`` and
    ``raw_batch_walls`` are as timed.
    """

    def __init__(self) -> None:
        self.raw_latencies: list[float] = []
        self.latencies: list[float] = []
        self.batch_walls: list[float] = []
        self.raw_batch_walls: list[float] = []
        self.cals = [calibrate()]
        self.failures: list[str] = []
        self.sim_t = 0.0
        self.bytes_written = 0
        self.ops: list[dict] = []

    def _close_segment(self, raw: list[float]) -> list[float]:
        self.cals.append(calibrate())
        scale = CAL_REF_S / statistics.mean(self.cals[-2:])
        self.raw_latencies += raw
        scaled = [dt * scale for dt in raw]
        self.latencies += scaled
        return scaled

    def run_op(self, wl, op: dict, ref: dict | None) -> float:
        """Run and check one operation; return its raw time in seconds."""
        t0 = time.perf_counter()
        try:
            out = wl.execute(op)
            problem = None
        except Exception as ex:   # a failed operation is counted, not fatal
            out, problem = None, f"raised {type(ex).__name__}: {ex}"
        dt = time.perf_counter() - t0
        if problem is None:
            problem = wl.check(op, out, ref)
        if problem is not None:
            self.failures.append(f"op {len(self.ops)} {op['kind']}: {problem}")
        if "out" in op and os.path.exists(op["out"]):
            self.bytes_written += os.path.getsize(op["out"])
        self.sim_t += op.get("sim_t", 0.0)
        self.ops.append(op)
        return dt

    def run_batch(self, wl, ops: list[dict], refs: list[dict]) -> None:
        segment: list[float] = []
        scaled: list[float] = []
        for k, op in enumerate(ops):
            i = len(self.ops)
            segment.append(self.run_op(wl, op, refs[i] if i < len(refs) else None))
            if sum(segment) >= CAL_EVERY_S or k == len(ops) - 1:
                scaled += self._close_segment(segment)
                segment = []
        self.batch_walls.append(sum(scaled))
        self.raw_batch_walls.append(sum(self.raw_latencies[-len(ops):]))

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def raw_busy(self) -> float:
        return sum(self.raw_latencies)


def streams(seed: int):
    """Generators of the measured operations and of the warm-up operation."""
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])


def _warm_up(wl, warm_rng, tmp: Path) -> None:
    # first use loads lazy imports and fills the interpreter's caches
    op = wl.batch(warm_rng, 0, tmp)[0]
    wl.execute(op)


def measure_end_to_end(wl, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict, Pass]:
    setup_s = median_fresh_python(IMPORT_CLI, SETUP_REPEATS)
    rng, warm_rng = streams(seed)
    refs = wl.reference if seed == wl.ref_seed else []
    _warm_up(wl, warm_rng, tmp)
    run = Pass()
    # the calibrated time sets the amount of work, so that a slow spell of
    # the machine does not shrink the run; raw time caps the run's length
    while (run.busy < seconds and run.raw_busy < 1.25 * seconds) or len(run.latencies) < wl.min_ops:
        run.run_batch(wl, wl.batch(rng, len(run.batch_walls), tmp), refs)
    n = len(run.latencies)
    lat_ms = sorted(1e3 * x for x in run.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall_s": (statistics.median(run.batch_walls), "s"),
        "ops_per_s": (n / run.busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
    }
    extra = {
        "raw_wall_s": (statistics.median(run.raw_batch_walls), "s"),
        "raw_ops_per_s": (n / run.raw_busy, "1/s"),
        "raw_op_p50_ms": (1e3 * statistics.median(run.raw_latencies), "ms"),
        "calibration_s": (statistics.median(run.cals), "s"),
        "fail_frac": (len(run.failures) / n, "ratio"),
        "samples": (n, "count"),
        "batches": (len(run.batch_walls), "count"),
    }
    if wl.name == "orbits":
        extra["sim_t_per_s"] = (run.sim_t / run.busy, "1/s")
    if n >= 100:
        extra["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms")
    return metrics, extra, run


def measure_layers(wl, seed: int, tmp: Path,
                   spans_path: Path) -> tuple[dict, dict, list[str], list[Pass]]:
    from tracing import Tracer
    rng, warm_rng = streams(seed)
    refs = wl.reference if seed == wl.ref_seed else []
    batches = [wl.batch(rng, i, tmp) for i in range(wl.trace_batches)]
    _warm_up(wl, warm_rng, tmp)
    tracer = Tracer()
    plain, traced = Pass(), Pass()
    ratios = []
    for op in (op for ops in batches for op in ops):
        i = len(traced.ops)
        ref = refs[i] if i < len(refs) else None
        # untraced before and after the traced run of the same operation, so
        # that drift in the machine's speed does not read as tracing overhead
        before = plain.run_op(wl, op, ref)
        tracer.op = i
        with tracer.installed():
            t = traced.run_op(wl, op, ref)
        traced.raw_latencies.append(t)
        after = plain.run_op(wl, op, ref)
        plain.raw_latencies += [before, after]
        ratios.append(2.0 * t / (before + after))
    tracer.write(spans_path)
    verify_s = median_fresh_python(VERIFY_QUICK, VERIFY_REPEATS)

    n = len(traced.ops)
    self_s = tracer.self_times()
    calls = tracer.calls
    metrics: dict[str, tuple[float, str]] = {}
    for name in ("geometry.profile", "dynamics.effective_potential", "dynamics.g0",
                 "dynamics.component_intervals", "dynamics.critical_thetas",
                 "integrate.integrate_raw", "integrate.section_period",
                 "reconstruct.rotation_number", "bifurcation.rpm_floor"):
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in ("dynamics.component_intervals", "dynamics.critical_thetas",
                 "integrate.integrate_raw", "integrate.section_period",
                 "reconstruct.rotation_number", "reconstruct.classify",
                 "reconstruct.reconstruct_trajectory", "reconstruct.reconstruct_from_full",
                 "bifurcation.diagram", "bifurcation.rpm_floor",
                 "bifurcation.sigma_theta_curve", "bifurcation.cusp", "cli.main"):
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics.update({
        "integrate.integrate_raw.steps": (tracer.steps, "count"),
        "integrate.integrate_raw.rhs_evals": (tracer.rhs_evals, "count"),
        "integrate.integrate_raw.events_hit": (tracer.events_hit, "count"),
        "integrate.rhs_per_step": (tracer.rhs_evals / max(tracer.steps, 1), "ratio"),
        "integrate.max_renorm": (tracer.max_renorm, "1"),
        "reconstruct.rotation_number.failed": (tracer.failed["reconstruct.rotation_number"], "count"),
        "reconstruct.rotation_number.calls_per_op": (calls["reconstruct.rotation_number"] / n, "ratio"),
        "cli.bytes_written": (traced.bytes_written, "count"),
        "cli.verify_quick_s": (verify_s, "s"),
        "trace_overhead": (statistics.median(ratios) - 1.0, "ratio"),
    })
    for missing in tracer.missing:
        # a function a later change removed: its metrics are reported missing
        for key in [k for k in metrics if k.startswith(missing + ".")]:
            del metrics[key]
    extra = {
        "untraced_busy_s": (plain.raw_busy / 2.0, "s"),
        "traced_busy_s": (traced.raw_busy, "s"),
        "samples": (n, "count"),
        "verify_quick_sub_second": (int(verify_s < 1.0), "bool"),
    }
    return metrics, extra, tracer.missing, [plain, traced]


def _fmt(value) -> str:
    return repr(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("orbits", "levels", "diagram"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        use_checkout_source()
    except SourceMissing as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            metrics, extra, missing, passes = measure_layers(
                wl, args.seed, tmp, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics, extra, run = measure_end_to_end(wl, args.seed, args.seconds, tmp)
            missing, passes = [], [run]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args)
    if args.workload == "levels":
        env["shares"] = wl.shares([op for p in passes for op in p.ops])
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.ops) for p in passes)

    print(f"perfbench {tag}")
    print("env " + json.dumps(env, sort_keys=True))
    n = int(extra["samples"][0])
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  (n={n})" if name.startswith("op_p") else ""
        print(f"{name:<45} {_fmt(value):>14} {unit}{note}")
    for name in missing:
        print(f"{name:<45} {'missing':>14}")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "extra": {k: {"value": v, "unit": u}
                                                    for k, (v, u) in extra.items()},
                   "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
