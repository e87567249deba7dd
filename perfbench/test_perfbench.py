"""Tests of the benchmark itself, on tiny runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()
import workloads  # noqa: E402  (needs the checkout's src on sys.path)
from tracing import Tracer  # noqa: E402

import rubberroll.integrate  # noqa: E402
import rubberroll.reconstruct  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few short operations per run."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "VERIFY_REPEATS", 1)
    monkeypatch.setattr(workloads.Orbits, "tmax", 10.0)
    monkeypatch.setattr(workloads.Orbits, "rows", 101)
    monkeypatch.setattr(workloads.Orbits, "n_reduced", 1)
    monkeypatch.setattr(workloads.Orbits, "n_full", 1)
    monkeypatch.setattr(workloads.Levels, "kinds", (
        "generic", "near_separatrix", "branch1", "kappa0_crossing", "kappa0_circulating"))
    monkeypatch.setattr(workloads.Levels, "trace_batches", 1)
    monkeypatch.setattr(workloads.Diagram, "regions", "ad")
    for wl in workloads.WORKLOADS.values():
        monkeypatch.setattr(wl, "min_ops", 1)


def _run(capsys, workload: str, trace: int, seed: int = 1):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(out[-1]), out[:-1]


@pytest.mark.parametrize("workload", ["orbits", "levels", "diagram"])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, workload):
    result, report = _run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    printed = {line.split()[0]: line.split()[2] for line in report[2:]}
    for name, unit in spec.items():
        assert printed[name] == unit
    assert printed["fail_frac"] == "ratio"
    if workload == "orbits":
        assert printed["sim_t_per_s"] == "1/s"
    env = json.loads(report[1][len("env "):])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_rev", "seed"):
        assert key in env
    if workload == "levels":
        assert set(env["shares"]) == {"near_separatrix", "branch1", "kappa0"}


def _corrupt_drift(path: Path) -> None:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    for row in table[1:]:
        row[10] = "1e-3"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


def test_corrupted_drift_column_raises_fail_frac(tiny, capsys, monkeypatch):
    execute = workloads.Orbits.execute

    def corrupting(self, op):
        out = execute(self, op)
        _corrupt_drift(op["out"])
        return out

    monkeypatch.setattr(workloads.Orbits, "execute", corrupting)
    result, report = _run(capsys, "orbits", trace=0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    fail_frac = next(line for line in report if line.startswith("fail_frac"))
    assert float(fail_frac.split()[1]) > 0.0


def test_wrong_period_fails_levels(tiny, capsys, monkeypatch):
    section_period = rubberroll.integrate.section_period

    def off(*args, **kwargs):
        sp = section_period(*args, **kwargs)
        return dataclasses.replace(sp, T_theta=sp.T_theta * (1.0 + 1e-6))

    monkeypatch.setattr(rubberroll.integrate, "section_period", off)
    result, _ = _run(capsys, "levels", trace=0)
    assert result["failed"] > 0


def test_wrong_region_fails_diagram(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads.Diagram, "regions", "a")
    body_in = workloads.Diagram.body_in
    # a region-c body reported under the letter a
    monkeypatch.setattr(workloads.Diagram, "body_in",
                        staticmethod(lambda region, rng: body_in("c", rng)))
    result, _ = _run(capsys, "diagram", trace=0)
    assert result["failed"] == result["attempted"] >= 1


def test_reference_inputs_match_the_generator():
    wl = workloads.Levels()
    rng, _ = run.streams(wl.ref_seed)
    ops = [op for i in range(2) for op in wl.batch(rng, i, Path("."))]
    assert len(wl.reference) == len(ops)
    for op, ref in zip(ops, wl.reference):
        assert {k: ref[k] for k in op} == op


@pytest.mark.xfail(strict=True, reason="known defect: near this separatrix level "
                   "section_period is 1.1e-7 off at default tolerances, while "
                   "rotation_number is within 2e-12 of the tight value; the levels "
                   "workload keeps 3e-4 from saddle levels (README.md, Checks)")
def test_section_period_matches_rotation_number_near_a_separatrix():
    from rubberroll.model import Params
    args = (-0.281252334049, 3.08761657623, Params(0.5, 3.0, 0.5, 0.5))
    rn = rubberroll.reconstruct.rotation_number(*args)
    sp = rubberroll.integrate.section_period(*args)
    assert abs(rn.period - sp.T_theta) <= workloads.Levels.period_rtol * sp.T_theta


def test_traced_counters_repeat_and_cover_the_spec(tiny, capsys):
    first, _ = _run(capsys, "levels", trace=1, seed=5)
    second, _ = _run(capsys, "levels", trace=1, seed=5)
    # each operation runs untraced, traced and untraced again
    assert first["correct"] and first["attempted"] == 3 * 10
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["reconstruct.rotation_number.calls"] > 0
    # the wrappers are gone after the traced pass
    assert rubberroll.reconstruct.rotation_number.__module__ == "rubberroll.reconstruct"
    assert not hasattr(rubberroll.reconstruct.rotation_number, "__wrapped__")


def test_tracer_spans_nest_and_missing_names_do_not_raise(monkeypatch):
    from rubberroll.model import Params
    monkeypatch.delattr(rubberroll.reconstruct, "reconstruct_from_full")
    tracer = Tracer()
    with tracer.installed():
        rubberroll.reconstruct.rotation_number(0.5, 3.0, Params(0.5, 3.0, 0.5, 0.5))
    assert tracer.missing == ["reconstruct.reconstruct_from_full"]
    assert tracer.calls["reconstruct.rotation_number"] == 1
    assert tracer.calls["integrate.integrate_raw"] == 1 and tracer.steps > 0
    names = [s[0] for s in tracer.spans]
    root = names.index("reconstruct.rotation_number")
    assert all(s[3] >= root for s in tracer.spans[root + 1:])
    total = tracer.spans[root][2] - tracer.spans[root][1]
    assert 0.0 < tracer.self_times()["reconstruct.rotation_number"] < total


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbits",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
