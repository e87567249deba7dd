"""The three benchmark workloads: seeded inputs, one operation, its check.

Every workload draws a batch of operations from a seeded generator.  A
batch has a fixed composition (stratified draws, fixed shares of each kind
of input), so batch wall times are comparable within and across runs.  The
program sees only the generated inputs, through its public API: the CLI
entry point for ``orbits`` and ``diagram``, the library functions for
``levels``.  Calls go through module attributes so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from rubberroll import cli, dynamics, geometry, integrate, reconstruct
from rubberroll.model import Params

HERE = Path(__file__).resolve().parent


def _body_flags(p: Params) -> list[str]:
    return [f"--alpha={p.alpha!r}", f"--beta={p.beta!r}",
            f"--nu={p.nu!r}", f"--eta={p.eta!r}"]


def _cells(rng: np.random.Generator, n: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """n points in [0, 1)^2, one in each cell (i, (i + index) mod n) of an
    n x n grid: every batch covers each row and column stratum once, and n
    consecutive batches cover every cell once."""
    i = np.arange(n)
    return (i + rng.random(n)) / n, ((i + index) % n + rng.random(n)) / n


def _run_cli(argv: list[str]) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stderr": err.getvalue()}


def _cli_problem(out: dict) -> str | None:
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}"
    return None


class Orbits:
    """Long-horizon ``simulate`` runs, reduced and full style, written as CSV."""

    name = "orbits"
    reference: list[dict] = []
    ref_seed = None
    min_ops = 20
    trace_batches = 1
    body = Params(0.5, 3.0, 0.5, 0.5)
    tmax = 200.0
    rows = 2001
    n_reduced, n_full = 5, 1
    e_drift_max = 1e-6
    f1_drift_max = 1e-7
    header = ["t", "theta", "p_theta", "psi", "phi", "x_c", "y_c", "z_c",
              "x_p", "y_p", "E_drift", "F1_drift"]

    def batch(self, rng: np.random.Generator, index: int, tmp: Path) -> list[dict]:
        # an orbit's cost is set by |kappa| and its energy h above the well
        # bottom (theta0 only sets the phase): stratify both per style, so
        # that every batch mixes short and long orbits alike.  Below 0.9 in
        # |kappa| the saddle lies more than 0.8 above the well bottom, so
        # h <= 0.6 keeps every orbit in one well, away from the separatrix.
        ur, vr = _cells(rng, self.n_reduced, index)
        # the full-style orbit costs as much as four reduced ones: draw it
        # from the middle of both ranges, so that it costs alike in every batch
        uf = 0.25 + 0.5 * rng.random(self.n_full)
        vf = 0.25 + 0.5 * rng.random(self.n_full)
        kappas = 0.3 + 0.6 * np.concatenate([ur, uf])
        heights = 0.1 + 0.5 * np.concatenate([vr, vf])
        p = self.body
        common = ["simulate", *_body_flags(p), f"--tmax={self.tmax!r}",
                  f"--samples={self.rows}", f"--out={tmp / 'orbit.csv'}"]
        ops = []
        for i, (k, h) in enumerate(zip(kappas, heights)):
            k = float(rng.choice([-1.0, 1.0]) * k)
            crit = dynamics.critical_thetas(k, p)
            v_min, th_min = min((dynamics.effective_potential(t, k, p), t) for t in crit)
            eps = v_min + float(h)
            lo, hi = next(iv for iv in dynamics.component_intervals(k, eps, p)
                          if iv[0] <= th_min <= iv[1])
            th = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            if i < self.n_reduced:
                argv = common + [f"--kappa={k!r}", f"--theta0={th!r}", f"--energy={eps!r}"]
                kind = "reduced"
            else:
                # the same orbit as a state on the leaf |gamma| = 1, omega.gamma = 0
                gap = eps - dynamics.effective_potential(th, k, p)
                pt = math.sqrt(2.0 * gap / geometry.profile(th, p).B)
                s = dynamics.lift(dynamics.ReducedState(th, pt), k,
                                  float(rng.uniform(0.0, 2.0 * math.pi)), p)
                argv = common + ["--omega=" + ",".join(repr(float(v)) for v in s.omega),
                                 "--gamma=" + ",".join(repr(float(v)) for v in s.gamma)]
                kind = "full"
            ops.append({"kind": kind, "argv": argv, "out": tmp / "orbit.csv",
                        "sim_t": self.tmax})
        return ops

    def execute(self, op: dict):
        return _run_cli(op["argv"])

    def check(self, op: dict, out: dict, ref: dict | None) -> str | None:
        problem = _cli_problem(out)
        if problem:
            return problem
        with open(op["out"], newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        if not table or table[0] != self.header:
            return "CSV header differs"
        body = table[1:]
        if len(body) != self.rows:
            return f"CSV has {len(body)} rows, expected {self.rows}"
        try:
            vals = np.array(body, dtype=float)
        except ValueError as ex:
            return f"CSV value does not parse: {ex}"
        if not np.all(np.isfinite(vals)):
            return "CSV holds a non-finite value"
        if vals[-1, 0] != self.tmax:
            return f"CSV ends at t={vals[-1, 0]}, expected {self.tmax}"
        e_drift = float(np.max(np.abs(vals[:, 10])))
        f1_drift = float(np.max(np.abs(vals[:, 11])))
        if not e_drift <= self.e_drift_max:
            return f"max |E_drift| = {e_drift:.3e} > {self.e_drift_max}"
        if not f1_drift <= self.f1_drift_max:
            return f"max |F1_drift| = {f1_drift:.3e} > {self.f1_drift_max}"
        return None


class Levels:
    """Per-level observables: rotation number, section period and class."""

    name = "levels"
    min_ops = 100
    trace_batches = 2
    bodies = {"main": Params(0.5, 3.0, 0.5, 0.5),
              "balanced": Params(0.0, 1.5, 1.0, 1.0)}
    # |kappa| ranges in which both bodies have two wells and a saddle with
    # the wells at least 0.05 below the saddle level, so branch 1 exists
    kappa_ranges = {"main": (0.15, 0.85), "balanced": (0.15, 0.6)}
    # per body and batch: 4 generic, 2 near-separatrix, 2 branch-1 and
    # 2 kappa = 0 levels (one pole-crossing, one circulating)
    kinds = ("generic",) * 4 + ("near_separatrix",) * 2 + ("branch1",) * 2 + (
        "kappa0_crossing", "kappa0_circulating")
    # 3e-4 to 1e-3 from the saddle level; see README.md, "Checks", for why
    # not closer
    near_sep_log10 = (math.log10(3e-4), -3.0)
    period_rtol = 1e-7
    ref_path = HERE / "levels_reference.json"
    ref_seed = 0

    def __init__(self, reference: list[dict] | None = None) -> None:
        if reference is None:
            with open(self.ref_path, encoding="utf-8") as fh:
                ref = json.load(fh)
            reference = ref["levels"] if ref["seed"] == self.ref_seed else []
        self.reference = reference

    @staticmethod
    def shares(ops: list[dict]) -> dict[str, float]:
        n = len(ops)
        return {
            "near_separatrix": sum(o["kind"] == "near_separatrix" for o in ops) / n,
            "branch1": sum(o["branch"] == 1 for o in ops) / n,
            "kappa0": sum(o["kappa"] == 0.0 for o in ops) / n,
        }

    def _level(self, kind: str, body: str, rng: np.random.Generator) -> dict:
        p = self.bodies[body]
        branch = 0
        if kind.startswith("kappa0"):
            kappa = 0.0
            poles = sorted([dynamics.effective_potential(0.0, 0.0, p),
                            dynamics.effective_potential(math.pi, 0.0, p)])
            (th_s,) = dynamics.critical_thetas(0.0, p)
            v_s = dynamics.effective_potential(th_s, 0.0, p)
            if kind == "kappa0_circulating":
                eps = rng.uniform(v_s + 0.02, v_s + 1.0)
            else:
                eps = poles[1]
                while abs(eps - poles[1]) < 0.02:
                    eps = rng.uniform(poles[0] + 0.02, v_s - 0.02)
                # both poles are reachable components above the higher pole
                branch = int(rng.integers(2)) if eps > poles[1] else 0
        else:
            lo, hi = self.kappa_ranges[body]
            kappa = float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))
            crit = dynamics.critical_thetas(kappa, p)
            levels = [dynamics.effective_potential(t, kappa, p) for t in crit]
            wells, v_s = (levels[0], levels[2]), levels[1]
            if kind == "near_separatrix":
                eps = v_s + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(*self.near_sep_log10)
            elif kind == "branch1":
                eps = rng.uniform(max(wells) + 0.01, v_s - 0.01)
                branch = 1
            else:
                eps = v_s
                while min(abs(eps - v) for v in levels) < 0.01:
                    eps = rng.uniform(min(wells) + 0.02, v_s + 0.6)
        # 12 significant digits: the same seed gives the same inputs even if
        # the program's potential moves in the last bits
        return {"kind": kind, "body": body, "kappa": float(f"{kappa:.12g}"),
                "eps": float(f"{eps:.12g}"), "branch": branch}

    def batch(self, rng: np.random.Generator, index: int, tmp: Path) -> list[dict]:
        ops = [self._level(kind, body, rng)
               for body in self.bodies for kind in self.kinds]
        return [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, op: dict):
        p = self.bodies[op["body"]]
        args = (op["kappa"], op["eps"], p, op["branch"])
        rn = reconstruct.rotation_number(*args)
        sp = integrate.section_period(*args)
        tc = reconstruct.classify(*args)
        return rn, sp, tc

    def check(self, op: dict, out, ref: dict | None) -> str | None:
        rn, sp, tc = out
        if tc.N != rn.N:
            return f"classify N {tc.N!r} != rotation_number N {rn.N!r}"
        T = sp.T_theta
        if T is None or not math.isfinite(T) or T <= 0.0:
            return f"section period {T!r} is not a positive number"
        if op["kappa"] == 0.0:
            if rn.N != 0.0:
                return f"N = {rn.N!r} at kappa = 0"
            circ = op["kind"] == "kappa0_circulating"
            if sp.circulating != circ or sp.pole_crossing == circ:
                return (f"section period flags circulating={sp.circulating} "
                        f"pole_crossing={sp.pole_crossing} for a {op['kind']} level")
        else:
            if rn.period is None or abs(rn.period - T) > self.period_rtol * T:
                return f"rotation_number period {rn.period!r} != section period {T!r}"
            T = rn.period
        if ref is None:
            return None
        for key in ("kappa", "eps"):
            if abs(op[key] - ref[key]) > 1e-9 * max(1.0, abs(ref[key])):
                return f"input {key} {op[key]!r} differs from the reference {ref[key]!r}"
        if op["body"] != ref["body"] or op["branch"] != ref["branch"]:
            return "input body or branch differs from the reference"
        tol = max(10.0 * rn.err, 1e-8)
        if abs(rn.N - ref["N"]) > tol:
            return f"N {rn.N!r} differs from the reference {ref['N']!r} by more than {tol:.1e}"
        if abs(T - ref["T"]) > tol * ref["T"]:
            return f"T {T!r} differs from the reference {ref['T']!r} by more than {tol:.1e} relative"
        return None


class Diagram:
    """``bifurcation`` JSON for one body in each diagram region a-e."""

    name = "diagram"
    reference: list[dict] = []
    ref_seed = None
    min_ops = 20
    trace_batches = 1
    # beta^2 ranges per region, kept 0.05 inside the region boundaries
    # beta^2 = 1 - alpha, 1 + alpha (alpha > 0) and beta^2 = 1 (alpha = 0)
    regions = "abcde"

    @staticmethod
    def body_in(region: str, rng: np.random.Generator) -> tuple[float, float]:
        if region in "de":
            alpha = 0.0
            b2 = rng.uniform(0.1, 0.95) if region == "d" else rng.uniform(1.05, 9.0)
        else:
            alpha = rng.uniform(0.3, 0.8) if region == "a" else rng.uniform(0.2, 0.8)
            lo, hi = {"a": (0.1, 1.0 - alpha - 0.05),
                      "b": (1.0 - alpha + 0.05, 1.0 + alpha - 0.05),
                      "c": (1.0 + alpha + 0.05, 9.0)}[region]
            b2 = rng.uniform(lo, hi)
        return float(f"{alpha:.12g}"), float(f"{math.sqrt(b2):.12g}")

    def batch(self, rng: np.random.Generator, index: int, tmp: Path) -> list[dict]:
        ops = []
        for region in self.regions:
            alpha, beta = self.body_in(region, rng)
            ops.append({"kind": region, "out": tmp / "diagram.json",
                        "argv": ["bifurcation", f"--alpha={alpha!r}", f"--beta={beta!r}",
                                 f"--out={tmp / 'diagram.json'}"]})
        return ops

    def execute(self, op: dict):
        return _run_cli(op["argv"])

    def check(self, op: dict, out: dict, ref: dict | None) -> str | None:
        problem = _cli_problem(out)
        if problem:
            return problem
        try:
            with open(op["out"], encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, ValueError) as ex:
            return f"diagram JSON does not load: {ex}"
        if d.get("diagram_type") != op["kind"]:
            return f"diagram_type {d.get('diagram_type')!r}, expected {op['kind']!r}"
        samples = (d.get("rpm_boundary") or {}).get("samples") or []
        eps = [s.get("eps") for s in samples]
        if not eps or not all(isinstance(e, float) and math.isfinite(e) for e in eps):
            return "rpm_boundary is empty or holds a non-finite eps"
        return None


WORKLOADS = {w.name: w for w in (Orbits, Levels, Diagram)}
