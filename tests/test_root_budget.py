"""The level engine's work per cold level: deterministic counters.

Every observable of a level starts from two kinds of roots, the critical
angles of its kappa slice (G0 = 0) and its turning points (V = eps).  The
level engine polishes both by Newton on the exact slope, and brentq only
splits a close pair of critical angles.  This counts every function
evaluation those solves make, per level, with the caches emptied before
each level, over seeded levels of the two benchmark bodies.  It counts too
the passes of the quadrature ladder on the same levels: the array passes of
``_half_nodes``, each on the nodes of one rung or of a few small ones, and
the nodes they evaluate.  Run as a script it prints the figures.
"""

import math

import numpy as np

import rubberroll.dynamics
import rubberroll.integrate
from rubberroll.dynamics import critical_thetas, effective_potential
from rubberroll.integrate import section_period
from rubberroll.model import Params
from rubberroll.reconstruct import classify, rotation_number

from conftest import clear_caches

BODIES = {"main": Params(0.5, 3.0, 0.5, 0.5), "balanced": Params(0.0, 1.5, 1.0, 1.0)}
# |kappa| ranges with two wells and a saddle at least 0.05 above both
KAPPA_RANGES = {"main": (0.15, 0.85), "balanced": (0.15, 0.6)}
KINDS = ("generic",) * 4 + ("near_separatrix",) * 2 + ("branch1",) * 2 + (
    "kappa0_crossing", "kappa0_circulating")
SEED = 26
ROUNDS = 4
# root evaluations per cold level on these levels: 46.1 with brentq and a
# separate Newton step on each turning point (44.3 + 1.8), 18.6 with the
# Newton polish; the ceiling is under half of the first
CEILING = 20.0
SOLVERS = ("newton_bracketed", "brentq")
# quadrature passes per cold level on these levels: 3.86 at one rung a pass
# (637 nodes), 2.10 with the rungs of 16, 32 and 64 nodes in one (665
# nodes); the ceiling is under two thirds of the first
PASS_CEILING = 2.5


def _level(kind, body, rng):
    """(kappa, eps, branch) of one level of the kind, drawn as the
    benchmark's levels workload draws them."""
    p = BODIES[body]
    if kind.startswith("kappa0"):
        poles = sorted([effective_potential(0.0, 0.0, p), effective_potential(math.pi, 0.0, p)])
        (th_s,) = critical_thetas(0.0, p)
        v_s = effective_potential(th_s, 0.0, p)
        if kind == "kappa0_circulating":
            return 0.0, float(rng.uniform(v_s + 0.02, v_s + 1.0)), 0
        eps = poles[1]
        while abs(eps - poles[1]) < 0.02:
            eps = float(rng.uniform(poles[0] + 0.02, v_s - 0.02))
        # both poles are reachable components above the higher pole
        return 0.0, eps, int(rng.integers(2)) if eps > poles[1] else 0
    kappa = float(rng.choice([-1.0, 1.0]) * rng.uniform(*KAPPA_RANGES[body]))
    levels = [effective_potential(t, kappa, p) for t in critical_thetas(kappa, p)]
    wells, v_s = (levels[0], levels[2]), levels[1]
    if kind == "near_separatrix":
        return kappa, v_s + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.5, -3.0)), 0
    if kind == "branch1":
        return kappa, float(rng.uniform(max(wells) + 0.01, v_s - 0.01)), 1
    eps = float(rng.uniform(min(wells) + 0.02, v_s + 0.6))
    return kappa, eps, 0


def levels():
    rng = np.random.default_rng(SEED)
    return [(BODIES[body],) + _level(kind, body, rng)
            for _ in range(ROUNDS) for body in BODIES for kind in KINDS]


def evaluations_per_level() -> float:
    """Function evaluations of the level engine's root solves per cold
    level: rotation number, section period and class of each level."""
    todo = levels()
    count = [0]

    def counted(solver):
        def run(f, *args, **kwargs):
            def g(x):
                count[0] += 1
                return f(x)
            return solver(g, *args, **kwargs)
        return run

    real = {name: getattr(rubberroll.dynamics, name) for name in SOLVERS}
    try:
        for name in SOLVERS:
            setattr(rubberroll.dynamics, name, counted(real[name]))
        _observe(todo)
    finally:
        for name in SOLVERS:
            setattr(rubberroll.dynamics, name, real[name])
    return count[0] / len(todo)


def passes_per_level() -> tuple[float, float]:
    """Passes of the quadrature ladder per cold level, and the nodes they
    evaluate per cold level."""
    todo = levels()
    sizes = []
    real = rubberroll.integrate._half_nodes

    def recording(*args):
        sizes.append(sum(args[-1]))
        return real(*args)

    rubberroll.integrate._half_nodes = recording
    try:
        _observe(todo)
    finally:
        rubberroll.integrate._half_nodes = real
    return len(sizes) / len(todo), sum(sizes) / len(todo)


def _observe(todo):
    """Rotation number, section period and class of each level, cold."""
    for p, kappa, eps, branch in todo:
        clear_caches()
        rotation_number(kappa, eps, p, branch)
        section_period(kappa, eps, p, branch)
        classify(kappa, eps, p, branch)


def test_levels_cover_every_kind():
    todo = levels()
    assert len(todo) == ROUNDS * len(BODIES) * len(KINDS)
    assert sum(kappa == 0.0 for _, kappa, _, _ in todo) == ROUNDS * len(BODIES) * 2
    assert any(branch == 1 for _, kappa, _, branch in todo if kappa == 0.0)


def test_root_evaluations_per_cold_level_stay_under_the_ceiling():
    first = evaluations_per_level()
    assert first == evaluations_per_level()     # deterministic
    assert first <= CEILING, first


def test_quadrature_passes_per_cold_level_stay_under_the_ceiling():
    first = passes_per_level()
    assert first == passes_per_level()     # deterministic
    assert first[0] <= PASS_CEILING, first


if __name__ == "__main__":
    print(f"root evaluations per cold level: {evaluations_per_level():.2f} "
          f"(ceiling {CEILING}, seed {SEED}, {len(levels())} levels)")
    passes, nodes = passes_per_level()
    print(f"quadrature passes per cold level: {passes:.2f}, {nodes:.0f} nodes "
          f"(ceiling {PASS_CEILING}, seed {SEED}, {len(levels())} levels)")
