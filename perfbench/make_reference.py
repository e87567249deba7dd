"""Regenerate levels_reference.json, the tight-tolerance reference of the
first levels of the default seed.

    python3 perfbench/make_reference.py

N and T come from the same public functions the workload calls, at
tol_abs = 1e-14 and tol_rel = 1e-12 instead of the defaults.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

BATCHES = 2
TOLS = {"tol_abs": 1e-14, "tol_rel": 1e-12}


def main() -> int:
    run.use_checkout_source()
    from rubberroll import integrate, reconstruct
    from workloads import Levels

    wl = Levels(reference=[])
    rng, _ = run.streams(wl.ref_seed)
    levels = []
    for i in range(BATCHES):
        for op in wl.batch(rng, i, Path(".")):
            args = (op["kappa"], op["eps"], wl.bodies[op["body"]], op["branch"])
            if op["kappa"] == 0.0:
                N, T = 0.0, integrate.section_period(*args, **TOLS).T_theta
            else:
                rn = reconstruct.rotation_number(*args, **TOLS)
                N, T = rn.N, rn.period
            levels.append({**op, "N": N, "T": T})
    with open(wl.ref_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": wl.ref_seed, "tolerances": TOLS, "levels": levels}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(levels)} levels to {wl.ref_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
