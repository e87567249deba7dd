"""In-memory spans and counters around the package's public functions.

The traced run wraps functions from outside the package.  Each wrapper is
installed in every loaded ``rubberroll`` module namespace that holds the
original object: the modules bind these functions with ``from .x import f``,
so a caller that looks the name up in its own module would otherwise reach
the unwrapped function.  A function that no longer exists is recorded as
missing instead of raising.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "rubberroll"

# Timed with a span per call.  Self time is the span minus its child spans.
SPANNED = (
    "dynamics.component_intervals",
    "dynamics.critical_thetas",
    "integrate.integrate_raw",
    "integrate.section_period",
    "reconstruct.rotation_number",
    "reconstruct.classify",
    "reconstruct.reconstruct_trajectory",
    "reconstruct.reconstruct_from_full",
    "bifurcation.diagram",
    "bifurcation.rpm_floor",
    "bifurcation.sigma_theta_curve",
    "bifurcation.cusp",
    "cli.main",
)

# Pointwise kernels called 10^5 times per operation: counted only, because a
# span per call would cost more than the call.  Their time stays in the self
# time of the spanned caller.
COUNTED = (
    "geometry.profile",
    "dynamics.effective_potential",
    "dynamics.g0",
)

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "op")


class Tracer:
    """Spans, call counts and integration statistics of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.steps = 0
        self.rhs_evals = 0
        self.events_hit = 0
        self.max_renorm = 0.0
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if name == "integrate.integrate_raw":
                self._add_stats(out)
            return out
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _add_stats(self, traj) -> None:
        self.steps += traj.stats.n_steps
        self.rhs_evals += traj.stats.n_rhs
        self.max_renorm = max(self.max_renorm, traj.stats.max_renorm)
        self.events_hit += len(traj.events)

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block, then restore."""
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.missing = []
        undo = []
        try:
            for names, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for name in names:
                    mod, attr = name.split(".")
                    orig = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), attr, None)
                    if orig is None:
                        self.missing.append(name)
                        continue
                    wrapped = make(name, orig)
                    for m in mods:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, wrapped)
                                undo.append((m, key, orig))
            yield self
        finally:
            for m, key, orig in reversed(undo):
                setattr(m, key, orig)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "calls": dict(self.calls), "missing": self.missing}, fh)
