"""Shared fixtures and small numeric helpers for the test suite."""

import contextlib
import math
import signal
import sys

import numpy as np
import pytest

from rubberroll.dynamics import FullState
from rubberroll.model import Params


def clear_caches() -> None:
    """Empty every per-process cache of the package, so that the next call
    computes from scratch."""
    for name, mod in list(sys.modules.items()):
        if name == "rubberroll" or name.startswith("rubberroll."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once it has run for ``seconds``: a
    hang fails its test instead of stalling the suite (POSIX, main thread)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _cold_caches():
    """Each test starts from empty caches: no test reads results another
    test left, or results computed under another test's monkeypatch."""
    clear_caches()


@pytest.fixture
def p_main() -> Params:
    """Oblong body with an interior height maximum (diagram with a cusp)."""
    return Params(alpha=0.5, beta=3.0, nu=0.5, eta=0.5)


@pytest.fixture
def p_round() -> Params:
    return Params(alpha=0.5, beta=3.0, nu=1.0, eta=1.0)


@pytest.fixture
def p_sym() -> Params:
    """Centered body (alpha = 0), oblate profile."""
    return Params(alpha=0.0, beta=1.5, nu=1.0, eta=1.0)


def random_valid_state(rng: np.random.Generator) -> FullState:
    """Point on the physical leaf: |gamma| = 1 and omega normal to gamma."""
    g = rng.normal(size=3)
    g /= np.linalg.norm(g)
    w = rng.normal(size=3)
    w -= (w @ g) * g
    return FullState(omega=w, gamma=g)


def circle_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Algebraic least-squares circle (center_x, center_y, radius)."""
    a = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    (cx, cy, d), *_ = np.linalg.lstsq(a, x * x + y * y, rcond=None)
    return float(cx), float(cy), math.sqrt(d + cx * cx + cy * cy)
