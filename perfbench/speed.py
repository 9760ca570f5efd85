"""Machine-speed calibration for the benchmark's timings.

On shared virtual machines the speed of a vCPU drifts by up to a factor of
two over seconds, as neighbours load the host.  Each timed interval is
therefore bracketed by runs of a fixed calibration kernel that does not touch
tclab: small-matrix numpy calls with Python overhead, batched SVD and
elementwise trigonometry, the same kind of work tclab does.  A time is
reported at the reference speed:

    t_ref = t_raw * REF_S / mean(kernel time before, kernel time after)

``REF_S`` is the kernel's time on an unloaded core of the x86-64 machine
the benchmark was written on, so reference seconds read close to real
seconds there.  A change to tclab moves ``t_raw`` and leaves the kernel
alone; a change of machine load moves both.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

REF_S = 0.030

_rng = np.random.default_rng(20151)
_A = _rng.standard_normal((300, 4, 4))
_A = _A - np.swapaxes(_A, 1, 2)
_X = _rng.standard_normal(12000)
_U = _rng.standard_normal((3000, 4))
_M = _rng.standard_normal((64, 4))
_B = _rng.standard_normal((4, 4))


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(16):
        acc += float(np.sum(np.linalg.svd(_A, compute_uv=False)))
        acc += float(np.sum(np.cos(_X) * np.sin(_X)))
        acc += float(np.sum(np.einsum("...i,ij,...j->...", _U, _B, _U)))
        for _ in range(150):
            acc += float((_M @ _B).sum())
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Reference seconds per raw second, from the kernel times around."""
    return REF_S / (0.5 * (before + after))


class Laps:
    """Times consecutive intervals with the kernel run between them.

    Each lap is scaled by the mean of the kernel times on its two sides;
    neighbouring laps share the kernel run that separates them.
    """

    def __init__(self):
        self.last = kernel_seconds()
        self.raw = 0.0
        self.seconds = 0.0

    @contextlib.contextmanager
    def lap(self):
        """Time the body of a ``with`` block as one lap; yields nothing."""
        before = self.last
        t0 = time.perf_counter()
        yield
        raw = time.perf_counter() - t0
        self.last = kernel_seconds()
        self.factor = speed_factor(before, self.last)
        self.raw += raw
        self.seconds += raw * self.factor
