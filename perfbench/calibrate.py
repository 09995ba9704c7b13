"""Machine-speed calibration: a fixed kernel timed beside every op.

On a shared host the whole machine slows down and speeds up, by as much as
1.8x for seconds at a time: on the 2-vCPU host this benchmark was built
on, one fixed lipbound op ran 12.5 to 22.4 times per second in 1-second
windows, while its time divided by this kernel's time stayed within about
±12%. So each op's wall time is also reported scaled by
REFERENCE_S / (kernel time measured beside the op): the time the op would
have taken with the machine at its reference speed.

The kernel uses numpy and the interpreter the way lipbound does (small
dense products, argmin, Python loops and dicts) and none of lipbound's
code, so a change to lipbound never changes the kernel's time.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time (best of REPEATS) on the reference host when it runs at full
# speed; scaled times are wall times at that speed.
REFERENCE_S = 1.0e-3
REPEATS = 3
ROUNDS = 180

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((12, 6))
_B = _rng.standard_normal(12)


def _kernel() -> float:
    x = np.zeros(_A.shape[1])
    acc = 0.0
    for _ in range(ROUNDS):
        y = _A @ x + _B
        j = int(np.argmin(y))
        x = x + 0.01 * _A[j]
        acc += float(y[j]) + sum({i: i * i for i in range(8)}.values())
    return acc


def kernel_s() -> float:
    """Best of REPEATS timed kernel runs, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """`wall_s` at the reference speed, from the kernel times around it."""
    return wall_s * REFERENCE_S * 2 / (kernel_before_s + kernel_after_s)
