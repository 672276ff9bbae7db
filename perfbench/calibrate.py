"""The host-speed reference: a calibration block timed beside the program.

The speed of a shared host drifts by tens of percent over seconds to
minutes. A member's wall time divided by the time of the calibration blocks
around and during it, times CAL_REF_S, is its time at the reference speed,
the speed at which one block takes CAL_REF_S. This module imports only the
standard library, because fresh set-up interpreters import it too.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from fractions import Fraction
from time import perf_counter

CAL_ITERATIONS = 1300
CAL_REF_S = 0.010  # the calibration block's time at the reference host speed
CAL_PERIOD_S = 0.25  # timer period of the calibration blocks inside a member


def calibration_s() -> float:
    """Wall time of a fixed block of pure-Python big-integer and Fraction
    arithmetic. It shares no code with the program or its dependencies, so
    it changes only with the host's speed, which drifts on a shared machine.
    """
    t0 = perf_counter()
    x = 3 ** 200
    acc, f = 0, Fraction(1, 3)
    for i in range(CAL_ITERATIONS):
        acc = (acc * 31 + x * i) % (x + 7)
        f = (f * 3 + Fraction(i, 7)) / 5
    return perf_counter() - t0


def at_reference_speed(wall_s: float, blocks: list[float]) -> float:
    """Wall time scaled to the reference host speed, by the calibration
    blocks timed around and during it."""
    return wall_s * CAL_REF_S / statistics.fmean(blocks)


@contextlib.contextmanager
def sampling_host(blocks: list[float]):
    """Time a calibration block every CAL_PERIOD_S on a timer signal, so a
    member lasting seconds is scaled by the host speed during it and not
    only around it. The handler runs between the program's bytecodes."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: blocks.append(calibration_s()))
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
