"""The machine's speed, measured by timing a fixed piece of work.

A shared host changes the speed of a virtual CPU by a quarter or more, in
spells lasting from seconds to minutes, which would swamp any change to the
program.  The benchmark therefore times ``calibrate`` next to every job (and
around every set-up) and scales the measured time to the reference speed:
``scaled(seconds, calibration_s)``.  The calibration runs no package code,
so a faster program still shows in full; only the machine's speed moves it.

This module imports nothing from ``basiccovers``, so that the set-up timing
can use it before the package is imported.
"""

from __future__ import annotations

from time import perf_counter

# calibrate() on the reference machine, a 2-core Xeon VM.
REFERENCE_S = 0.0025


def _queens(n: int, row: int, cols: set[int], up: set[int], down: set[int]) -> int:
    if row == n:
        return 1
    total = 0
    for c in range(n):
        if c not in cols and row - c not in up and row + c not in down:
            cols.add(c)
            up.add(row - c)
            down.add(row + c)
            total += _queens(n, row + 1, cols, up, down)
            cols.discard(c)
            up.discard(row - c)
            down.discard(row + c)
    return total


def calibrate() -> float:
    """Seconds taken by the eight-queens search, a recursive search over
    sets like the package's own, as the best of three timings.  It allocates
    next to nothing, so it never sets off a garbage collection of the
    program's heap."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        solutions = _queens(8, 0, set(), set(), set())
        best = min(best, perf_counter() - start)
        if solutions != 92:
            raise AssertionError(f"calibration search found {solutions} solutions, not 92")
    return best


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while ``calibrate`` took ``calibration_s``, at
    the reference machine speed."""
    return seconds * REFERENCE_S / calibration_s
