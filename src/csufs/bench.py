"""Wall-clock comparison of the naive and sorted-window distance kernels."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .scoring import MODES, knn_distance_sums

AGREEMENT_RTOL = 1e-9
_MIN_TIMED_SECONDS = 0.1


@dataclass
class BenchCell:
    """One benchmark grid point: timings plus the agreement verdict."""

    n: int
    m: int
    k: int
    naive_seconds: float
    optimized_seconds: float
    speedup: float
    agreement: bool


@dataclass
class BenchReport:
    grid: list[BenchCell]
    repetitions: int

    @property
    def all_agree(self) -> bool:
        return all(cell.agreement for cell in self.grid)


def _time_call(fn) -> tuple[float, object]:
    """Seconds per call of fn and its last value. Fast calls repeat for at
    least _MIN_TIMED_SECONDS, so a millisecond kernel is not timed at the
    grain of the scheduler."""
    calls, t0 = 0, time.perf_counter()
    while calls == 0 or time.perf_counter() - t0 < _MIN_TIMED_SECONDS:
        value = fn()
        calls += 1
    return (time.perf_counter() - t0) / calls, value


def run_benchmark(n_list, m: int, k: int, reps: int = 3, seed: int = 0) -> BenchReport:
    """Time full distance-sum vectors per kernel on seeded uniform matrices.

    Each (n, m) cell regenerates its matrix from the same seed, so reruns
    with identical arguments time identical data. Every rep times one kernel
    on all cells back to back, so a drift in the host's speed moves the
    cells alike. The two kernels' output vectors must agree within a
    relative 1e-9 for the cell to count as agreeing; timings are medians
    of the seconds per call over reps runs.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    matrices = [np.asfortranarray(np.random.default_rng(seed).random((int(n), int(m)))) for n in n_list]
    seconds = {(mode, i): [] for mode in MODES for i in range(len(matrices))}
    sums = {}
    for _ in range(reps):
        for mode in MODES:
            for i, X in enumerate(matrices):
                t, sums[mode, i] = _time_call(lambda: knn_distance_sums(X, k, mode=mode))
                seconds[mode, i].append(t)
    cells: list[BenchCell] = []
    for i, n in enumerate(n_list):
        naive_t, opt_t = (float(statistics.median(seconds[mode, i])) for mode in ("naive", "optimized"))
        agree = bool(np.allclose(sums["naive", i], sums["optimized", i], rtol=AGREEMENT_RTOL, atol=0.0))
        cells.append(BenchCell(n=int(n), m=int(m), k=int(k), naive_seconds=naive_t, optimized_seconds=opt_t,
                               speedup=naive_t / opt_t, agreement=agree))
    return BenchReport(grid=cells, repetitions=int(reps))
