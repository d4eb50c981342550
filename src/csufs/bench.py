"""Wall-clock comparison of the naive and sorted-window distance kernels."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .scoring import knn_distance_sums

AGREEMENT_RTOL = 1e-9


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


def _median_time(fn, reps: int):
    times = []
    value = None
    for _ in range(reps):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return float(statistics.median(times)), value


def run_benchmark(n_list, m: int, k: int, reps: int = 3, seed: int = 0, threads: int = 1) -> BenchReport:
    """Time full distance-sum vectors per kernel on seeded uniform matrices.

    Each (n, m) cell regenerates its matrix from the same seed, so reruns
    with identical arguments time identical data. The two kernels' output
    vectors must agree within a relative 1e-9 for the cell to count as
    agreeing; timings are medians over reps runs.
    """
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    cells: list[BenchCell] = []
    for n in n_list:
        rng = np.random.default_rng(seed)
        X = np.asfortranarray(rng.random((int(n), int(m))))
        naive_t, naive_d = _median_time(lambda: knn_distance_sums(X, k, mode="naive", threads=threads), reps)
        opt_t, opt_d = _median_time(lambda: knn_distance_sums(X, k, mode="optimized", threads=threads), reps)
        agree = bool(np.allclose(naive_d, opt_d, rtol=AGREEMENT_RTOL, atol=0.0))
        cells.append(
            BenchCell(
                n=int(n),
                m=int(m),
                k=int(k),
                naive_seconds=naive_t,
                optimized_seconds=opt_t,
                speedup=naive_t / opt_t,
                agreement=agree,
            )
        )
    return BenchReport(grid=cells, repetitions=int(reps))
