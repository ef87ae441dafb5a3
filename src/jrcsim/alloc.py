"""Subcarrier power allocation for radar/communications coexistence.

Two solvers over the same problem data.  ``waterfill`` maximizes mutual
information for the radar sounding channel: pour the budget over the
inverse-quality levels n_k/g_k with a closed-form water level (sorted
prefix sums, no bisection) so the KKT conditions hold to machine
precision.  ``np_allocate`` maximizes detection probability under a
false-alarm cap and per-user rate floors: each floor pins the closed-form
minimum power (2**t_k - 1) n_k / h_k, and the leftover budget goes to the
subcarrier with the best radar SNR slope, which is optimal because the
detector statistic is linear in the allocated radar SNR.

The detector is a Gaussian mean-shift likelihood ratio test; the source
program leaves p_D / p_FA abstract, so this closed monotone model is a
documented substitute that keeps the optimization separable and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .tensorio import read_csv_rows, write_table_csv


@dataclass(frozen=True)
class AllocationProblem:
    """Per-subcarrier channel state plus the global constraints."""

    radar_gains: np.ndarray
    comm_gains: np.ndarray
    noise_powers: np.ndarray
    rate_floors: np.ndarray
    total_power: float
    false_alarm: float = 0.01

    def __post_init__(self):
        g = np.asarray(self.radar_gains, dtype=float)
        h = np.asarray(self.comm_gains, dtype=float)
        n = np.asarray(self.noise_powers, dtype=float)
        t = np.asarray(self.rate_floors, dtype=float)
        if g.size == 0:
            raise ValueError("need at least one subcarrier")
        if not (g.shape == h.shape == n.shape == t.shape):
            raise ValueError("per-subcarrier arrays must share a shape")
        if not all(np.all(np.isfinite(a)) for a in (g, h, n, t)):
            raise ValueError("gains, noise powers and rate floors must be "
                             "finite")
        if np.any(g <= 0) or np.any(h <= 0) or np.any(n <= 0):
            raise ValueError("gains and noise powers must be positive")
        if np.any(t < 0):
            raise ValueError("rate floors must be >= 0")
        if not 0 < self.total_power < math.inf:
            raise ValueError("total_power must be positive and finite")
        if not 0 < self.false_alarm < 1:
            raise ValueError("false_alarm must lie in (0, 1)")
        object.__setattr__(self, "radar_gains", g)
        object.__setattr__(self, "comm_gains", h)
        object.__setattr__(self, "noise_powers", n)
        object.__setattr__(self, "rate_floors", t)

    @property
    def n_subcarriers(self) -> int:
        return self.radar_gains.size

    def min_powers(self) -> np.ndarray:
        """Closed-form floor powers meeting log2(1 + SINR_k) >= t_k."""
        return (2.0 ** self.rate_floors - 1.0) * self.noise_powers \
            / self.comm_gains


@dataclass(frozen=True)
class AllocationResult:
    """Solver output; ``feasible`` is False when floors exceed the budget."""

    powers: np.ndarray
    water_level: float
    p_detect: float
    user_rates: np.ndarray
    feasible: bool
    kkt_residual: float
    deficit: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "powers",
                           np.asarray(self.powers, dtype=float))
        object.__setattr__(self, "user_rates",
                           np.asarray(self.user_rates, dtype=float))


def waterfill(levels, total_power: float) -> AllocationResult:
    """Water-filling over inverse-quality levels n_k/g_k.

    Returns powers max(0, mu - level_k) with the exact water level from
    the sorted-prefix closed form; the budget is met with equality.
    """
    levels = np.asarray(levels, dtype=float).ravel()
    if levels.size == 0:
        raise ValueError("need at least one level")
    if np.any(levels <= 0) or not np.all(np.isfinite(levels)):
        raise ValueError("levels must be positive and finite")
    if not 0 < total_power < math.inf:
        raise ValueError("total_power must be positive and finite")

    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    prefix = np.cumsum(sorted_levels)
    mu = (total_power + prefix[-1]) / levels.size
    for m in range(levels.size, 0, -1):
        mu = (total_power + prefix[m - 1]) / m
        if mu > sorted_levels[m - 1]:
            break
    powers = np.maximum(0.0, mu - levels)

    slack = powers * (mu - levels - powers)
    residual = max(float(np.max(np.abs(slack))),
                   abs(float(powers.sum()) - total_power))
    return AllocationResult(powers=powers, water_level=float(mu),
                            p_detect=float("nan"),
                            user_rates=np.zeros(0), feasible=True,
                            kkt_residual=residual)


def detection_probability(snr: float, false_alarm: float) -> float:
    """Gaussian mean-shift detector: p_D = Q(Q^-1(alpha) - sqrt(2 snr))."""
    if snr < 0:
        raise ValueError("snr must be >= 0")
    if not 0 < false_alarm < 1:
        raise ValueError("false_alarm must lie in (0, 1)")
    x = -NormalDist().inv_cdf(false_alarm) - math.sqrt(2.0 * snr)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def np_allocate(problem: AllocationProblem) -> AllocationResult:
    """Detection-optimal allocation under rate floors and a power budget.

    Reserves each subcarrier's floor power, then pushes all remaining
    budget onto the best radar subcarrier (highest g_k/n_k, lowest index
    on ties).  Infeasible floors yield a flagged result carrying the
    deficit rather than an exception.
    """
    p_min = problem.min_powers()
    spent = float(p_min.sum())
    slopes = problem.radar_gains / problem.noise_powers
    if spent > problem.total_power:
        rates = np.log2(1.0 + p_min * problem.comm_gains
                        / problem.noise_powers)
        snr = float(np.sum(p_min * slopes))
        return AllocationResult(
            powers=p_min, water_level=float("nan"),
            p_detect=detection_probability(snr, problem.false_alarm),
            user_rates=rates, feasible=False, kkt_residual=float("nan"),
            deficit=spent - problem.total_power)

    powers = p_min.copy()
    best = int(np.argmax(slopes))
    powers[best] += problem.total_power - spent
    rates = np.log2(1.0 + powers * problem.comm_gains / problem.noise_powers)
    snr = float(np.sum(powers * slopes))
    residual = abs(float(powers.sum()) - problem.total_power)
    return AllocationResult(
        powers=powers, water_level=float("nan"),
        p_detect=detection_probability(snr, problem.false_alarm),
        user_rates=rates, feasible=True, kkt_residual=residual)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_ALLOC_HEADER = ["k", "g_k", "h_k", "n_k", "t_k", "P_k"]


def write_allocation_csv(path, problem: AllocationProblem,
                         result: AllocationResult | None = None) -> None:
    """Rows (k, g_k, h_k, n_k, t_k, P_k); P_k is 0 without a result."""
    powers = result.powers if result is not None \
        else np.zeros(problem.n_subcarriers)
    write_table_csv(path, _ALLOC_HEADER, [
        np.arange(problem.n_subcarriers), problem.radar_gains,
        problem.comm_gains, problem.noise_powers, problem.rate_floors,
        powers])


def read_allocation_csv(path, total_power: float,
                        false_alarm: float = 0.01):
    """Rebuild (problem, powers) from the CSV row layout above.

    Budget and false-alarm cap are not stored per row, so the caller
    supplies them; the power column comes back as-is (all zeros for a
    problem-only file).  Rows may come in any order, but the ``k`` column
    must hold each of 0..n-1 once.
    """
    header, rows = read_csv_rows(path)
    if header != _ALLOC_HEADER:
        raise ValueError(f"expected header {_ALLOC_HEADER}, got {header}")
    if not rows:
        raise ValueError("allocation CSV has no subcarrier rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(_ALLOC_HEADER):
            raise ValueError(f"allocation CSV row {i} ({','.join(row)}) has "
                             f"{len(row)} cells, expected "
                             f"{len(_ALLOC_HEADER)}")
    data = np.array([[float(v) for v in row] for row in rows])
    seen = set()
    for i, (row, k) in enumerate(zip(rows, data[:, 0]), start=1):
        if not k.is_integer() or not 0 <= k < len(rows) or k in seen:
            raise ValueError(f"allocation CSV row {i} ({','.join(row)}) has "
                             f"k = {row[0]}, expected each of 0.."
                             f"{len(rows) - 1} once")
        seen.add(k)
    order = np.argsort(data[:, 0], kind="stable")
    data = data[order]
    problem = AllocationProblem(
        radar_gains=data[:, 1], comm_gains=data[:, 2],
        noise_powers=data[:, 3], rate_floors=data[:, 4],
        total_power=total_power, false_alarm=false_alarm)
    return problem, data[:, 5]
