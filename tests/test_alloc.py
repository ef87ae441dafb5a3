"""Power allocation: water-filling, detection-optimal floors, CSV round trip.

KKT and budget checks recompute the optimality conditions from the returned
powers rather than trusting the solver's own residual field.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from jrcsim.alloc import (AllocationProblem, AllocationResult,
                          detection_probability, np_allocate,
                          read_allocation_csv, waterfill,
                          write_allocation_csv)
from jrcsim.tensorio import write_table_csv

finite = dict(allow_nan=False, allow_infinity=False)


def make_problem(g, h, n, t, total, alpha=0.01):
    return AllocationProblem(radar_gains=np.asarray(g, dtype=float),
                             comm_gains=np.asarray(h, dtype=float),
                             noise_powers=np.asarray(n, dtype=float),
                             rate_floors=np.asarray(t, dtype=float),
                             total_power=total, false_alarm=alpha)


# ---------------------------------------------------------------------------
# Water-filling
# ---------------------------------------------------------------------------


def test_waterfill_two_channel_closed_form():
    result = waterfill([1.0, 3.0], 4.0)
    assert np.allclose(result.powers, [3.0, 1.0], atol=1e-12)
    assert result.water_level == pytest.approx(4.0, abs=1e-12)
    assert result.kkt_residual <= 1e-9


def test_waterfill_single_channel():
    result = waterfill([2.0], 5.0)
    assert result.powers[0] == pytest.approx(5.0, abs=1e-12)
    assert result.water_level == pytest.approx(7.0, abs=1e-12)


def test_waterfill_starves_poor_channel():
    result = waterfill([1.0, 100.0], 1.0)
    assert np.allclose(result.powers, [1.0, 0.0], atol=1e-12)
    assert result.water_level <= 100.0


def test_waterfill_equal_levels_split_evenly():
    result = waterfill([2.0, 2.0, 2.0], 6.0)
    assert np.allclose(result.powers, 2.0, atol=1e-12)


def test_waterfill_validation():
    with pytest.raises(ValueError):
        waterfill([], 1.0)
    with pytest.raises(ValueError):
        waterfill([0.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        waterfill([np.inf], 1.0)
    with pytest.raises(ValueError):
        waterfill([1.0], 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            waterfill([1.0], bad)


@settings(max_examples=200, deadline=None)
@given(levels=hnp.arrays(float, st.integers(1, 32),
                         elements=st.floats(1e-3, 1e3, **finite)),
       total=st.floats(1e-3, 1e3, **finite))
def test_waterfill_kkt_property(levels, total):
    result = waterfill(levels, total)
    p = result.powers
    mu = result.water_level
    scale = max(1.0, total)
    assert np.all(p >= 0)
    assert abs(p.sum() - total) <= 1e-9 * scale
    # Complementary slackness and dual feasibility, recomputed directly.
    assert np.max(np.abs(p * (mu - levels - p))) <= 1e-9 * scale
    active = p > 0
    assert np.allclose(p[active], mu - levels[active], atol=1e-9 * scale)
    assert np.all(mu <= levels[~active] + 1e-9 * scale)


@settings(max_examples=100, deadline=None)
@given(levels=hnp.arrays(float, st.integers(2, 16),
                         elements=st.floats(1e-2, 1e2, **finite)),
       total=st.floats(1e-2, 1e2, **finite),
       seed=st.integers(0, 2 ** 31))
def test_waterfill_permutation_invariance(levels, total, seed):
    perm = np.random.default_rng(seed).permutation(levels.size)
    base = waterfill(levels, total).powers
    shuffled = waterfill(levels[perm], total).powers
    assert np.array_equal(shuffled, base[perm])


# ---------------------------------------------------------------------------
# Detection probability
# ---------------------------------------------------------------------------


def test_detection_probability_zero_snr_equals_false_alarm():
    for alpha in (0.001, 0.01, 0.1, 0.5):
        assert detection_probability(0.0, alpha) == pytest.approx(
            alpha, abs=1e-12)


def test_detection_probability_monotone_in_snr():
    alpha = 0.01
    values = [detection_probability(s, alpha)
              for s in np.linspace(0.0, 20.0, 15)]
    assert np.all(np.diff(values) > 0)
    assert values[-1] > 0.999


def test_detection_probability_monotone_in_false_alarm():
    snr = 2.0
    values = [detection_probability(snr, a)
              for a in (0.001, 0.01, 0.05, 0.2, 0.5)]
    assert np.all(np.diff(values) > 0)


@settings(max_examples=300, deadline=None)
@given(st.floats(-12, np.log10(0.98)), st.floats(-3, 4))
def test_detection_probability_matches_scipy_oracle(log_alpha, log_snr):
    alpha, snr = 10.0 ** log_alpha, 10.0 ** log_snr
    expected = float(norm.sf(norm.isf(alpha) - np.sqrt(2.0 * snr)))
    assert detection_probability(snr, alpha) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


def test_import_does_not_load_scipy():
    code = ("import sys, jrcsim, jrcsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "[]"


def test_detection_probability_validation():
    with pytest.raises(ValueError):
        detection_probability(-0.1, 0.01)
    with pytest.raises(ValueError):
        detection_probability(1.0, 0.0)
    with pytest.raises(ValueError):
        detection_probability(1.0, 1.0)


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


def test_min_powers_closed_form():
    problem = make_problem([1.0], [2.0], [0.5], [2.0], 10.0)
    assert problem.min_powers()[0] == pytest.approx(0.75, abs=1e-15)
    assert problem.n_subcarriers == 1


def test_problem_validation():
    good = dict(g=[1.0], h=[1.0], n=[1.0], t=[0.0], total=1.0)
    make_problem(**good)
    with pytest.raises(ValueError):
        make_problem([], [], [], [], 1.0)
    with pytest.raises(ValueError):
        make_problem([1.0, 2.0], [1.0], [1.0], [0.0], 1.0)
    with pytest.raises(ValueError):
        make_problem([0.0], [1.0], [1.0], [0.0], 1.0)
    with pytest.raises(ValueError):
        make_problem([1.0], [1.0], [1.0], [-1.0], 1.0)
    with pytest.raises(ValueError):
        make_problem([1.0], [1.0], [1.0], [0.0], 0.0)
    with pytest.raises(ValueError):
        make_problem([1.0], [1.0], [1.0], [0.0], 1.0, alpha=1.5)
    # Non-finite cells and budgets would give NaN powers or overflow.
    for bad in (np.nan, np.inf):
        for k in range(4):
            cells = [[1.0], [1.0], [1.0], [0.0]]
            cells[k] = [bad]
            with pytest.raises(ValueError, match="finite"):
                make_problem(*cells, 1.0)
        with pytest.raises(ValueError, match="finite"):
            make_problem([1.0], [1.0], [1.0], [0.0], bad)


# ---------------------------------------------------------------------------
# Detection-optimal allocation with rate floors
# ---------------------------------------------------------------------------


def test_np_allocate_floors_then_best_slope():
    problem = make_problem(g=[0.5, 0.5, 5.0], h=[1.0, 1.0, 1.0],
                           n=[1.0, 1.0, 1.0], t=[1.0, 2.0, 0.0], total=10.0)
    result = np_allocate(problem)
    assert result.feasible
    assert np.allclose(result.powers, [1.0, 3.0, 6.0], atol=1e-12)
    assert np.allclose(result.user_rates, [1.0, 2.0, np.log2(7.0)],
                       atol=1e-12)
    snr = float(np.sum(result.powers * problem.radar_gains
                       / problem.noise_powers))
    assert result.p_detect == pytest.approx(
        detection_probability(snr, problem.false_alarm), abs=1e-15)


def test_np_allocate_budget_exactly_at_floors():
    problem = make_problem(g=[1.0, 2.0], h=[1.0, 1.0], n=[1.0, 1.0],
                           t=[1.0, 1.0], total=2.0)
    result = np_allocate(problem)
    assert result.feasible
    assert np.allclose(result.powers, [1.0, 1.0], atol=1e-12)
    assert result.deficit == 0.0


def test_np_allocate_infeasible_reports_deficit():
    problem = make_problem(g=[1.0], h=[1.0], n=[1.0], t=[3.0], total=2.0)
    result = np_allocate(problem)
    assert not result.feasible
    assert result.deficit == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(result.powers, [7.0], atol=1e-12)
    assert np.allclose(result.user_rates, [3.0], atol=1e-12)


def test_np_allocate_slope_tie_prefers_low_index():
    problem = make_problem(g=[2.0, 2.0], h=[1.0, 1.0], n=[1.0, 1.0],
                           t=[0.0, 0.0], total=5.0)
    result = np_allocate(problem)
    assert np.allclose(result.powers, [5.0, 0.0], atol=1e-12)


def test_np_allocate_rate_floors_hold_by_direct_sinr():
    rng = np.random.default_rng(11)
    g = rng.uniform(0.1, 5.0, size=8)
    h = rng.uniform(0.1, 5.0, size=8)
    n = rng.uniform(0.1, 2.0, size=8)
    t = rng.uniform(0.0, 3.0, size=8)
    problem = make_problem(g, h, n, t, total=1e4)
    result = np_allocate(problem)
    assert result.feasible
    sinr = result.powers * h / n
    assert np.all(np.log2(1.0 + sinr) >= t - 1e-12)


def test_np_allocate_detection_monotone_in_budget():
    g = [0.4, 1.5, 0.9]
    h = [1.0, 0.5, 2.0]
    n = [1.0, 1.0, 0.5]
    t = [1.0, 1.0, 1.0]
    base = make_problem(g, h, n, t, total=1.0).min_powers().sum()
    budgets = base + np.linspace(0.5, 20.0, 10)
    values = [np_allocate(make_problem(g, h, n, t, total=float(p))).p_detect
              for p in budgets]
    assert np.all(np.diff(values) > 0)


def test_np_allocate_detection_monotone_in_false_alarm():
    g = [1.0, 2.0]
    h = [1.0, 1.0]
    n = [1.0, 1.0]
    t = [1.0, 0.5]
    values = [np_allocate(make_problem(g, h, n, t, total=6.0,
                                       alpha=a)).p_detect
              for a in (0.001, 0.01, 0.1, 0.3)]
    assert np.all(np.diff(values) > 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), size=st.integers(1, 16))
def test_np_allocate_feasible_property(data, size):
    pos = st.floats(1e-2, 1e2, **finite)
    g = np.array(data.draw(st.lists(pos, min_size=size, max_size=size)))
    h = np.array(data.draw(st.lists(pos, min_size=size, max_size=size)))
    n = np.array(data.draw(st.lists(pos, min_size=size, max_size=size)))
    t = np.array(data.draw(st.lists(st.floats(0.0, 6.0, **finite),
                                    min_size=size, max_size=size)))
    headroom = data.draw(st.floats(1e-3, 1e3, **finite))
    floors = make_problem(g, h, n, t, total=1.0).min_powers()
    total = float(floors.sum() + headroom)
    result = np_allocate(make_problem(g, h, n, t, total=total))
    assert result.feasible
    scale = max(1.0, total)
    assert abs(result.powers.sum() - total) <= 1e-9 * scale
    assert np.all(result.powers >= floors - 1e-12 * scale)
    extra = result.powers - floors
    slopes = g / n
    best = int(np.argmax(slopes))
    assert np.flatnonzero(extra > 1e-9 * scale).tolist() in ([], [best])


def test_np_allocate_feasibility_boundary():
    g = [1.0, 1.0]
    h = [2.0, 0.5]
    n = [0.3, 1.2]
    t = [2.0, 1.0]
    floors = make_problem(g, h, n, t, total=1.0).min_powers()
    exact = float(floors.sum())
    at_boundary = np_allocate(make_problem(g, h, n, t, total=exact))
    assert at_boundary.feasible
    below = np_allocate(make_problem(g, h, n, t, total=exact * (1 - 1e-6)))
    assert not below.feasible
    assert below.deficit == pytest.approx(exact * 1e-6, rel=1e-6)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_allocation_csv_round_trip(tmp_path):
    problem = make_problem(g=[0.5, 0.5, 5.0], h=[1.0, 2.0, 1.0],
                           n=[1.0, 0.5, 1.0], t=[1.0, 2.0, 0.0], total=10.0)
    result = np_allocate(problem)
    path = tmp_path / "alloc.csv"
    write_allocation_csv(path, problem, result)
    back, powers = read_allocation_csv(path, total_power=10.0)
    assert np.array_equal(back.radar_gains, problem.radar_gains)
    assert np.array_equal(back.comm_gains, problem.comm_gains)
    assert np.array_equal(back.noise_powers, problem.noise_powers)
    assert np.array_equal(back.rate_floors, problem.rate_floors)
    assert np.array_equal(powers, result.powers)


def test_allocation_csv_problem_only_zero_powers(tmp_path):
    problem = make_problem(g=[1.0], h=[1.0], n=[1.0], t=[0.0], total=1.0)
    path = tmp_path / "problem.csv"
    write_allocation_csv(path, problem)
    _, powers = read_allocation_csv(path, total_power=1.0)
    assert np.array_equal(powers, [0.0])


def test_allocation_csv_rows_sorted_by_index(tmp_path):
    path = tmp_path / "shuffled.csv"
    write_table_csv(path, ["k", "g_k", "h_k", "n_k", "t_k", "P_k"],
                    [[2, 3.0, 1.0, 1.0, 0.0, 0.25],
                     [0, 1.0, 1.0, 1.0, 0.0, 0.5],
                     [1, 2.0, 1.0, 1.0, 0.0, 0.75]])
    problem, powers = read_allocation_csv(path, total_power=1.5)
    assert np.array_equal(problem.radar_gains, [1.0, 2.0, 3.0])
    assert np.array_equal(powers, [0.5, 0.75, 0.25])


def test_allocation_csv_header_and_empty_checks(tmp_path):
    bad = tmp_path / "bad.csv"
    write_table_csv(bad, ["k", "gain", "h_k", "n_k", "t_k", "P_k"],
                    [[0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        read_allocation_csv(bad, total_power=1.0)
    empty = tmp_path / "empty.csv"
    write_table_csv(empty, ["k", "g_k", "h_k", "n_k", "t_k", "P_k"], [])
    with pytest.raises(ValueError):
        read_allocation_csv(empty, total_power=1.0)
