"""Baseband primitive tests: codes, Golay pairs, DPSK, shifts, steering.

Oracles are deliberately independent of the implementation: double-loop
correlations, explicit permutation matrices and the classical windowed
definitions of maximal-length sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jrcsim.sigcore import (ArrayGeometry, CodeSequence, DpskStream,
                            aperiodic_autocorr, cyclic_shift, dpsk_decode,
                            dpsk_encode, golay_pair, steering_vector)


def brute_autocorr(x):
    """O(N^2) aperiodic autocorrelation straight from the definition."""
    x = np.asarray(x)
    n = x.size
    out = np.zeros(2 * n - 1, dtype=complex)
    for k in range(-(n - 1), n):
        acc = 0.0 + 0.0j
        for i in range(n):
            if 0 <= i + k < n:
                acc += x[i + k] * np.conj(x[i])
        out[n - 1 + k] = acc
    if np.isrealobj(x):
        return out.real
    return out


def autocorr_sum(pair):
    """Sum of the pair members' aperiodic autocorrelations."""
    return aperiodic_autocorr(pair.ga) + aperiodic_autocorr(pair.gb)


# ---------------------------------------------------------------------------
# CodeSequence
# ---------------------------------------------------------------------------


def test_code_chips_unit_modulus():
    code = CodeSequence(np.array([0.0, np.pi, 0.3, -1.2]))
    assert np.allclose(np.abs(code.chips()), 1.0, atol=1e-12)


def test_code_rejects_empty_and_bad_signs():
    with pytest.raises(ValueError):
        CodeSequence(np.zeros(0))
    with pytest.raises(ValueError):
        CodeSequence.from_signs([1, 0, -1])
    with pytest.raises(ValueError):
        CodeSequence(np.array([0.0]), chip_duration=0.0)


def test_random_binary_is_seeded():
    a = CodeSequence.random_binary(64, seed=7)
    b = CodeSequence.random_binary(64, seed=7)
    c = CodeSequence.random_binary(64, seed=8)
    assert np.array_equal(a.phases, b.phases)
    assert not np.array_equal(a.phases, c.phases)
    assert np.all(np.isin(a.phases, [0.0, np.pi]))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8, 10])
def test_mseq_periodic_autocorrelation(order):
    # The defining property of a maximal-length sequence mapped to +/-1:
    # periodic autocorrelation is N at lag 0 and exactly -1 elsewhere.
    code = CodeSequence.mseq(order)
    n = 2 ** order - 1
    assert code.length == n
    signs = np.sign(code.chips().real).astype(np.int64)
    for lag in range(n):
        r = int(np.sum(signs * np.roll(signs, lag)))
        assert r == (n if lag == 0 else -1), f"lag {lag}"


@pytest.mark.parametrize("order", [3, 5, 8])
def test_mseq_window_property(order):
    # Sliding a cyclic window of m bits over one period visits every nonzero
    # m-bit pattern exactly once.
    code = CodeSequence.mseq(order)
    bits = (1 - np.sign(code.chips().real).astype(np.int64)) // 2
    n = bits.size
    seen = set()
    for i in range(n):
        window = tuple(bits[(i + j) % n] for j in range(order))
        seen.add(window)
    assert len(seen) == n
    assert tuple([0] * order) not in seen


def test_mseq_unsupported_order():
    with pytest.raises(ValueError):
        CodeSequence.mseq(1)
    with pytest.raises(ValueError):
        CodeSequence.mseq(17)


# ---------------------------------------------------------------------------
# Golay pairs
# ---------------------------------------------------------------------------


def test_golay_base_pair():
    pair = golay_pair(1)
    assert np.array_equal(pair.ga, [1, 1])
    assert np.array_equal(pair.gb, [1, -1])
    assert np.array_equal(autocorr_sum(pair), [0, 4, 0])


def test_golay_length8_against_brute_force():
    pair = golay_pair(3)
    assert pair.length == 8
    total = brute_autocorr(pair.ga) + brute_autocorr(pair.gb)
    ideal = np.zeros(15)
    ideal[7] = 16.0
    assert np.array_equal(total, ideal)


def test_golay_256_peak_and_sidelobes():
    pair = golay_pair(8)
    s = autocorr_sum(pair)
    assert s[pair.length - 1] == 512
    s[pair.length - 1] = 0
    assert np.count_nonzero(s) == 0


@pytest.mark.parametrize("m", range(1, 17))
def test_golay_identity_every_length(m):
    pair = golay_pair(m)
    ideal = np.zeros(2 * pair.length - 1, dtype=np.int64)
    ideal[pair.length - 1] = 2 * pair.length
    assert np.array_equal(autocorr_sum(pair), ideal)


def test_golay_pair_rejects_bad_length():
    with pytest.raises(ValueError):
        golay_pair(0)
    with pytest.raises(ValueError):
        golay_pair(17)


# ---------------------------------------------------------------------------
# Aperiodic autocorrelation
# ---------------------------------------------------------------------------


def test_autocorr_tiny_cases():
    assert np.array_equal(aperiodic_autocorr([1, 1]), [1, 2, 1])
    assert np.array_equal(aperiodic_autocorr([1, -1]), [-1, 2, -1])


def test_autocorr_matches_brute_force_random_signs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 65))
        x = 1 - 2 * rng.integers(0, 2, size=n)
        assert np.array_equal(aperiodic_autocorr(x), brute_autocorr(x))


def test_autocorr_matches_brute_force_complex():
    rng = np.random.default_rng(4)
    x = rng.normal(size=24) + 1j * rng.normal(size=24)
    got = aperiodic_autocorr(x)
    assert np.allclose(got, brute_autocorr(x), atol=1e-12)


def test_autocorr_long_fft_path_is_exact():
    # Above the FFT cutoff the result must still be integer-exact; numpy's
    # direct correlate is the independent reference.
    rng = np.random.default_rng(5)
    x = 1 - 2 * rng.integers(0, 2, size=1500)
    got = aperiodic_autocorr(x)
    ref = np.correlate(x, x, mode="full")
    assert got.dtype == np.int64
    assert np.array_equal(got, ref)


def test_autocorr_conjugate_symmetry_real_input():
    rng = np.random.default_rng(6)
    x = rng.normal(size=17)
    r = aperiodic_autocorr(x)
    assert np.allclose(r, r[::-1], atol=1e-12)


def test_autocorr_rejects_empty():
    with pytest.raises(ValueError):
        aperiodic_autocorr([])


# ---------------------------------------------------------------------------
# DPSK
# ---------------------------------------------------------------------------


def test_dpsk_all_zero_bits_constant_stream():
    stream = dpsk_encode(np.zeros(8, dtype=int), order=2)
    assert np.allclose(stream.symbols, 1.0)
    assert np.array_equal(dpsk_decode(stream.symbols, order=2), np.zeros(8))


def test_dpsk_reference_symbol_and_length():
    stream = dpsk_encode([1, 0, 1, 1], order=4)
    assert stream.symbols[0] == 1.0 + 0.0j
    assert stream.symbols.size == 3


def test_dpsk_constant_phase_invariance():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=100)
    stream = dpsk_encode(bits, order=4)
    rotated = stream.symbols * np.exp(1j * 1.234)
    assert np.array_equal(dpsk_decode(rotated, order=4), bits)


def test_dpsk_large_round_trip():
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=10_000)
    for order in (2, 4):
        decoded = dpsk_decode(dpsk_encode(bits, order).symbols, order)
        assert np.array_equal(decoded, bits)


def test_dpsk_gray_mapping_single_bit_flips():
    # Adjacent constellation steps must differ in exactly one bit, so a
    # one-step phase decision error costs one bit, not two.
    patterns = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            sym = dpsk_encode([b0, b1], order=4).symbols
            step = int(round(np.angle(sym[1] * np.conj(sym[0]))
                             * 4 / (2 * np.pi))) % 4
            patterns[step] = (b0, b1)
    for step in range(4):
        a = patterns[step]
        b = patterns[(step + 1) % 4]
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_dpsk_symbols_unit_modulus():
    rng = np.random.default_rng(13)
    stream = dpsk_encode(rng.integers(0, 2, size=64), order=4)
    assert np.allclose(np.abs(stream.symbols), 1.0, atol=1e-12)


def test_dpsk_input_validation():
    with pytest.raises(ValueError):
        dpsk_encode([0, 1], order=3)
    with pytest.raises(ValueError):
        dpsk_encode([0, 1, 1], order=4)
    with pytest.raises(ValueError):
        dpsk_encode([0, 2], order=2)
    with pytest.raises(ValueError):
        dpsk_decode([], order=2)


def test_dpsk_decode_single_reference_yields_no_bits():
    assert dpsk_decode([1.0 + 0j], order=4).size == 0


@given(st.lists(st.integers(0, 1), min_size=2, max_size=60).map(
           lambda b: b[:len(b) - len(b) % 2]),
       st.sampled_from([2, 4]),
       st.floats(-np.pi, np.pi, allow_nan=False))
def test_dpsk_round_trip_property(bits, order, theta):
    bits = np.asarray(bits if bits else [0, 1], dtype=np.int64)
    stream = dpsk_encode(bits, order)
    decoded = dpsk_decode(stream.symbols * np.exp(1j * theta), order)
    assert np.array_equal(decoded, bits)


# ---------------------------------------------------------------------------
# Cyclic shifts
# ---------------------------------------------------------------------------


def test_cyclic_shift_zero_is_identity():
    x = np.arange(5)
    assert np.array_equal(cyclic_shift(x, 0), x)


def test_cyclic_shift_matches_explicit_matrix():
    # P_1 for L=4 written out by hand: row l picks element (l-1) mod 4.
    p1 = np.array([[0.0, 0.0, 0.0, 1.0],
                   [1.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0]])
    s = np.array([10.0, 20.0, 30.0, 40.0])
    assert np.array_equal(cyclic_shift(s, 1), p1 @ s)


def test_shift_then_complement_is_identity():
    rng = np.random.default_rng(21)
    x = rng.normal(size=12)
    for k in range(1, 12):
        assert np.array_equal(cyclic_shift(cyclic_shift(x, k), 12 - k), x)


@given(st.integers(2, 64), st.data())
def test_cyclic_shift_composed_l_times_is_identity(length, data):
    k = data.draw(st.integers(0, length - 1))
    x = np.arange(length)
    y = x
    for _ in range(length):
        y = cyclic_shift(y, k)
    assert np.array_equal(y, x)


@settings(deadline=None)
@given(st.just(1024))
def test_cyclic_shift_identity_at_max_length(length):
    x = np.arange(length)
    y = cyclic_shift(cyclic_shift(x, 1023), 1)
    assert np.array_equal(y, x)


def test_cyclic_shift_rejects_out_of_range():
    with pytest.raises(ValueError):
        cyclic_shift(np.arange(4), 4)
    with pytest.raises(ValueError):
        cyclic_shift(np.arange(4), -1)


# ---------------------------------------------------------------------------
# Array geometry and steering
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(n_tx=0)
    with pytest.raises(ValueError):
        ArrayGeometry(spacing_over_lambda=0.0)


def test_steering_broadside_is_all_ones():
    geom = ArrayGeometry(n_rx=8)
    v = steering_vector(geom, 0.0, 8, convention="rx")
    assert np.allclose(v, 1.0, atol=1e-15)


def test_steering_endfire_two_elements_receive():
    geom = ArrayGeometry(spacing_over_lambda=0.5)
    v = steering_vector(geom, np.pi / 2, 2, convention="rx")
    assert np.allclose(v, [1.0, -1.0], atol=1e-12)


def test_steering_sign_conventions_conjugate():
    geom = ArrayGeometry(spacing_over_lambda=0.5)
    tx = steering_vector(geom, 0.4, 6, convention="tx")
    rx = steering_vector(geom, 0.4, 6, convention="rx")
    assert np.allclose(tx, np.conj(rx), atol=1e-12)


def test_steering_odd_symmetry_in_angle():
    geom = ArrayGeometry(spacing_over_lambda=0.5)
    v_pos = steering_vector(geom, 0.7, 5, convention="tx")
    v_neg = steering_vector(geom, -0.7, 5, convention="tx")
    assert np.allclose(v_neg, np.conj(v_pos), atol=1e-12)


@given(st.floats(-np.pi / 2, np.pi / 2, allow_nan=False),
       st.integers(1, 16))
def test_steering_unit_modulus(angle, n):
    geom = ArrayGeometry(spacing_over_lambda=0.5)
    v = steering_vector(geom, angle, n, convention="rx")
    assert np.all(np.abs(np.abs(v) - 1.0) < 1e-12)


def test_steering_rejects_bad_inputs():
    geom = ArrayGeometry()
    with pytest.raises(ValueError):
        steering_vector(geom, 2.0, 4)
    with pytest.raises(ValueError):
        steering_vector(geom, 0.0, 0)
    with pytest.raises(ValueError):
        steering_vector(geom, 0.0, 4, convention="fwd")


def test_dpsk_stream_dataclass_coercion():
    stream = DpskStream(bits=[0, 1], order=2, symbols=[1, 1j, -1])
    assert stream.bits.dtype == np.int64
    assert stream.symbols.dtype == complex
