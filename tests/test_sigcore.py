"""Baseband primitive tests: codes, Golay pairs, DPSK, the radar-slot
split, shifts, steering.

Oracles are deliberately independent of the implementation: double-loop
correlations, explicit permutation matrices and the classical windowed
definitions of maximal-length sequences.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jrcsim.ofdma import OfdmaConfig, ofdma_pilot_mask
from jrcsim.pmcw import PmcwConfig, _pmcw_response, pmcw_schedule
from jrcsim.sigcore import (ArrayGeometry, CodeSequence, _Manifold,
                            aperiodic_autocorr, dpsk_decode, dpsk_encode,
                            golay_pair)


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
    symbols = dpsk_encode(np.zeros(8, dtype=int), order=2)
    assert np.allclose(symbols, 1.0)
    assert np.array_equal(dpsk_decode(symbols, order=2), np.zeros(8))


def test_dpsk_reference_symbol_and_length():
    symbols = dpsk_encode([1, 0, 1, 1], order=4)
    assert symbols[0] == 1.0 + 0.0j
    assert symbols.size == 3


def test_dpsk_constant_phase_invariance():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=100)
    rotated = dpsk_encode(bits, order=4) * np.exp(1j * 1.234)
    assert np.array_equal(dpsk_decode(rotated, order=4), bits)


def test_dpsk_large_round_trip():
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=10_000)
    for order in (2, 4):
        decoded = dpsk_decode(dpsk_encode(bits, order), order)
        assert np.array_equal(decoded, bits)


def test_dpsk_gray_mapping_single_bit_flips():
    # Adjacent constellation steps must differ in exactly one bit, so a
    # one-step phase decision error costs one bit, not two.
    patterns = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            sym = dpsk_encode([b0, b1], order=4)
            step = int(round(np.angle(sym[1] * np.conj(sym[0]))
                             * 4 / (2 * np.pi))) % 4
            patterns[step] = (b0, b1)
    for step in range(4):
        a = patterns[step]
        b = patterns[(step + 1) % 4]
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_dpsk_symbols_unit_modulus():
    rng = np.random.default_rng(13)
    symbols = dpsk_encode(rng.integers(0, 2, size=64), order=4)
    assert np.allclose(np.abs(symbols), 1.0, atol=1e-12)


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
    decoded = dpsk_decode(dpsk_encode(bits, order) * np.exp(1j * theta),
                          order)
    assert np.array_equal(decoded, bits)


@settings(deadline=None)
@given(st.sampled_from([2, 4]), st.integers(0, 8), st.integers(1, 20),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_dpsk_row_block_matches_per_row_calls(order, n_rows, n_symbols,
                                              seed, noise):
    # The oracle is the 1-d call on each row: bitwise-equal symbols, and
    # the same decisions on noisy, rotated rows.
    rng = np.random.default_rng(seed)
    k = int(np.log2(order))
    bits = rng.integers(0, 2, size=(n_rows, (n_symbols - 1) * k))
    symbols = dpsk_encode(bits, order)
    assert symbols.shape == (n_rows, n_symbols)
    for row_bits, row_symbols in zip(bits, symbols):
        one = dpsk_encode(row_bits, order)
        assert one.tobytes() == row_symbols.tobytes()
    shape = symbols.shape
    received = (symbols
                * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n_rows, 1)))
                + noise * (rng.normal(size=shape)
                           + 1j * rng.normal(size=shape)))
    decoded = dpsk_decode(received, order)
    assert decoded.dtype == np.int64
    assert decoded.shape == bits.shape
    for row, row_bits in zip(received, decoded):
        assert np.array_equal(dpsk_decode(row, order), row_bits)


def test_dpsk_row_block_validation():
    with pytest.raises(ValueError):
        dpsk_encode(np.zeros((2, 2, 2), dtype=int), order=2)
    with pytest.raises(ValueError):
        dpsk_decode(np.ones((2, 2, 2)), order=2)
    with pytest.raises(ValueError):
        dpsk_decode(np.ones((3, 0)), order=2)
    with pytest.raises(ValueError):
        dpsk_encode([[0, 1], [2, 0]], order=2)
    with pytest.raises(ValueError):
        dpsk_encode(np.zeros((2, 3), dtype=int), order=4)
    # Rows of no bits are reference-only streams, as for a 1-d input.
    symbols = dpsk_encode(np.zeros((3, 0), dtype=int), order=4)
    assert np.array_equal(symbols, np.ones((3, 1)))


# ---------------------------------------------------------------------------
# Radar/comm slot split
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(0, 63), halfway=st.booleans(),
       mu_free=st.floats(0.0, 100.0))
@example(n=10, k=2, halfway=True, mu_free=0.0)  # 25 % of 10 = 2.5 -> 3
@example(n=4, k=0, halfway=True, mu_free=0.0)   # 12.5 % of 4 = 0.5 -> 1
@example(n=64, k=63, halfway=True, mu_free=0.0)
def test_radar_masks_round_the_radar_share_half_up(n, k, halfway, mu_free):
    # mu = 50 (2k + 1) / n puts mu*n/100 on the half-way point k + 1/2,
    # exactly so whenever n is a power of two or divides 50 (2k + 1).
    mu = 50.0 * (2 * (k % n) + 1) / n if halfway else mu_free
    expected = min(math.floor(mu * n / 100.0 + 0.5), n)
    frames = pmcw_schedule(PmcwConfig(code_length=7, n_frames=n,
                                      chip_time=1e-9, carrier_hz=60e9,
                                      mu_percent=mu))
    pilots = ofdma_pilot_mask(OfdmaConfig(n_subcarriers=n, n_symbols=2,
                                          subcarrier_spacing_hz=1e6,
                                          carrier_hz=60e9, mu_percent=mu))
    for mask in (frames, pilots):
        assert mask.dtype == bool and mask.shape == (n,)
        assert mask.sum() == expected
    assert frames.tolist() == [True] * expected + [False] * (n - expected)


# ---------------------------------------------------------------------------
# Cyclic shifts
# ---------------------------------------------------------------------------


def cyclic_shift(seq, k):
    """P_k seq: the cyclic code delay of the PMCW unit response (a phase
    ramp on the code's spectrum), read off one frame and element with no
    Doppler at broadside; a 1 s chip makes the delay k chips.  Equal to the
    permutation up to rounding, so the checks below allow 1e-9."""
    config = PmcwConfig(code_length=len(seq), n_frames=1, chip_time=1.0,
                        carrier_hz=1.0)
    return _pmcw_response(config, np.fft.fft(seq), k, 0.0, 0.0,
                          np.arange(1))[0, :, 0]


def assert_same(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-9)


def test_cyclic_shift_zero_is_identity():
    x = np.arange(5)
    assert_same(cyclic_shift(x, 0), x)


def test_cyclic_shift_matches_explicit_matrix():
    # P_1 for L=4 written out by hand: row l picks element (l-1) mod 4.
    p1 = np.array([[0.0, 0.0, 0.0, 1.0],
                   [1.0, 0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0]])
    s = np.array([10.0, 20.0, 30.0, 40.0])
    assert_same(cyclic_shift(s, 1), p1 @ s)


def test_shift_then_complement_is_identity():
    rng = np.random.default_rng(21)
    x = rng.normal(size=12)
    for k in range(1, 12):
        assert_same(cyclic_shift(cyclic_shift(x, k), 12 - k), x)


@given(st.integers(2, 64), st.data())
def test_cyclic_shift_composed_l_times_is_identity(length, data):
    k = data.draw(st.integers(0, length - 1))
    x = np.arange(length)
    y = x
    for _ in range(length):
        y = cyclic_shift(y, k)
    assert_same(y, x)


@settings(deadline=None)
@given(st.just(1024))
def test_cyclic_shift_identity_at_max_length(length):
    x = np.arange(length)
    y = cyclic_shift(cyclic_shift(x, 1023), 1)
    assert_same(y, x)


# ---------------------------------------------------------------------------
# Array geometry
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(n_tx=0)
    with pytest.raises(ValueError, match="transmit array is not modelled"):
        ArrayGeometry(n_tx=2)
    with pytest.raises(ValueError):
        ArrayGeometry(n_rx=0)
    with pytest.raises(ValueError):
        ArrayGeometry(spacing_over_lambda=0.0)


def oracle_parabola(prev, mid, nxt):
    """Vertex offset of the parabola through three samples, 0 unless it is
    concave, clamped to half a bin."""
    denom = prev - 2.0 * mid + nxt
    if not denom < 0:
        return 0.0
    return float(np.clip(0.5 * (prev - nxt) / denom, -0.5, 0.5))


def matrix_scan(snapshots, n_rx, spacing, sign, angle_pad, interpolate):
    """The scan over an explicit steering matrix: one column
    exp(sign * 2 pi j * u * p) per signed spatial frequency u = b / na of
    the padded beam grid, each snapshot matched to every column.  Returns
    the signed beam, its matched power and the angle, per snapshot."""
    na = n_rx * angle_pad
    signed = [b - na if b >= (na + 1) // 2 else b for b in range(na)]
    columns = np.array([[np.exp(sign * 2j * np.pi * b / na * p)
                         for b in signed] for p in range(n_rx)])
    out = []
    for snapshot in snapshots:
        powers = np.abs(snapshot @ columns.conj()) ** 2
        k = int(np.argmax(powers))
        offset = oracle_parabola(powers[k - 1], powers[k],
                                 powers[(k + 1) % na]) \
            if interpolate and na >= 3 else 0.0
        sin_theta = (signed[k] + offset) / (na * spacing)
        out.append((signed[k], powers[k],
                    math.asin(min(max(sin_theta, -1.0), 1.0))))
    return out


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rx=st.integers(1, 6),
       angle_pad=st.integers(1, 3), sign=st.sampled_from([-1.0, 1.0]),
       spacing=st.floats(0.2, 1.0), interpolate=st.booleans())
def test_manifold_scan_matches_the_steering_matrix_scan(
        seed, n_rx, angle_pad, sign, spacing, interpolate):
    # The FFT scan is the ULA's fast path of the matrix scan: the same
    # beam, and the angle to 1e-12 (exactly without interpolation; an
    # interpolated offset divides power differences, so 1e-9).  The
    # returned steering is the manifold's at that angle, and on a beam
    # inside the visible region it matches the snapshot with the beam's
    # power.
    rng = np.random.default_rng(seed)
    snapshots = rng.standard_normal((4, n_rx)) \
        + 1j * rng.standard_normal((4, n_rx))
    manifold = _Manifold(n_rx, spacing, sign)
    beam, angle, steer = manifold.scan(snapshots, angle_pad, interpolate)
    want = matrix_scan(snapshots, n_rx, spacing, sign, angle_pad,
                       interpolate)
    assert beam.tolist() == [b for b, _, _ in want]
    np.testing.assert_allclose(angle, [a for _, _, a in want],
                               rtol=1e-9 if interpolate else 1e-12, atol=0)
    own = np.exp(sign * 2j * np.pi * spacing * np.outer(np.sin(angle),
                                                         np.arange(n_rx)))
    np.testing.assert_allclose(steer, own, rtol=1e-12, atol=1e-12)
    power = np.abs(np.sum(snapshots * steer.conj(), axis=1)) ** 2
    for (b, beam_power, _), matched in zip(want, power):
        if not interpolate and abs(b) <= n_rx * angle_pad * spacing:
            assert matched == pytest.approx(beam_power, rel=1e-12)


@pytest.mark.parametrize("spacing, angle, aliases", [
    (0.5, math.pi / 2, True),  # d sin = 1/2 reads as -1/2
    (0.5, -math.pi / 2, False),
    (0.5, 1.0, False),
    (1.0, 0.6, True),
    (1.0, -0.5, False),  # d sin = -0.479
    (0.25, math.pi / 2, False),
])
def test_manifold_aliases_outside_half_a_cycle(spacing, angle, aliases):
    assert _Manifold(4, spacing, -1.0).aliases(angle) is aliases
    assert _Manifold(4, spacing, +1.0).aliases(angle) is aliases
    assert _Manifold(1, spacing, -1.0).aliases(angle) is False


def test_dpsk_encode_returns_complex_array():
    symbols = dpsk_encode([0, 1], order=2)
    assert isinstance(symbols, np.ndarray)
    assert symbols.dtype == complex
    assert np.allclose(symbols, [1, 1, -1], atol=1e-12)
