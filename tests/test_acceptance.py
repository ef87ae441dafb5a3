"""Acceptance gates: the headline numerical guarantees, one test each.

Every test here pins a deliverable-level behavior end to end, with the
tolerance and the time budget stated inline: exact complementary-code
algebra, the range-resolution quantum, model-vs-oracle agreement on random
scenes, noiseless pipeline exactness, Monte-Carlo RMSE orderings over SNR,
waveform sidelobe comparison, the distortion-rate identity, allocation
optimality, and byte-level reproducibility.  Run with ``pytest -v`` to get
one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from jrcsim.alloc import (AllocationProblem, detection_probability,
                          np_allocate, waterfill)
from jrcsim.channel import SPEED_OF_LIGHT, Scatterer, Scene
from jrcsim.config import parse_config
from jrcsim.estim import (EstimatorConfig, TargetEstimate, golay_cef_waveform,
                          golay_range_estimate, ofdma_decode,
                          ofdma_estimate_amplitudes, ofdma_range_doppler_angle,
                          ofdma_refine, pmcw_decode, pmcw_range_doppler,
                          pmcw_refine)
from jrcsim.ofdma import (OfdmaConfig, SymbolGrid, build_symbol_grid,
                          grid_capacity_bits, ofdma_receive_cube,
                          ofdma_transmit)
from jrcsim.perf import (ambiguity_function, ber, dmse_eff, jrc_objective,
                         mmse_from_rate, peak_sidelobe_ratio, trace_log2,
                         TradeoffSpec)
from jrcsim.pmcw import (PmcwConfig, payload_capacity_bits, pmcw_frame_symbols,
                         pmcw_receive_cube, pmcw_schedule)
from jrcsim.runner import run_scenario
from jrcsim.sigcore import (ArrayGeometry, CodeSequence, aperiodic_autocorr,
                            golay_pair)
from jrcsim.tensorio import read_csv_rows

# No acceptance scenario may place a scatterer where the beam grid reads
# its angle as another one.
pytestmark = [
    pytest.mark.filterwarnings("error::jrcsim.sigcore.AngleAliasWarning"),
    pytest.mark.filterwarnings("error::jrcsim.ofdma.DelayAliasWarning")]


# ---------------------------------------------------------------------------
# Shared oracles and helpers
# ---------------------------------------------------------------------------


def pmcw_time_domain_oracle(scene, config, code, symbols):
    """Superpose each echo sample by sample at t = (m L + l) t_c."""
    m_count, l_count = config.n_frames, config.code_length
    n_rx = config.geometry.n_rx
    chips = code.chips()
    out = np.zeros((m_count, l_count, n_rx), dtype=complex)
    fading = scene.fading_gains(0)
    for q, sc in enumerate(scene.scatterers):
        k = int(round(sc.delay_s / config.chip_time))
        f = sc.resolve_doppler(config.wavelength)
        d = complex(sc.amplitude) * fading[q]
        step = -2 * np.pi * config.geometry.spacing_over_lambda \
            * np.sin(sc.angle_rad)
        for m in range(m_count):
            for ell in range(l_count):
                t = (m * l_count + ell) * config.chip_time
                echo = (d * symbols[m]
                        * np.exp(-2j * np.pi * f * t)
                        * chips[(ell - k) % l_count])
                for p in range(n_rx):
                    out[m, ell, p] += echo * np.exp(1j * step * p)
    return out


def ofdma_double_sum_oracle(scene, config, grid):
    """Accumulate the per-entry product formula one element at a time."""
    n_c, n_s = config.n_subcarriers, config.n_symbols
    n_rx = config.geometry.n_rx
    df = config.subcarrier_spacing_hz
    t_sym = config.symbol_duration
    out = np.zeros((n_c, n_s, n_rx), dtype=complex)
    fading = scene.fading_gains(0)
    for q, sc in enumerate(scene.scatterers):
        d = complex(sc.amplitude) * fading[q]
        f = sc.resolve_doppler(config.wavelength)
        u = config.geometry.spacing_over_lambda * np.sin(sc.angle_rad)
        for n in range(n_c):
            for m in range(n_s):
                for p in range(n_rx):
                    out[n, m, p] += (d * grid.symbols[n, m]
                                     * np.exp(-2j * np.pi * n * df * sc.delay_s)
                                     * np.exp(2j * np.pi * m * t_sym * f)
                                     * np.exp(2j * np.pi * u * p))
    return out


def rows_by_point(path, value_names):
    """Map (mu, snr) -> {name: float} from a sweep CSV."""
    header, rows = read_csv_rows(path)
    idx = {name: header.index(name) for name in value_names}
    out = {}
    for row in rows:
        key = (float(row[header.index("mu_percent")]),
               float(row[header.index("snr_db")]))
        out[key] = {name: float(row[i]) for name, i in idx.items()}
    return out


def read_all_bytes(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


CSV_NAMES = ("rmse_vs_snr.csv", "ber_vs_snr.csv", "estimates.csv")


# ---------------------------------------------------------------------------
# 1. Complementary pairs: exact identity at every length, exact CEF recovery
# ---------------------------------------------------------------------------


def test_a1_complementary_identity_and_cef_recovery():
    """Autocorrelation identity integer-exact for lengths 2..65536; a
    512-point training block recovers a noiseless 3-path channel exactly.
    Budget: 5 s."""
    t0 = time.monotonic()
    for m in range(1, 17):
        pair = golay_pair(m)
        n = 1 << m
        total = aperiodic_autocorr(pair.ga) + aperiodic_autocorr(pair.gb)
        ideal = np.zeros(2 * n - 1)
        ideal[n - 1] = 2 * n
        assert np.array_equal(total, ideal), f"identity broken at length {n}"

    pair = golay_pair(9)
    guard = 64
    cef = golay_cef_waveform(pair, guard)
    impulse = np.zeros(guard + 1, dtype=complex)
    impulse[0], impulse[13], impulse[37] = 1.0, -0.625, 0.25j
    rx = np.convolve(cef, impulse)[: cef.size + guard]
    profile = golay_range_estimate(rx, pair, guard)
    assert np.array_equal(profile, 2 * 512 * impulse), \
        "3-path channel estimate is not exact"

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"[acceptance] 1: identity exact for 16 lengths, 3-path CEF exact, "
          f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Range resolution quantum at 4 GHz: one bin resolves, 0.8 bin does not
# ---------------------------------------------------------------------------


def test_a2_range_resolution_quantum():
    """With 4 GHz of bandwidth the range quantum is c/(2W) = 3.75 cm.  Two
    targets a full quantum apart occupy exactly two map cells and their
    amplitudes re-fit exactly; at 0.8 quantum the energy smears and no
    on-grid two-target model explains the cube.  Budget: 10 s."""
    t0 = time.monotonic()
    cfg = OfdmaConfig(n_subcarriers=64, n_symbols=8,
                      subcarrier_spacing_hz=62.5e6, carrier_hz=76e9,
                      cp_samples=40, mu_percent=100, pilot_seed=1,
                      geometry=ArrayGeometry(n_tx=1, n_rx=1))
    bandwidth = cfg.n_subcarriers * cfg.subcarrier_spacing_hz
    t_s = 1 / bandwidth
    quantum_m = SPEED_OF_LIGHT * t_s / 2
    assert bandwidth == 4e9
    assert quantum_m == pytest.approx(SPEED_OF_LIGHT / (2 * 4e9), rel=1e-15)
    assert quantum_m == pytest.approx(0.0375, rel=1e-12)

    grid = build_symbol_grid(cfg, np.zeros(0, dtype=int), order=4)
    est = EstimatorConfig(max_targets=2, threshold_db=-40.0)
    amps = (1.0 + 0.0j, 0.6 - 0.5j)

    def run_pair(sep_bins):
        scene = Scene(scatterers=(
            Scatterer(delay_s=10 * t_s, doppler_hz=0.0, angle_rad=0.0,
                      amplitude=amps[0]),
            Scatterer(delay_s=(10 + sep_bins) * t_s, doppler_hz=0.0,
                      angle_rad=0.0, amplitude=amps[1])),
            noise_variance=0.0)
        cube = ofdma_receive_cube(scene, cfg, grid)
        result = ofdma_range_doppler_angle(cube, grid, est)
        hot = np.argwhere(result.power
                          >= result.power.max() * 10.0 ** (-30 / 10))
        bin_targets = [TargetEstimate(delay_s=b * t_s, doppler_hz=0.0,
                                      angle_rad=0.0, amplitude=0j,
                                      delay_bin=b, doppler_bin=0, angle_bin=0,
                                      power=0.0) for b in (10, 11)]
        fitted = ofdma_estimate_amplitudes(cube, grid, bin_targets)
        recon = ofdma_receive_cube(Scene(scatterers=tuple(
            Scatterer(delay_s=b * t_s, doppler_hz=0.0, angle_rad=0.0,
                      amplitude=complex(a))
            for b, a in zip((10, 11), fitted)), noise_variance=0.0), cfg, grid)
        residual = (np.linalg.norm(cube.data - recon.data)
                    / np.linalg.norm(cube.data))
        return result, hot, fitted, residual

    result, hot, fitted, residual = run_pair(1.0)
    assert sorted(map(tuple, hot.tolist())) == [(10, 0), (11, 0)]
    assert abs(fitted[0] - amps[0]) <= 1e-10
    assert abs(fitted[1] - amps[1]) <= 1e-10
    assert residual <= 1e-10
    assert result.targets[0].delay_bin in (10, 11)

    result, hot, fitted, residual = run_pair(0.8)
    assert len(hot) > 2, "smeared case unexpectedly confined to two cells"
    assert abs(fitted[0] - amps[0]) > 0.05
    assert abs(fitted[1] - amps[1]) > 0.05
    assert residual > 0.05
    assert result.targets[0].delay_bin in (10, 11)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"[acceptance] 2: 3.75 cm separates (residual 1e-16 class), "
          f"0.8x does not (residual {residual:.3f}), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Receive-model equivalence against scalar oracles on random scenes
# ---------------------------------------------------------------------------


def test_a3_model_equivalence_on_random_scenes():
    """Vectorized cube builders match sample-by-sample reference sums to
    1e-10 on 100 random scenes per waveform (up to 3 scatterers, dimensions
    up to 64).  Budget: 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260816)
    worst_pmcw = worst_ofdma = 0.0
    for i in range(100):
        length = int(rng.integers(8, 65))
        frames = int(rng.integers(2, 9))
        n_rx = int(rng.integers(1, 5))
        n_scat = int(rng.integers(1, 4))

        cfg = PmcwConfig(code_length=length, n_frames=frames, chip_time=1e-9,
                         carrier_hz=60e9, mu_percent=50,
                         geometry=ArrayGeometry(n_tx=1, n_rx=n_rx))
        code = CodeSequence.random_binary(length,
                                          seed=int(rng.integers(2 ** 31)),
                                          chip_duration=1e-9)
        symbols = np.exp(2j * np.pi * rng.random(frames))
        scene = Scene(scatterers=tuple(
            Scatterer(delay_s=int(rng.integers(0, length)) * 1e-9,
                      doppler_hz=float(rng.uniform(-0.4, 0.4) / (length * 1e-9)),
                      angle_rad=float(rng.uniform(-1.0, 1.0)),
                      amplitude=complex(rng.normal(), rng.normal()))
            for _ in range(n_scat)), noise_variance=0.0)
        cube = pmcw_receive_cube(scene, cfg, code, symbols)
        diff = np.abs(cube.data
                      - pmcw_time_domain_oracle(scene, cfg, code, symbols))
        worst_pmcw = max(worst_pmcw, float(diff.max()))

        n_sub = int(rng.integers(8, 65))
        n_sym = int(rng.integers(2, 9))
        ocfg = OfdmaConfig(n_subcarriers=n_sub, n_symbols=n_sym,
                           subcarrier_spacing_hz=62.5e6, carrier_hz=60e9,
                           cp_samples=n_sub // 2, mu_percent=50, pilot_seed=i,
                           geometry=ArrayGeometry(n_tx=1, n_rx=n_rx))
        grid = SymbolGrid(symbols=np.exp(2j * np.pi
                                         * rng.random((n_sub, n_sym))),
                          radar_rows=rng.random(n_sub) < 0.5, order=4)
        t_s = 1 / (n_sub * 62.5e6)
        span = (n_sub + n_sub // 2) * t_s
        oscene = Scene(scatterers=tuple(
            Scatterer(delay_s=float(rng.uniform(0, (n_sub // 2) * t_s * 0.9)),
                      doppler_hz=float(rng.uniform(-0.4, 0.4) / span),
                      angle_rad=float(rng.uniform(-1.0, 1.0)),
                      amplitude=complex(rng.normal(), rng.normal()))
            for _ in range(n_scat)), noise_variance=0.0)
        ocube = ofdma_receive_cube(oscene, ocfg, grid)
        odiff = np.abs(ocube.data - ofdma_double_sum_oracle(oscene, ocfg, grid))
        worst_ofdma = max(worst_ofdma, float(odiff.max()))

    assert worst_pmcw <= 1e-10
    assert worst_ofdma <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"[acceptance] 3: 100+100 scenes, worst |diff| "
          f"{worst_pmcw:.2e} / {worst_ofdma:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Noiseless end to end: exact bins and zero BER at half data load
# ---------------------------------------------------------------------------


def test_a4_noiseless_end_to_end_exactness():
    """One on-grid target, 50% data frames, no noise: every coarse bin
    lands exactly, the payload decodes without error, and refinement with
    the decoded symbols reproduces the truth.  Budget: 10 s."""
    t0 = time.monotonic()

    code = CodeSequence.mseq(5)
    pcfg = PmcwConfig(code_length=31, n_frames=8, chip_time=1e-9,
                      carrier_hz=60e9, mu_percent=50,
                      geometry=ArrayGeometry(n_tx=1, n_rx=4))
    sched = pmcw_schedule(pcfg)
    block = pcfg.code_length * pcfg.chip_time
    truth = dict(delay_s=7e-9, doppler_hz=1 / (4 * block),
                 angle_rad=float(np.arcsin(0.5)))
    scene = Scene(scatterers=(Scatterer(amplitude=0.8 - 0.3j, **truth),),
                  noise_variance=0.0)
    bits = np.random.default_rng(5).integers(
        0, 2, payload_capacity_bits(sched, order=2))
    symbols = pmcw_frame_symbols(sched, bits, order=2)
    cube = pmcw_receive_cube(scene, pcfg, code, symbols)

    coarse = pmcw_range_doppler(cube, code)
    top = coarse.targets[0]
    assert top.delay_bin == 7
    assert top.doppler_bin == 1
    assert top.angle_bin == 1
    assert top.doppler_hz == pytest.approx(truth["doppler_hz"], rel=1e-12)
    assert top.angle_rad == pytest.approx(truth["angle_rad"], rel=1e-12)
    decoded, _, full_symbols = pmcw_decode(cube, code, coarse.targets, order=2)
    assert ber(decoded, bits) == 0.0
    refined = pmcw_refine(cube, code, full_symbols,
                          EstimatorConfig().refined(8))
    rt = refined.targets[0]
    assert rt.delay_s == pytest.approx(7e-9, rel=1e-9)
    assert rt.doppler_hz == pytest.approx(truth["doppler_hz"], rel=1e-12)
    assert rt.angle_rad == pytest.approx(truth["angle_rad"], rel=1e-12)

    ocfg = OfdmaConfig(n_subcarriers=32, n_symbols=8,
                       subcarrier_spacing_hz=62.5e6, carrier_hz=60e9,
                       cp_samples=8, mu_percent=50, pilot_seed=1,
                       geometry=ArrayGeometry(n_tx=1, n_rx=4))
    t_s = 1 / (32 * 62.5e6)
    t_sym = ocfg.symbol_duration
    otruth = dict(delay_s=6 * t_s, doppler_hz=2 / (8 * t_sym),
                  angle_rad=float(np.arcsin(-0.5)))
    oscene = Scene(scatterers=(Scatterer(amplitude=0.9 + 0.2j, **otruth),),
                   noise_variance=0.0)
    obits = np.random.default_rng(6).integers(
        0, 2, grid_capacity_bits(ocfg, order=4))
    grid = build_symbol_grid(ocfg, obits, order=4)
    ocube = ofdma_receive_cube(oscene, ocfg, grid)

    ocoarse = ofdma_range_doppler_angle(ocube, grid)
    otop = ocoarse.targets[0]
    assert otop.delay_bin == 6
    assert otop.doppler_bin == 2
    assert otop.angle_bin == -1
    assert otop.delay_s == pytest.approx(6 * t_s, rel=1e-12)
    assert otop.doppler_hz == pytest.approx(otruth["doppler_hz"], rel=1e-12)
    odecoded, _, ofull = ofdma_decode(ocube, grid, ocoarse.targets)
    assert ber(odecoded, obits) == 0.0
    orefined = ofdma_refine(ocube, ofull, EstimatorConfig().refined(8))
    ot = orefined.targets[0]
    assert ot.delay_s == pytest.approx(6 * t_s, rel=1e-9)
    assert ot.doppler_hz == pytest.approx(otruth["doppler_hz"], rel=1e-12)
    assert ot.angle_rad == pytest.approx(otruth["angle_rad"], rel=1e-12)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"[acceptance] 4: exact bins + zero BER both waveforms, "
          f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. Monte-Carlo RMSE orderings over SNR (500 trials per point)
# ---------------------------------------------------------------------------


def test_a5_rmse_trends_over_snr():
    """Across SNR 0..20 dB with 500 trials per point: (a) coarse RMSE never
    increases with SNR, (b) the all-known-frames run is never worse than the
    pilot-only run, (c) wherever the decoded payload is reliable (BER < 0.1)
    refinement strictly reduces RMSE.  Budget: 10 min."""
    t0 = time.monotonic()
    snrs = [0, 5, 10, 15, 20]
    rmse_cols = ("rmse_delay_s", "rmse_doppler_hz",
                 "refined_rmse_delay_s", "refined_rmse_doppler_hz",
                 "n_failures")

    def sweep(config_dict):
        config = parse_config(config_dict)
        import tempfile
        with tempfile.TemporaryDirectory() as out:
            run_scenario(config, out_dir=out)
            from pathlib import Path
            points = rows_by_point(Path(out) / "rmse_vs_snr.csv", rmse_cols)
            bers = rows_by_point(Path(out) / "ber_vs_snr.csv", ("ber",))
        return points, bers

    block = 16 * 32e-9
    pmcw_points, pmcw_bers = sweep({
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 32, "n_frames": 16, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9, "geometry": {"n_rx": 4}},
        "code_kind": "random",
        "scene": {"scatterers": [{"delay_s": 9e-9,
                                  "doppler_hz": 2.7 / block,
                                  "angle_rad": 0.3,
                                  "amplitude": [1.0, 0.0]}]},
        "sweep": {"mu_percent": [50, 100], "snr_db": snrs},
        "trials": 500,
        "seed": 7,
    })

    t_s = 1 / (32 * 62.5e6)
    ofdma_points, ofdma_bers = sweep({
        "version": 1,
        "waveform": "ofdma",
        "ofdma": {"n_subcarriers": 32, "n_symbols": 16,
                  "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9,
                  "cp_samples": 16, "geometry": {"n_rx": 4}},
        "scene": {"scatterers": [{"delay_s": 5.7 * t_s,
                                  "doppler_hz": 0.0,
                                  "angle_rad": -0.2,
                                  "amplitude": [1.0, 0.0]}]},
        "sweep": {"mu_percent": [50, 100], "snr_db": snrs},
        "trials": 500,
        "seed": 7,
    })

    checked = []
    for label, points, bers, coarse_col, refined_col in (
            ("pmcw", pmcw_points, pmcw_bers,
             "rmse_doppler_hz", "refined_rmse_doppler_hz"),
            ("ofdma", ofdma_points, ofdma_bers,
             "rmse_delay_s", "refined_rmse_delay_s")):
        for mu in (50.0, 100.0):
            series = [points[(mu, float(s))][coarse_col] for s in snrs]
            assert all(points[(mu, float(s))]["n_failures"] == 0
                       for s in snrs), f"{label} mu={mu} had failed trials"
            for lo, hi in zip(series[1:], series):
                assert lo <= hi * (1 + 1e-12), \
                    f"{label} mu={mu} coarse RMSE increased with SNR: {series}"
        for s in snrs:
            assert (points[(100.0, float(s))][coarse_col]
                    <= points[(50.0, float(s))][coarse_col] * (1 + 1e-12)), \
                f"{label} all-known frames worse than pilot-only at {s} dB"
        gated = 0
        for mu in (50.0, 100.0):
            for s in snrs:
                bit_error = bers[(mu, float(s))]["ber"]
                if math.isnan(bit_error) or bit_error >= 0.1:
                    continue
                gated += 1
                point = points[(mu, float(s))]
                assert point[refined_col] < point[coarse_col], \
                    f"{label} refinement did not help at mu={mu} snr={s}"
        assert gated >= 4, f"{label} BER gate left too few points to check"
        checked.append((label, gated))

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"[acceptance] 5: orderings hold, refined beats coarse on "
          f"{checked}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Delay-cut sidelobes: code-domain waveform beats multicarrier waveform
# ---------------------------------------------------------------------------


def test_a6_sidelobe_comparison_and_reference_points():
    """At equal bandwidth and duration (255 chips x 4 blocks vs 255
    subcarriers x 4 symbols), the median delay-cut peak sidelobe over 100
    random payloads is lower for the spread-code waveform inside the
    unambiguous window.  The cut peaks at exactly 1 at the origin, and the
    13-chip Barker reference lands on -22.3 dB.  Budget: 2 min."""
    t0 = time.monotonic()
    code = CodeSequence.mseq(8)
    length, frames = code.length, 4
    chip = 1e-9

    pcfg = PmcwConfig(code_length=length, n_frames=frames, chip_time=chip,
                      carrier_hz=60e9, mu_percent=50,
                      geometry=ArrayGeometry(n_tx=1, n_rx=1))
    sched = pmcw_schedule(pcfg)
    n_bits_p = payload_capacity_bits(sched, order=2)

    ocfg = OfdmaConfig(n_subcarriers=length, n_symbols=frames,
                       subcarrier_spacing_hz=1 / (length * chip),
                       carrier_hz=60e9, cp_samples=0, mu_percent=50,
                       pilot_seed=3, geometry=ArrayGeometry(n_tx=1, n_rx=1))
    n_bits_o = grid_capacity_bits(ocfg, order=4)

    lags = np.arange(-(length - 1), length) * chip
    zero_doppler = np.array([0.0])
    psl_code, psl_multi = [], []
    for draw in range(100):
        rng = np.random.default_rng([20260816, draw])
        symbols = pmcw_frame_symbols(sched, rng.integers(0, 2, n_bits_p),
                                     order=2)
        wave_p = (symbols[:, None] * code.chips()[None, :]).ravel()
        surf = ambiguity_function(wave_p, lags, zero_doppler,
                                  sample_rate_hz=1 / chip)
        _, cut = surf.zero_doppler_cut()
        assert abs(cut[length - 1] - 1.0) <= 1e-12
        assert cut.max() <= 1.0 + 1e-12
        psl_code.append(peak_sidelobe_ratio(cut))

        grid = build_symbol_grid(ocfg, rng.integers(0, 2, n_bits_o), order=4)
        wave_o = ofdma_transmit(ocfg, grid)[0].ravel()
        assert wave_o.size == wave_p.size
        osurf = ambiguity_function(wave_o, lags, zero_doppler,
                                   sample_rate_hz=1 / chip)
        _, ocut = osurf.zero_doppler_cut()
        assert abs(ocut[length - 1] - 1.0) <= 1e-12
        psl_multi.append(peak_sidelobe_ratio(ocut))

    median_code = float(np.median(psl_code))
    median_multi = float(np.median(psl_multi))
    assert median_code < median_multi, \
        f"expected lower sidelobes from the spread code: " \
        f"{median_code:.2f} vs {median_multi:.2f} dB"
    assert median_code < -20.0
    assert median_multi > -30.0

    barker = np.array([1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1], dtype=float)
    blags = np.arange(-12, 13) * chip
    _, bcut = ambiguity_function(barker, blags, zero_doppler,
                                 sample_rate_hz=1 / chip).zero_doppler_cut()
    psl_barker = peak_sidelobe_ratio(bcut)
    assert psl_barker == pytest.approx(-22.3, abs=0.1)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"[acceptance] 6: median PSL {median_code:.2f} dB < "
          f"{median_multi:.2f} dB, Barker {psl_barker:.2f} dB, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Distortion-rate identity and affine radar/comm objective
# ---------------------------------------------------------------------------


def test_a7_distortion_identity_and_affine_objective():
    """(1/N) Tr log2 of the exponent-damped error matrix equals -delta*rate
    to 1e-12 on 1000 random triples, and the scalarized objective is affine
    in the blend weight to 1e-12."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        rate = float(rng.uniform(0.0, 12.0))
        delta = float(rng.uniform(0.01, 1.0))
        n = int(rng.integers(1, 65))
        damped = dmse_eff(mmse_from_rate(rate, n), delta)
        residual = abs(trace_log2(damped) / n + delta * rate)
        worst = max(worst, residual)
    assert worst <= 1e-12

    worst_affine = 0.0
    for _ in range(100):
        rate = float(rng.uniform(0.5, 8.0))
        delta = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(1, 17))
        n_targets = int(rng.integers(1, 5))
        basis, _ = np.linalg.qr(rng.normal(size=(n_targets, n_targets)))
        crlb = basis @ np.diag(rng.uniform(0.1, 10.0, n_targets)) @ basis.T
        crlb = (crlb + crlb.T) / 2
        base = dict(rate=rate, delta=delta, code_length=n,
                    mmse=mmse_from_rate(rate, n), crlb=crlb,
                    n_targets=n_targets)
        at = {w: jrc_objective(TradeoffSpec(weight=w, **base))
              for w in (0.0, 0.25, 0.5, 0.75, 1.0)}
        for w in (0.25, 0.5, 0.75):
            blended = w * at[1.0] + (1 - w) * at[0.0]
            worst_affine = max(worst_affine, abs(at[w] - blended))
    assert worst_affine <= 1e-12
    print(f"[acceptance] 7: identity residual {worst:.2e}, affine residual "
          f"{worst_affine:.2e}")


# ---------------------------------------------------------------------------
# 8. Power allocation: KKT-optimal water-filling and floor-feasibility logic
# ---------------------------------------------------------------------------


def test_a8_allocation_optimality_and_feasibility():
    """Water-filling satisfies the budget and complementary slackness to
    1e-9 on 1000 random problems; the two-channel textbook case allocates
    [3, 1]; the floor-allocation feasibility boundary is exact; detection
    probability grows with both the budget and the false-alarm level.
    Budget: 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(414)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        levels = 10.0 ** rng.uniform(-3, 3, n)
        total = float(10.0 ** rng.uniform(-3, 3))
        result = waterfill(levels, total)
        powers, mu = result.powers, result.water_level
        scale = max(1.0, total, float(levels.max()))
        assert abs(powers.sum() - total) <= 1e-9 * scale
        assert result.kkt_residual <= 1e-9
        for level, power in zip(levels, powers):
            assert power >= 0
            if power > 0:
                assert abs(mu - level - power) <= 1e-9 * scale
            else:
                assert mu <= level + 1e-9 * scale

    two = waterfill(np.array([1.0, 3.0]), 4.0)
    assert np.array_equal(two.powers, [3.0, 1.0])
    assert two.water_level == pytest.approx(4.0, abs=1e-12)

    for _ in range(50):
        n = int(rng.integers(1, 17))
        problem_args = dict(
            radar_gains=10.0 ** rng.uniform(-1, 1, n),
            comm_gains=10.0 ** rng.uniform(-1, 1, n),
            noise_powers=10.0 ** rng.uniform(-1, 1, n),
            rate_floors=rng.uniform(0.0, 3.0, n))
        floor_power = AllocationProblem(
            **problem_args, total_power=1.0).min_powers().sum()
        exact = np_allocate(AllocationProblem(
            **problem_args, total_power=float(floor_power)))
        assert exact.feasible
        assert exact.deficit == 0.0
        short = np_allocate(AllocationProblem(
            **problem_args, total_power=float(floor_power) * (1 - 1e-6)))
        assert not short.feasible
        assert short.deficit > 0.0

    # Budgets kept moderate so the detection probability stays strictly
    # below saturation (sf() returns exactly 1.0 past ~8 sigma).
    base = dict(radar_gains=np.array([0.5, 1.0, 2.0]),
                comm_gains=np.array([1.0, 1.0, 1.0]),
                noise_powers=np.array([1.0, 0.5, 1.0]),
                rate_floors=np.array([1.0, 0.5, 0.0]))
    budgets = np.linspace(1.5, 6.0, 10)
    detect_curve = [np_allocate(AllocationProblem(**base,
                                                  total_power=float(b),
                                                  false_alarm=0.01)).p_detect
                    for b in budgets]
    assert all(b > a for a, b in zip(detect_curve, detect_curve[1:]))
    alphas = [0.001, 0.01, 0.05, 0.1, 0.2]
    alpha_curve = [np_allocate(AllocationProblem(**base, total_power=8.0,
                                                 false_alarm=a)).p_detect
                   for a in alphas]
    assert all(b > a for a, b in zip(alpha_curve, alpha_curve[1:]))
    assert detection_probability(0.0, 0.05) == pytest.approx(0.05, abs=1e-12)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"[acceptance] 8: 1000 KKT checks, exact boundary, monotone "
          f"detection, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Reproducibility: same seed and any worker count give identical bytes
# ---------------------------------------------------------------------------


def test_a9_byte_identical_reproducibility(tmp_path):
    """Re-running a noisy sweep with the same seed, and distributing it over
    8 workers, both produce byte-identical CSV outputs."""
    config = parse_config({
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9, "geometry": {"n_rx": 2}},
        "scene": {"scatterers": [
            {"delay_s": 5e-9, "doppler_hz": 1e6, "angle_rad": 0.2,
             "amplitude": [1.0, 0.0]},
            {"delay_s": 12e-9, "doppler_hz": -2e6, "angle_rad": -0.4,
             "amplitude": [0.0, 0.6]}]},
        "estimator": {"interpolate": True},
        "sweep": {"mu_percent": [50, 100], "snr_db": [0, 10]},
        "trials": 12,
        "seed": 31,
    })
    dirs = [tmp_path / name for name in ("first", "second", "wide")]
    run_scenario(config, out_dir=dirs[0])
    run_scenario(config, out_dir=dirs[1])
    run_scenario(config, out_dir=dirs[2], workers=8)

    first = read_all_bytes(dirs[0], CSV_NAMES)
    assert read_all_bytes(dirs[1], CSV_NAMES) == first, \
        "same seed produced different bytes"
    assert read_all_bytes(dirs[2], CSV_NAMES) == first, \
        "worker count changed the outputs"
    print("[acceptance] 9: byte-identical across reruns and 8 workers")
