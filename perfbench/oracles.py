"""Correctness checks and quality figures read back from jrcsim's output files.

Every check returns ``(name, ok, detail)``.  The sweep checks are acceptance
test a5's orderings applied to the sweep's own ``rmse_vs_snr.csv`` and
``ber_vs_snr.csv``; the AF checks compare the exported surface with the
autocorrelation and with the defining sum, evaluated here cell by cell.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# Relative slack for "no worse than" comparisons, as in acceptance test a5.
_ORDER_SLACK = 1e-12


def _read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def primary_axis(scenario: dict):
    """(coarse column, refined column, estimates stem, bin width) of a5.

    PMCW is judged on Doppler in bins of 1/(N_f T_b), OFDMA on delay in
    sample times.
    """
    if scenario["waveform"] == "pmcw":
        p = scenario["pmcw"]
        width = 1.0 / (p["n_frames"] * p["code_length"] * p["chip_time_s"])
        return "rmse_doppler_hz", "refined_rmse_doppler_hz", "doppler_hz", \
            width
    o = scenario["ofdma"]
    width = 1.0 / (o["n_subcarriers"] * o["subcarrier_spacing_hz"])
    return "rmse_delay_s", "refined_rmse_delay_s", "delay_s", width


def sweep_checks(out_dir, scenario: dict) -> list:
    """a5's orderings on one sweep's output tables."""
    coarse_col, refined_col, _, _ = primary_axis(scenario)
    points = {(float(r["mu_percent"]), float(r["snr_db"])): r
              for r in _read_rows(Path(out_dir) / "rmse_vs_snr.csv")}
    bers = {(float(r["mu_percent"]), float(r["snr_db"])): float(r["ber"])
            for r in _read_rows(Path(out_dir) / "ber_vs_snr.csv")}
    mus = sorted({mu for mu, _ in points})
    snrs = sorted({snr for _, snr in points})
    checks = []
    for mu in mus:
        series = [float(points[(mu, s)][coarse_col]) for s in snrs]
        ok = all(nxt <= prev * (1 + _ORDER_SLACK)
                 for prev, nxt in zip(series, series[1:]))
        checks.append((f"coarse RMSE non-increasing in SNR at mu={mu:g}",
                       ok, series))
    if len(mus) > 1:
        worse = [s for s in snrs
                 if float(points[(mus[-1], s)][coarse_col])
                 > float(points[(mus[0], s)][coarse_col])
                 * (1 + _ORDER_SLACK)]
        checks.append((f"mu={mus[-1]:g} coarse RMSE no worse than "
                       f"mu={mus[0]:g}", not worse, worse))
    gated, not_better = 0, []
    for key, ber in bers.items():
        if math.isnan(ber) or ber >= 0.1:
            continue
        gated += 1
        if not (float(points[key][refined_col])
                < float(points[key][coarse_col])):
            not_better.append(key)
    checks.append(("refined RMSE below coarse where BER < 0.1",
                   gated >= 4 and not not_better,
                   {"gated_points": gated, "not_better": not_better}))
    return checks


def sweep_quality(out_dir, scenario: dict) -> dict:
    """Refined RMSE in bins, BER, and the share of rows refinement helped."""
    _, _, stem, width = primary_axis(scenario)
    rows = _read_rows(Path(out_dir) / "estimates.csv")
    true = np.array([float(r[f"true_{stem}"]) for r in rows])
    coarse = np.array([float(r[f"est_{stem}"]) for r in rows])
    refined = np.array([float(r[f"refined_{stem}"]) for r in rows])
    ber_rows = _read_rows(Path(out_dir) / "ber_vs_snr.csv")
    bits = sum(int(r["n_bits"]) for r in ber_rows)
    errors = sum(int(r["n_bit_errors"]) for r in ber_rows)
    return {
        "refined_rmse_bins": (float(np.sqrt(np.mean((refined - true) ** 2)))
                              / width if rows else 0.0),
        "ber": errors / bits if bits else 0.0,
        "refine_useful_ratio": (float(np.mean(np.abs(refined - true)
                                              < np.abs(coarse - true)))
                                if rows else 0.0),
    }


def _direct_af_cell(x, lag: int, nu_over_fs: float, energy: float) -> float:
    """|sum_n x[n + lag] conj(x[n]) exp(j 2 pi nu n / fs)| / energy."""
    n = np.arange(max(0, -lag), min(x.size, x.size - lag))
    terms = x[n + lag] * np.conj(x[n]) * np.exp(2j * np.pi * nu_over_fs * n)
    return abs(terms.sum()) / energy


def af_checks(case_dir, samples, rate: float, aperiodic_autocorr,
              read_tensor) -> list:
    """The exported delay cut against the autocorrelation, and a few
    nonzero-Doppler surface cells against the defining sum."""
    x = np.asarray(samples, dtype=complex)
    energy = float(np.sum(np.abs(x) ** 2))
    cut = _read_rows(Path(case_dir) / "af_delay_cut.csv")
    lags = np.rint(np.array([float(r["delay_s"]) for r in cut])
                   * rate).astype(int)
    magnitude = np.array([float(r["magnitude"]) for r in cut])
    reference = np.abs(aperiodic_autocorr(x)[x.size - 1 + lags]) / energy
    cut_err = float(np.max(np.abs(magnitude - reference)))

    dopplers = np.array([float(r["doppler_hz"]) for r in _read_rows(
        Path(case_dir) / "af_doppler_cut.csv")])
    surface = read_tensor(Path(case_dir) / "af_surface.jrct").real
    shape_ok = surface.shape == (lags.size, dopplers.size)
    cell_err = math.inf
    if shape_ok:
        picks = [(i, j) for i in (0, lags.size // 3, lags.size // 2,
                                  lags.size - 1)
                 for j in (0, dopplers.size // 4, dopplers.size - 1)
                 if dopplers[j] != 0.0]
        cell_err = max(abs(surface[i, j] - _direct_af_cell(
            x, int(lags[i]), dopplers[j] / rate, energy)) for i, j in picks)
    return [
        ("AF delay cut equals |autocorrelation| / energy to 1e-12",
         cut_err <= 1e-12, cut_err),
        ("AF surface cells equal the direct sum to 1e-10",
         shape_ok and cell_err <= 1e-10, cell_err),
    ]


def hash_outputs(out_dir) -> dict:
    """SHA-256 of every CSV and tensor file below ``out_dir``."""
    root = Path(out_dir)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes())
            .hexdigest()
            for p in sorted(root.rglob("*"))
            if p.suffix in (".csv", ".jrct")}
