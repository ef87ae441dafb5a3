"""Compare delay-cut sidelobes of the two waveforms at equal band and time.

Draws random payloads for a spread-code waveform (m-sequence blocks with
differential data frames) and a multicarrier waveform (random QAM rows with
a pilot comb) of identical bandwidth and duration, computes the zero-Doppler
ambiguity cut inside the unambiguous delay window, and reports per-draw peak
sidelobe levels plus the medians.  One example cut per waveform is written
as CSV for plotting.

Usage:
    python3 scripts/af_comparison.py --draws 100 --out results/af
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from jrcsim.ofdma import (OfdmaConfig, build_symbol_grid, grid_capacity_bits,
                          ofdma_transmit)
from jrcsim.perf import ambiguity_function, peak_sidelobe_ratio, write_cut_csv
from jrcsim.pmcw import (PmcwConfig, payload_capacity_bits,
                         pmcw_frame_symbols, pmcw_schedule, pmcw_transmit)
from jrcsim.sigcore import ArrayGeometry, CodeSequence
from jrcsim.tensorio import format_float, write_table_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=100,
                        help="independent payload draws")
    parser.add_argument("--code-order", type=int, default=8,
                        help="m-sequence register length (code length 2^m-1)")
    parser.add_argument("--frames", type=int, default=4,
                        help="code repetitions / multicarrier symbols")
    parser.add_argument("--chip-s", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--out", default="results/af")
    args = parser.parse_args(argv)

    code = CodeSequence.mseq(args.code_order)
    length, frames, chip = code.length, args.frames, args.chip_s
    single = ArrayGeometry(n_tx=1, n_rx=1)

    pcfg = PmcwConfig(code_length=length, n_frames=frames, chip_time=chip,
                      carrier_hz=60e9, mu_percent=50, geometry=single)
    sched = pmcw_schedule(pcfg)
    n_bits_p = payload_capacity_bits(sched, order=2)

    ocfg = OfdmaConfig(n_subcarriers=length, n_symbols=frames,
                       subcarrier_spacing_hz=1 / (length * chip),
                       carrier_hz=60e9, cp_samples=0, mu_percent=50,
                       pilot_seed=3, geometry=single)
    n_bits_o = grid_capacity_bits(ocfg, order=4)

    lags = np.arange(-(length - 1), length) * chip
    zero = np.array([0.0])
    rows = []
    example = {}
    for draw in range(args.draws):
        rng = np.random.default_rng([args.seed, draw])
        symbols = pmcw_frame_symbols(sched, rng.integers(0, 2, n_bits_p),
                                     order=2)
        wave_p = pmcw_transmit(pcfg, code, symbols)[0].ravel()
        delays, cut_p = ambiguity_function(
            wave_p, lags, zero, sample_rate_hz=1 / chip).zero_doppler_cut()

        grid = build_symbol_grid(ocfg, rng.integers(0, 2, n_bits_o), order=4)
        wave_o = ofdma_transmit(ocfg, grid)[0].ravel()
        _, cut_o = ambiguity_function(
            wave_o, lags, zero, sample_rate_hz=1 / chip).zero_doppler_cut()

        rows.append([draw, peak_sidelobe_ratio(cut_p),
                     peak_sidelobe_ratio(cut_o)])
        if draw == 0:
            example = {"delays": delays, "code": cut_p, "multi": cut_o}

    table = np.array([[r[1], r[2]] for r in rows])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table_csv(out_dir / "psl_per_draw.csv",
                    ["draw", "psl_code_db", "psl_multicarrier_db"],
                    [[r[0], format_float(r[1]), format_float(r[2])]
                     for r in rows])
    write_cut_csv(out_dir / "delay_cut_code.csv", example["delays"],
                  example["code"], "delay_s")
    write_cut_csv(out_dir / "delay_cut_multicarrier.csv", example["delays"],
                  example["multi"], "delay_s")

    med = np.median(table, axis=0)
    print(f"{args.draws} draws, {length} chips x {frames} blocks vs "
          f"{length} subcarriers x {frames} symbols")
    print(f"  spread code : median PSL {med[0]:7.2f} dB "
          f"(min {table[:, 0].min():.2f}, max {table[:, 0].max():.2f})")
    print(f"  multicarrier: median PSL {med[1]:7.2f} dB "
          f"(min {table[:, 1].min():.2f}, max {table[:, 1].max():.2f})")
    print(f"wrote {out_dir}/psl_per_draw.csv and one example cut per waveform")
    return 0


if __name__ == "__main__":
    sys.exit(main())
