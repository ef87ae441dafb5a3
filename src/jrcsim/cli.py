"""Command-line front end: run, af, alloc, validate.

Output directory resolution, most specific wins: the --out-dir flag, then
the JRCSIM_OUT_DIR environment variable, then the config file's own
out_dir field (alloc/af default to the current directory when no config
is involved and neither override is set).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .alloc import np_allocate, read_allocation_csv, waterfill, \
    write_allocation_csv
from .config import ConfigError, config_hash, load_config
from .perf import ambiguity_function, default_af_grids, peak_sidelobe_ratio, \
    write_af_csv, write_af_tensor, write_cut_csv
from .runner import run_scenario, scenario_waveform_samples
from .tensorio import format_float


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrcsim",
        description="Joint radar-communications waveform simulations: "
                    "Monte-Carlo sweeps, ambiguity surfaces, subcarrier "
                    "power allocation.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario's Monte-Carlo sweep")
    run.add_argument("config", help="scenario JSON file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the master seed")
    run.add_argument("--trials", type=int, default=None,
                     help="override the per-point trial count")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool size (1 runs inline)")
    run.add_argument("--out-dir", default=None,
                     help="override the output directory")

    af = sub.add_parser("af", help="export the ambiguity surface and cuts")
    af.add_argument("config", help="scenario JSON file")
    af.add_argument("--max-lag", type=int, default=None,
                    help="largest delay lag in samples (default: full)")
    af.add_argument("--n-doppler", type=int, default=65,
                    help="number of Doppler grid points")
    af.add_argument("--out-dir", default=None,
                    help="override the output directory")

    alloc = sub.add_parser("alloc",
                           help="solve a subcarrier power allocation")
    alloc.add_argument("problem", help="CSV with rows k,g_k,h_k,n_k,t_k,P_k")
    alloc.add_argument("--total-power", type=float, required=True,
                       help="power budget P_T")
    alloc.add_argument("--false-alarm", type=float, default=0.01,
                       help="false-alarm cap alpha")
    alloc.add_argument("--method", choices=("np", "waterfill"),
                       default="np", help="solver to apply")
    alloc.add_argument("--out-dir", default=None,
                       help="directory for allocation.csv")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("config", help="scenario JSON file")
    return parser


def _resolve_out_dir(flag_value, config_value) -> Path:
    if flag_value is not None:
        return Path(flag_value)
    env = os.environ.get("JRCSIM_OUT_DIR")
    if env:
        return Path(env)
    return Path(config_value)


def _make_out_dir(out_dir: Path) -> bool:
    """Create ``out_dir``, or print why it cannot be and return False."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _complain_invalid(path, exc: ConfigError) -> None:
    print(f"error: invalid config {path}:", file=sys.stderr)
    for item in exc.errors:
        print(f"  {item}", file=sys.stderr)


def _load_or_complain(path):
    try:
        return load_config(path)
    except FileNotFoundError:
        print(f"error: no such config file: {path}", file=sys.stderr)
        return None
    except OSError as exc:
        print(f"error: cannot read config file {path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return None
    except ConfigError as exc:
        _complain_invalid(path, exc)
        return None


def _cmd_run(args) -> int:
    config = _load_or_complain(args.config)
    if config is None:
        return 2
    try:
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.trials is not None:
            config = replace(config, trials=args.trials)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = _resolve_out_dir(args.out_dir, config.out_dir)
    created = not out_dir.exists()
    if not _make_out_dir(out_dir):
        return 2
    try:
        report = run_scenario(config, out_dir=out_dir, workers=args.workers)
    except ConfigError as exc:  # a point that cannot be bound
        if created and not any(out_dir.iterdir()):
            out_dir.rmdir()
        _complain_invalid(args.config, exc)
        return 2
    print(f"run {report.config_hash} seed={report.seed} "
          f"waveform={report.waveform}")
    for r in report.points:
        snr = "scene" if r.snr_db is None else format_float(r.snr_db)
        print(f"  mu={format_float(r.mu_percent)} snr_db={snr} "
              f"trials={r.n_trials} failures={r.n_failures} "
              f"rmse_delay_s={format_float(r.rmse_delay_s)} "
              f"ber={format_float(r.ber)}")
    print(f"wrote {', '.join(report.outputs)} in {out_dir}")
    return 0


def _cmd_af(args) -> int:
    config = _load_or_complain(args.config)
    if config is None:
        return 2
    samples, rate = scenario_waveform_samples(config)
    try:
        delays, dopplers = default_af_grids(samples.size, rate,
                                            max_lag=args.max_lag,
                                            n_doppler=args.n_doppler)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = _resolve_out_dir(args.out_dir, config.out_dir)
    if not _make_out_dir(out_dir):
        return 2
    surface = ambiguity_function(samples, delays, dopplers, rate)
    write_af_csv(out_dir / "af_surface.csv", surface)
    write_af_tensor(out_dir / "af_surface.jrct", surface)
    lag_axis, delay_cut = surface.zero_doppler_cut()
    write_cut_csv(out_dir / "af_delay_cut.csv", lag_axis, delay_cut,
                  "delay_s")
    dop_axis, doppler_cut = surface.zero_delay_cut()
    write_cut_csv(out_dir / "af_doppler_cut.csv", dop_axis, doppler_cut,
                  "doppler_hz")
    try:
        psl = peak_sidelobe_ratio(delay_cut)
        print(f"delay-cut PSL: {format_float(psl)} dB")
    except ValueError as exc:
        print(f"delay-cut PSL: undefined ({exc})")
    print(f"wrote af_surface.csv, af_surface.jrct, af_delay_cut.csv, "
          f"af_doppler_cut.csv in {out_dir}")
    return 0


def _cmd_alloc(args) -> int:
    out_dir = _resolve_out_dir(args.out_dir, ".")
    try:
        problem, _ = read_allocation_csv(args.problem, args.total_power,
                                         args.false_alarm)
        result = (waterfill(problem.noise_powers / problem.radar_gains,
                            problem.total_power)
                  if args.method == "waterfill" else np_allocate(problem))
    except FileNotFoundError:
        print(f"error: no such problem file: {args.problem}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read problem file {args.problem}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.method == "waterfill":
        print(f"water level: {format_float(result.water_level)} "
              f"(kkt residual {format_float(result.kkt_residual)})")
    else:
        print(f"p_detect: {format_float(result.p_detect)} "
              f"feasible: {result.feasible}"
              + ("" if result.feasible
                 else f" (deficit {format_float(result.deficit)})"))
    if not _make_out_dir(out_dir):
        return 2
    write_allocation_csv(out_dir / "allocation.csv", problem, result)
    print(f"wrote allocation.csv in {out_dir}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_or_complain(args.config)
    if config is None:
        return 2
    print(f"valid: {args.config} hash={config_hash(config)}")
    return 0


_COMMANDS = {"run": _cmd_run, "af": _cmd_af, "alloc": _cmd_alloc,
             "validate": _cmd_validate}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
