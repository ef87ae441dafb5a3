"""Scenario file parsing, validation, and canonical serialization."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim import config as config_module
from jrcsim.config import (ConfigError, GolayRunConfig, ScenarioConfig,
                           canonical_dict, canonical_json, config_hash,
                           load_config, parse_config, save_config)
from jrcsim.ofdma import IsiWarning

PINNED = Path(__file__).with_name("pinned_scenarios.json")


def base_pmcw():
    return {
        "version": 1,
        "waveform": "pmcw",
        "pmcw": {"code_length": 31, "n_frames": 8, "chip_time_s": 1e-9,
                 "carrier_hz": 60e9},
    }


def base_ofdma():
    return {
        "version": 1,
        "waveform": "ofdma",
        "ofdma": {"n_subcarriers": 16, "n_symbols": 4,
                  "subcarrier_spacing_hz": 62.5e6, "carrier_hz": 60e9},
    }


def base_golay():
    return {
        "version": 1,
        "waveform": "golay",
        "golay": {"log2_length": 9, "guard_samples": 128,
                  "sample_time_s": 2.5e-10},
    }


def errors_of(data):
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    return info.value.errors


# ---------------------------------------------------------------------------
# Happy paths and defaults
# ---------------------------------------------------------------------------


def test_minimal_pmcw_defaults():
    cfg = parse_config(base_pmcw())
    assert cfg.waveform == "pmcw"
    assert cfg.pmcw.code_length == 31
    assert cfg.pmcw.mu_percent == 50.0
    assert cfg.pmcw.geometry.n_rx == 1
    assert cfg.symbol_order == 2
    assert cfg.code_kind == "mseq"
    assert cfg.refine_factor == 8
    assert cfg.false_alarm == 0.01
    assert cfg.trials == 1
    assert cfg.seed == 0
    assert cfg.out_dir == "results"
    assert cfg.snr_db == (None,)
    assert cfg.mu_sweep == ()
    assert cfg.weights == ()
    assert cfg.estimator.range_pad == 1
    assert cfg.waveform_config is cfg.pmcw


def test_minimal_ofdma_defaults():
    cfg = parse_config(base_ofdma())
    assert cfg.symbol_order == 4
    assert cfg.ofdma.cp_samples == 0
    assert cfg.ofdma.pilot_seed == 0
    assert cfg.waveform_config is cfg.ofdma


def test_golay_waveform():
    cfg = parse_config(base_golay())
    assert cfg.golay == GolayRunConfig(log2_length=9, guard_samples=128,
                                       sample_time_s=2.5e-10)


def test_full_sections_echo():
    data = base_pmcw()
    data["pmcw"]["mu_percent"] = 75
    data["pmcw"]["geometry"] = {"n_tx": 1, "n_rx": 8,
                                "spacing_over_lambda": 0.25}
    data["scene"] = {
        "scatterers": [
            {"delay_s": 5e-9, "doppler_hz": 1e4, "angle_rad": 0.2,
             "amplitude": [1.0, -0.5]},
            {"delay_s": 8e-9, "velocity_mps": 12.0, "rcs_m2": 3.0,
             "fading": "swerling12"},
        ],
        "noise_variance": 0.1,
        "seed": 7,
    }
    data["estimator"] = {"range_pad": 2, "doppler_pad": 4, "angle_pad": 8,
                         "threshold_db": -20.0, "max_targets": 3,
                         "interpolate": True}
    data["sweep"] = {"snr_db": [None, 0, 10.5], "mu_percent": [25, 50],
                     "weights": [0.0, 0.5, 1.0]}
    data["trials"] = 200
    data["seed"] = 42
    data["out_dir"] = "exp1"
    cfg = parse_config(data)
    assert cfg.pmcw.mu_percent == 75.0
    assert cfg.pmcw.geometry.n_rx == 8
    sc0, sc1 = cfg.scene.scatterers
    assert sc0.amplitude == complex(1.0, -0.5)
    assert sc0.doppler_hz == 1e4
    assert sc1.velocity_mps == 12.0
    assert sc1.fading == "swerling12"
    assert cfg.scene.noise_variance == 0.1
    assert cfg.scene.seed == 7
    assert cfg.estimator.max_targets == 3
    assert cfg.estimator.interpolate is True
    assert cfg.snr_db == (None, 0.0, 10.5)
    assert cfg.mu_sweep == (25.0, 50.0)
    assert cfg.weights == (0.0, 0.5, 1.0)
    assert cfg.trials == 200


def test_scalar_amplitude_becomes_complex():
    data = base_pmcw()
    data["scene"] = {"scatterers": [{"delay_s": 1e-9, "amplitude": 2.0}]}
    cfg = parse_config(data)
    assert cfg.scene.scatterers[0].amplitude == complex(2.0, 0.0)


def test_random_code_kind_allows_any_length():
    data = base_pmcw()
    data["pmcw"]["code_length"] = 32
    data["code_kind"] = "random"
    assert parse_config(data).pmcw.code_length == 32


# ---------------------------------------------------------------------------
# Validation: everything reported in one pass
# ---------------------------------------------------------------------------


def test_multiple_errors_collected():
    data = base_pmcw()
    data["version"] = 2
    data["pmcw"]["chip_time_s"] = "fast"
    data["pmcw"]["n_frames"] = 3.5
    data["bogus"] = 1
    errs = errors_of(data)
    assert any("$.version: expected 1, got 2" in e for e in errs)
    assert any("$.pmcw.chip_time_s: expected a number" in e for e in errs)
    assert any("$.pmcw.n_frames: expected an integer" in e for e in errs)
    assert any("$.bogus: unknown field" in e for e in errs)
    assert len(errs) >= 4


def test_config_error_joins_messages():
    data = base_pmcw()
    data["bogus"] = 1
    data["extra"] = 2
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert "; " in str(info.value)


def test_unknown_fields_reported_at_every_level():
    data = base_pmcw()
    data["pmcw"]["cp_fraction"] = 0.25
    data["pmcw"]["geometry"] = {"n_rx": 2, "n_elements": 4}
    data["scene"] = {"scatterers": [{"delay_s": 1e-9, "range_m": 3.0}],
                     "noise": 0.1}
    data["estimator"] = {"pad": 2}
    data["sweep"] = {"snrs": [0]}
    errs = errors_of(data)
    assert "$.pmcw.cp_fraction: unknown field" in errs
    assert "$.pmcw.geometry.n_elements: unknown field" in errs
    assert "$.scene.scatterers[0].range_m: unknown field" in errs
    assert "$.scene.noise: unknown field" in errs
    assert "$.estimator.pad: unknown field" in errs
    assert "$.sweep.snrs: unknown field" in errs


def test_required_fields_reported():
    data = base_pmcw()
    del data["pmcw"]["code_length"]
    del data["waveform"]
    errs = errors_of(data)
    assert "$.pmcw.code_length: required field missing" in errs
    assert "$.waveform: required field missing" in errs


def test_waveform_section_must_exist():
    data = {"version": 1, "waveform": "pmcw"}
    errs = errors_of(data)
    assert any("'pmcw' section is missing" in e for e in errs)


def test_unknown_waveform_rejected():
    data = base_pmcw()
    data["waveform"] = "fmcw"
    errs = errors_of(data)
    assert any(e.startswith("$.waveform: must be one of") for e in errs)


def test_mu_percent_out_of_range_names_the_section():
    data = base_pmcw()
    data["pmcw"]["mu_percent"] = 150
    errs = errors_of(data)
    assert any(e.startswith("$.pmcw:") and "mu_percent" in e for e in errs)


def test_mseq_code_length_cross_check():
    data = base_pmcw()
    data["pmcw"]["code_length"] = 32
    errs = errors_of(data)
    assert any("code_kind 'mseq'" in e and "2^m - 1" in e for e in errs)
    data["pmcw"]["code_length"] = 1  # 2^1 - 1, but no order-1 generator
    errs = errors_of(data)
    assert any("code_kind 'mseq'" in e and "2^m - 1" in e for e in errs)


def test_sections_must_be_objects():
    data = base_pmcw()
    data["pmcw"]["geometry"] = 5
    data["scene"] = [1]
    data["estimator"] = 3
    data["sweep"] = "all"
    errs = errors_of(data)
    assert "$.pmcw.geometry: expected an object" in errs
    assert "$.scene: expected an object" in errs
    assert "$.estimator: expected an object" in errs
    assert "$.sweep: expected an object" in errs


@pytest.mark.parametrize("geometry", [5, None, "x", [1]])
@pytest.mark.parametrize("base", [base_pmcw, base_ofdma])
def test_geometry_must_be_an_object(base, geometry):
    data = base()
    section = data["waveform"]
    data[section]["geometry"] = geometry
    assert errors_of(data) == (f"$.{section}.geometry: expected an object",)


def test_wrong_section_type_for_waveform():
    errs = errors_of({"version": 1, "waveform": "pmcw", "pmcw": 5})
    assert "$.pmcw: expected an object" in errs


def test_bad_amplitude_and_sweep_entries():
    data = base_pmcw()
    data["scene"] = {"scatterers": [{"delay_s": 1e-9, "amplitude": "big"}]}
    data["sweep"] = {"snr_db": [0, "loud"], "weights": [0.5, None]}
    errs = errors_of(data)
    assert any("amplitude: expected a number or [real, imag]" in e
               for e in errs)
    assert "$.sweep.snr_db[1]: expected a number or null" in errs
    assert "$.sweep.weights[1]: expected a number" in errs


def test_sweep_bounds_checked():
    data = base_pmcw()
    data["sweep"] = {"weights": [0.5, 1.5]}
    errs = errors_of(data)
    assert any("weights must lie in [0, 1]" in e for e in errs)
    data = base_pmcw()
    data["sweep"] = {"mu_percent": [150]}
    errs = errors_of(data)
    assert any("mu_percent values must lie in [0, 100]" in e for e in errs)


def test_scalar_top_level_fields_validated():
    data = base_pmcw()
    data["trials"] = 0
    errs = errors_of(data)
    assert any("trials must be >= 1" in e for e in errs)
    data = base_pmcw()
    data["symbol_order"] = 3
    errs = errors_of(data)
    assert any("symbol_order must be 2 or 4" in e for e in errs)
    data = base_pmcw()
    data["code_kind"] = "gold"
    errs = errors_of(data)
    assert any("code_kind must be one of" in e for e in errs)
    data = base_pmcw()
    data["false_alarm"] = 1.0
    errs = errors_of(data)
    assert any("false_alarm" in e for e in errs)


def test_negative_seeds_rejected():
    data = base_pmcw()
    data["code_seed"] = -1
    assert "$: code_seed must be >= 0" in errors_of(data)
    data = base_pmcw()
    data["scene"] = {"seed": -1}
    assert "$.scene: seed must be >= 0" in errors_of(data)
    data = base_ofdma()
    data["ofdma"]["pilot_seed"] = -1
    assert "$.ofdma: pilot_seed must be >= 0" in errors_of(data)


@pytest.mark.parametrize("base, path, value", [
    (base_pmcw, ("pmcw", "chip_time_s"), float("nan")),
    (base_pmcw, ("pmcw", "carrier_hz"), 10 ** 400),
    (base_ofdma, ("ofdma", "carrier_hz"), float("inf")),
    (base_ofdma, ("ofdma", "mu_percent"), float("-inf")),
    (base_golay, ("golay", "sample_time_s"), float("nan")),
    (base_pmcw, ("pmcw", "geometry", "spacing_over_lambda"), float("inf")),
    (base_pmcw, ("scene", "noise_variance"), float("nan")),
    (base_pmcw, ("scene", "scatterers", 0, "delay_s"), float("nan")),
    (base_pmcw, ("scene", "scatterers", 0, "doppler_hz"), float("inf")),
    (base_pmcw, ("scene", "scatterers", 0, "amplitude"), float("nan")),
    (base_pmcw, ("scene", "scatterers", 0, "amplitude"), [1, 10 ** 400]),
    (base_pmcw, ("estimator", "threshold_db"), float("nan")),
    (base_pmcw, ("false_alarm",), float("nan")),
])
def test_non_finite_numbers_rejected(base, path, value):
    data = base()
    data["scene"] = {"scatterers": [{"delay_s": 1e-9}]}
    target = data
    for key in path[:-1]:
        target = target[key] if isinstance(key, int) \
            else target.setdefault(key, {})
    target[path[-1]] = value
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                    for k in path)
    assert f"${where}: expected a finite number" in errors_of(data)


def test_sweep_entries_beyond_float_range_rejected():
    data = base_pmcw()
    data["sweep"] = {"snr_db": [None, 10 ** 400]}
    assert errors_of(data) == ("$: snr_db entries must be finite or null",)
    data["sweep"] = {"snr_db": [float("nan")]}
    assert errors_of(data) == ("$: snr_db entries must be finite or null",)


def test_interpolate_must_be_boolean():
    data = base_pmcw()
    data["estimator"] = {"interpolate": "yes"}
    errs = errors_of(data)
    assert "$.estimator.interpolate: expected a boolean" in errs


def test_golay_section_validated():
    data = base_golay()
    data["golay"]["log2_length"] = 0
    errs = errors_of(data)
    assert any(e.startswith("$.golay:") and "log2_length" in e for e in errs)


@pytest.mark.parametrize("base, near, beyond, message", [
    (base_pmcw, 30.4e-9, 30.6e-9,
     "$: scatterer 1 delay 3.06e-08 s falls on chip 31, outside the "
     "31-chip code"),
    (base_golay, 31.8e-9, 32.2e-9,
     "$: scatterer 1 delay 3.22e-08 s falls on sample 129, outside the "
     "128-sample guard window"),
], ids=["pmcw", "golay"])
def test_delay_beyond_the_waveform_window_rejected(base, near, beyond,
                                                   message):
    # The nearest chip (sample) must lie inside the code (guard window);
    # a fractional delay that rounds into it parses.
    data = base()
    data["scene"] = {"scatterers": [{"delay_s": 0.0}, {"delay_s": beyond}]}
    assert errors_of(data) == (message,)
    data["scene"]["scatterers"][1]["delay_s"] = near
    assert parse_config(data).scene.scatterers[1].delay_s == near
    data["waveform"], data["ofdma"] = "ofdma", base_ofdma()["ofdma"]
    data["scene"]["scatterers"][1]["delay_s"] = beyond
    with pytest.warns(IsiWarning):  # OFDMA takes any delay, and warns
        parse_config(data)  # beyond its cyclic prefix


@pytest.mark.parametrize("sweep", [{"mu_percent": [25, 50]},
                                   {"weights": [0.5]},
                                   {"mu_percent": [50], "weights": [0.5]}])
def test_golay_rejects_multiplex_sweeps(sweep):
    # Golay sounding has no radar/comm multiplex to sweep or weigh.
    data = base_golay()
    data["sweep"] = sweep
    assert errors_of(data) == (
        "$: golay has no radar/comm multiplex: sweep mu_percent and "
        "weights must be empty",)
    data["sweep"] = {"mu_percent": [], "weights": [], "snr_db": [0, 10]}
    assert parse_config(data).snr_db == (0.0, 10.0)


def test_top_level_must_be_object():
    errs = errors_of([1, 2])
    assert errs == ("top level: expected a JSON object",)


# ---------------------------------------------------------------------------
# Canonical form, hashing, file round trip
# ---------------------------------------------------------------------------


def test_canonical_round_trip_idempotent():
    data = base_pmcw()
    data["scene"] = {"scatterers": [{"delay_s": 5e-9, "amplitude": 1.0}],
                     "noise_variance": 0.25}
    data["sweep"] = {"snr_db": [None, 0, 10]}
    cfg = parse_config(data)
    first = canonical_json(cfg)
    again = canonical_json(parse_config(json.loads(first)))
    assert first == again
    assert first.endswith("\n")


def test_config_hash_stable_and_sensitive():
    cfg = parse_config(base_pmcw())
    h = config_hash(cfg)
    assert len(h) == 16
    assert h == config_hash(parse_config(base_pmcw()))
    bumped = base_pmcw()
    bumped["trials"] = 2
    assert config_hash(parse_config(bumped)) != h


def test_save_load_round_trip(tmp_path):
    data = base_ofdma()
    data["ofdma"]["cp_samples"] = 4
    data["scene"] = {"scatterers": [{"delay_s": 2e-9}]}
    cfg = parse_config(data)
    path = tmp_path / "scenario.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert canonical_json(loaded) == canonical_json(cfg)
    assert config_hash(loaded) == config_hash(cfg)


def test_load_config_reports_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(base_pmcw()).encode()
                     .replace(b"pmcw", b"pm\xe7w", 1))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.errors[0].startswith(f"{path}: not valid UTF-8")


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "waveform" }\n')
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "line 2" in info.value.errors[0]
    assert "column" in info.value.errors[0]


def test_scenario_config_direct_construction_guard():
    cfg = parse_config(base_pmcw())
    with pytest.raises(ValueError):
        ScenarioConfig(**{**cfg.__dict__, "waveform": "ofdma"})


# ---------------------------------------------------------------------------
# The schema tables
# ---------------------------------------------------------------------------


def test_config_hash_pinned():
    """Every scenario the tests, fig4_trends.py and perfbench/workloads.json
    use keeps the config_hash it had before the table-driven parser."""
    pinned = json.loads(PINNED.read_text())
    moved = [(entry["source"], entry["config_hash"],
              config_hash(parse_config(entry["scenario"])))
             for entry in pinned]
    assert [m for m in moved if m[1] != m[2]] == []
    assert len(pinned) >= 40


def _full_scenario():
    data = base_pmcw()
    data["ofdma"] = base_ofdma()["ofdma"]
    data["golay"] = base_golay()["golay"]
    data["scene"] = {"scatterers": [{"delay_s": 1e-9, "amplitude": 1.0}]}
    return data


def test_every_table_key_is_written():
    def walk(rows, written, path):
        assert set(written) == {row[0] for row in rows}, path
        for key, _, kind, _ in rows:
            if isinstance(kind, list):
                for i, item in enumerate(written[key]):
                    walk(kind[0].rows, item, f"{path}.{key}[{i}]")
            elif isinstance(kind, config_module._Section):
                walk(kind.rows, written[key], f"{path}.{key}")

    walk(config_module._TOP, canonical_dict(parse_config(_full_scenario())),
         "$")


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_scatterer = st.fixed_dictionaries(
    {"delay_s": st.floats(0, 1e-6)},
    optional={"doppler_hz": st.none() | _finite,
              "velocity_mps": _finite,
              "angle_rad": st.floats(-1.5, 1.5),
              "departure_rad": st.floats(-1.5, 1.5),
              "rcs_m2": st.floats(0, 1e3),
              "amplitude": st.none() | _finite
              | st.tuples(_finite, _finite).map(list),
              "fading": st.sampled_from(["swerling0", "swerling12",
                                         "swerling34", "rician"]),
              "rician_k": st.floats(0, 100) | st.integers(0, 100)})
_geometry = st.fixed_dictionaries({}, optional={
    "n_tx": st.integers(1, 8), "n_rx": st.integers(1, 8),
    "spacing_over_lambda": st.floats(0.1, 2)})
_valid_scenario = st.fixed_dictionaries({
    "version": st.just(1),
    "waveform": st.just("ofdma"),
    "ofdma": st.fixed_dictionaries(
        {"n_subcarriers": st.integers(1, 64), "n_symbols": st.integers(1, 16),
         "subcarrier_spacing_hz": st.floats(1e3, 1e9),
         "carrier_hz": st.floats(1e9, 1e11) | st.integers(10 ** 9, 10 ** 11)},
        optional={"cp_samples": st.integers(0, 16),
                  "mu_percent": st.floats(0, 100) | st.integers(0, 100),
                  "pilot_seed": st.integers(0, 2 ** 40),
                  "geometry": _geometry}),
}, optional={
    "pmcw": st.fixed_dictionaries(
        {"code_length": st.integers(1, 64), "n_frames": st.integers(1, 16),
         "chip_time_s": st.floats(1e-12, 1e-6),
         "carrier_hz": st.floats(1e9, 1e11)},
        optional={"mu_percent": st.floats(0, 100), "geometry": _geometry}),
    "golay": st.fixed_dictionaries(
        {"log2_length": st.integers(1, 16),
         "guard_samples": st.integers(1, 512),
         "sample_time_s": st.floats(1e-12, 1e-6)}),
    "scene": st.fixed_dictionaries({}, optional={
        "scatterers": st.lists(_scatterer, max_size=3),
        "noise_variance": st.floats(0, 10),
        "seed": st.integers(0, 2 ** 40)}),
    "estimator": st.fixed_dictionaries({}, optional={
        "range_pad": st.integers(1, 8), "doppler_pad": st.integers(1, 8),
        "angle_pad": st.integers(1, 8), "threshold_db": st.floats(-60, -1),
        "max_targets": st.integers(1, 4), "interpolate": st.booleans()}),
    "sweep": st.fixed_dictionaries({}, optional={
        "snr_db": st.lists(st.none() | st.floats(-30, 40), max_size=4),
        "mu_percent": st.lists(st.floats(0, 100), max_size=3),
        "weights": st.lists(st.floats(0, 1), max_size=3)}),
    "symbol_order": st.sampled_from([2, 4]),
    "code_kind": st.just("random"),
    "code_seed": st.integers(0, 2 ** 40),
    "refine_factor": st.integers(1, 16),
    "false_alarm": st.floats(1e-9, 0.5),
    "trials": st.integers(1, 1000),
    "seed": st.integers(0, 2 ** 40),
    "out_dir": st.text(max_size=8),
})


@settings(max_examples=200, deadline=None)
@given(_valid_scenario)
def test_parse_of_canonical_is_idempotent(data):
    config = parse_config(data)
    text = canonical_json(config)
    again = parse_config(json.loads(text))
    assert again == config
    assert canonical_json(again) == text
