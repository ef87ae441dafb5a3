"""Scenario file parsing, validation, and canonical serialization."""

import dataclasses
import json
import math
import re
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jrcsim import config as config_module
from jrcsim.config import (ConfigError, GolayRunConfig, ScenarioConfig,
                           canonical_dict, canonical_json, config_hash,
                           load_config, parse_config, save_config)
from jrcsim.channel import Scene
from jrcsim.ofdma import DelayAliasWarning, IsiWarning, OfdmaConfig
from jrcsim.pmcw import PmcwConfig
from jrcsim.runner import run_scenario
from jrcsim.sigcore import AngleAliasWarning, ArrayGeometry
from jrcsim.tensorio import read_csv_rows

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
    data["scene"] = {"scatterers": [{"delay_s": 1e-9, "range_m": 3.0,
                                     "departure_rad": 0.1}],
                     "noise": 0.1}
    data["estimator"] = {"pad": 2}
    data["sweep"] = {"snrs": [0]}
    errs = errors_of(data)
    assert "$.pmcw.cp_fraction: unknown field" in errs
    assert "$.pmcw.geometry.n_elements: unknown field" in errs
    assert "$.scene.scatterers[0].range_m: unknown field" in errs
    # One transmit element: a scatterer has no departure angle.
    assert "$.scene.scatterers[0].departure_rad: unknown field" in errs
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


@pytest.mark.parametrize("base", [base_pmcw, base_ofdma])
def test_geometry_rejects_a_transmit_array(base):
    data = base()
    section = data["waveform"]
    data[section]["geometry"] = {"n_tx": 2, "n_rx": 4}
    assert errors_of(data) == (
        f"$.{section}.geometry: n_tx must be 1, got 2: the transmit array "
        "is not modelled",)


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


def pmcw_config(**overrides):
    return PmcwConfig(**{"code_length": 31, "n_frames": 8, "chip_time": 1e-9,
                         "carrier_hz": 60e9, **overrides})


def ofdma_config(**overrides):
    return OfdmaConfig(**{"n_subcarriers": 16, "n_symbols": 4,
                          "subcarrier_spacing_hz": 62.5e6,
                          "carrier_hz": 60e9, **overrides})


@pytest.mark.parametrize("build, field", [
    (Scene, "noise_variance"),
    (ArrayGeometry, "spacing_over_lambda"),
    (pmcw_config, "chip_time"),
    (pmcw_config, "carrier_hz"),
    (ofdma_config, "subcarrier_spacing_hz"),
    (ofdma_config, "carrier_hz"),
    (partial(GolayRunConfig, log2_length=4, guard_samples=16),
     "sample_time_s"),
], ids=["scene", "geometry", "pmcw", "pmcw-carrier", "ofdma",
        "ofdma-carrier", "golay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_library_configs_reject_non_finite_numbers(build, field, value):
    # The parser rejects these values first; a library caller reaches the
    # dataclass itself, which would otherwise give a NaN or noiseless cube.
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        build(**{field: value})


def test_library_configs_reject_seeds_they_would_truncate():
    with pytest.raises(ValueError, match="seed must be an integer"):
        Scene(seed=1.5)
    with pytest.raises(ValueError, match="pilot_seed must be an integer"):
        ofdma_config(pilot_seed=2.7)
    assert Scene(seed=2 ** 40).seed == 2 ** 40
    assert ofdma_config(pilot_seed=3).pilot_seed == 3


# (section path, field, a valid whole value) of every integer field of a
# config dataclass; () is the scenario itself.
INTEGER_FIELDS = [
    (("pmcw", "geometry"), "n_tx", 1), (("pmcw", "geometry"), "n_rx", 4),
    (("pmcw",), "code_length", 4), (("pmcw",), "n_frames", 4),
    (("ofdma",), "n_subcarriers", 4), (("ofdma",), "n_symbols", 4),
    (("ofdma",), "cp_samples", 4), (("ofdma",), "pilot_seed", 4),
    (("golay",), "log2_length", 4), (("golay",), "guard_samples", 4),
    (("scene",), "seed", 4), ((), "trials", 4), ((), "seed", 4),
    ((), "code_seed", 4), ((), "refine_factor", 4), ((), "symbol_order", 4),
]


def with_field(path, field, value):
    """A valid scenario of the path's waveform (PMCW for the scenario's own
    fields and the scene's) with ``field`` set to ``value``, every
    dataclass on the path rebuilt."""
    waveform = path[0] if path and path[0] != "scene" else "pmcw"
    data = {"pmcw": dict(base_pmcw(), code_kind="random"),
            "ofdma": base_ofdma(), "golay": base_golay()}[waveform]

    def rebuilt(obj, rest):
        if not rest:
            return replace(obj, **{field: value})
        return replace(obj, **{rest[0]: rebuilt(getattr(obj, rest[0]),
                                                rest[1:])})
    return rebuilt(parse_config(data), path)


@pytest.mark.parametrize("path, field, whole", INTEGER_FIELDS, ids=[
    ".".join(path + (field,)) for path, field, _ in INTEGER_FIELDS])
def test_integer_fields_reject_fractions_and_store_integral_floats(
        path, field, whole):
    # A library caller reaches the dataclasses directly: a fraction is
    # rejected by name when the config is built, not by the first trial,
    # and an integral float is the int itself, down to the config hash.
    with pytest.raises(ValueError, match=f"{field} must be an integer, "
                                         "got 2.5"):
        with_field(path, field, 2.5)
    as_float, as_int = (with_field(path, field, v) for v in (float(whole),
                                                             whole))
    stored = as_float
    for name in path + (field,):
        stored = getattr(stored, name)
    assert type(stored) is int and stored == whole
    assert canonical_json(as_float) == canonical_json(as_int)
    assert config_hash(as_float) == config_hash(as_int)


def aliasing_scene(waveform, spacing, angle):
    data = {"pmcw": base_pmcw, "ofdma": base_ofdma}[waveform]()
    data[waveform]["geometry"] = {"n_rx": 8, "spacing_over_lambda": spacing}
    data["estimator"] = {"angle_pad": 4}
    data["scene"] = {"scatterers": [{"delay_s": 2e-9, "angle_rad": angle,
                                     "amplitude": [1.0, 0.0]}]}
    return data


@pytest.mark.parametrize("waveform", ["pmcw", "ofdma"])
@pytest.mark.parametrize("spacing, angle, coarse, refined", [
    (1.0, 0.6, -0.4528165947449256, -0.4484771118100457),
    (0.5, math.pi / 2, -math.pi / 2, -math.pi / 2),
])
def test_an_aliasing_angle_warns_at_parse_time(waveform, spacing, angle,
                                               coarse, refined, tmp_path):
    # spacing * sin(angle) outside [-1/2, 1/2) reads as another angle on
    # the beam grid: the warning names it, and a noiseless run shows it.
    with pytest.warns(AngleAliasWarning, match=r"scatterer 0 angle .* "
                                               r"outside \[-1/2, 1/2\)"):
        config = parse_config(aliasing_scene(waveform, spacing, angle))
    run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "estimates.csv")
    assert [float(rows[0][header.index(name)]) for name in (
        "est_angle_rad", "refined_angle_rad")] == [coarse, refined]


@pytest.mark.parametrize("waveform", ["pmcw", "ofdma"])
@pytest.mark.parametrize("spacing, angle, n_rx", [
    (0.5, -math.pi / 2, 8), (0.5, 1.5, 8), (1.0, 0.6, 1), (0.25, 1.5, 8)])
def test_an_unambiguous_angle_does_not_warn(waveform, spacing, angle, n_rx):
    data = aliasing_scene(waveform, spacing, angle)
    data[waveform]["geometry"]["n_rx"] = n_rx
    with warnings.catch_warnings():
        warnings.simplefilter("error", AngleAliasWarning)
        parse_config(data)


def delay_alias_scene(delay_s, mus):
    data = base_ofdma()
    data["ofdma"].update(n_subcarriers=32, n_symbols=16, cp_samples=16,
                         geometry={"n_rx": 4})
    data["scene"] = {"scatterers": [{"delay_s": delay_s,
                                     "amplitude": [1.0, 0.0]}]}
    if mus is None:
        data["ofdma"]["mu_percent"] = 10
    data["sweep"] = {"mu_percent": mus or [], "snr_db": [None]}
    return data


@pytest.mark.parametrize("delay_s, mus, window, coarse", [
    (9e-9, [50], "50.0 (8.000e-09 s)", 1e-9),
    (8e-9, [100, 50], "50.0 (8.000e-09 s)", 0.0),
    (3e-9, [10], "10.0 (1.000e-09 s)", 0.0),
    (3e-9, None, "10.0 (1.000e-09 s)", 0.0),
])
def test_a_delay_beyond_the_pilot_window_warns_at_parse_time(
        delay_s, mus, window, coarse, tmp_path):
    # The pilot comb's coarse delay window at each swept mu (or the
    # section's, unswept) is N_c over the comb spacing bins: detection reads
    # a delay at or beyond it aliased, and refinement over every row, whose
    # window is the whole period, reads it as it is.
    with pytest.warns(DelayAliasWarning,
                      match=rf"scatterer 0 delay .* mu_percent "
                            rf"{re.escape(window)}; "):
        config = parse_config(delay_alias_scene(delay_s, mus))
    run_scenario(config, out_dir=tmp_path)
    header, rows = read_csv_rows(tmp_path / "estimates.csv")
    assert [float(rows[-1][header.index(name)]) for name in (
        "est_delay_s", "refined_delay_s")] == [coarse, delay_s]


@pytest.mark.parametrize("delay_s, mus", [
    (7.5e-9, [50, 100]), (9e-9, [0, 100]), (2.85e-9, [0, 25, 50, 100])])
def test_a_delay_inside_every_pilot_window_does_not_warn(delay_s, mus):
    # mu = 0 has no pilots, so no window to alias in.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DelayAliasWarning)
        parse_config(delay_alias_scene(delay_s, mus))


def test_no_benchmark_scene_aliases():
    workloads = json.loads((Path(__file__).parents[1] / "perfbench"
                            / "workloads.json").read_text())
    scenarios = [spec["scenario"] for spec in workloads.values()
                 if "scenario" in spec] \
        + [case["scenario"] for spec in workloads.values()
           for case in spec.get("cases", ())]
    assert len(scenarios) == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error", AngleAliasWarning)
        warnings.simplefilter("error", DelayAliasWarning)
        for scenario in scenarios:
            parse_config(scenario)


@pytest.mark.parametrize("category, data", [
    (AngleAliasWarning, aliasing_scene("pmcw", 1.0, 0.6)),
    (IsiWarning, delay_alias_scene(9e-9, [50])),
    (DelayAliasWarning, delay_alias_scene(9e-9, [50])),
])
def test_parse_time_warnings_name_the_callers_line(category, data, tmp_path):
    # A warning raised while the config is built is re-issued at the line
    # that called parse_config or load_config, not inside the parser.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_config(data)
        load_config(path)
    found = [w for w in caught if w.category is category]
    assert len(found) == 2
    assert [w.filename for w in found] == [__file__] * 2


def test_parse_time_warnings_survive_a_config_error():
    # The ISI warning comes before the false-alarm check fails; it is
    # still issued, at the caller's line, ahead of the ConfigError.
    data = delay_alias_scene(9e-9, [50])
    data["false_alarm"] = 2.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="false_alarm"):
            parse_config(data)
    assert [(w.category, w.filename) for w in caught] == [
        (IsiWarning, __file__)]


@pytest.mark.parametrize("name", ["_GEOMETRY", "_PMCW", "_OFDMA", "_GOLAY",
                                  "_SCATTERER", "_SCENE", "_ESTIMATOR"])
def test_schema_defaults_equal_the_library_defaults(name):
    # Each schema row repeats its dataclass field's default: _REQUIRED
    # where the field has none, {} where a factory builds it.
    section = getattr(config_module, name)
    fields = {f.name: f for f in dataclasses.fields(section.build)}
    assert sorted(row[1] for row in section.rows) == sorted(fields)
    for key, attr, kind, default in section.rows:
        field = fields[attr]
        if default is config_module._REQUIRED:
            assert field.default is field.default_factory is dataclasses.MISSING
        elif default == {}:
            assert field.default_factory() == config_module._object(
                {}, kind, [], key)
        else:
            assert type(default) is type(field.default)
            assert default == field.default


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


def test_cp_longer_than_the_symbol_rejected():
    # Rejected when parsed, so neither jrcsim af nor jrcsim run reaches a
    # transmit with a prefix longer than the symbol.
    data = base_ofdma()
    data["ofdma"].update(n_subcarriers=8, cp_samples=12)
    assert errors_of(data) == (
        "$.ofdma: cp_samples must lie in [0, n_subcarriers]",)
    data["ofdma"]["cp_samples"] = 8
    assert parse_config(data).ofdma.cp_samples == 8


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


@pytest.mark.parametrize("base, section", [
    (base_pmcw, PmcwConfig(code_length=31, n_frames=8, chip_time=1e-9,
                           carrier_hz=60e9)),
    (base_ofdma, OfdmaConfig(n_subcarriers=16, n_symbols=4,
                             subcarrier_spacing_hz=62.5e6, carrier_hz=60e9)),
    (base_golay, GolayRunConfig(log2_length=9, guard_samples=128,
                                sample_time_s=2.5e-10)),
], ids=["pmcw", "ofdma", "golay"])
def test_scenario_config_built_directly_takes_the_file_defaults(base,
                                                                section):
    # A library caller who gives only the waveform section gets exactly
    # what the minimal file with that section parses to.
    waveform = base()["waveform"]
    direct = ScenarioConfig(waveform=waveform, **{waveform: section})
    parsed = parse_config(base())
    assert direct == parsed
    assert config_hash(direct) == config_hash(parsed)
    assert direct.symbol_order == (4 if waveform == "ofdma" else 2)


def test_scenario_config_direct_construction_guard():
    cfg = parse_config(base_pmcw())
    with pytest.raises(ValueError):
        ScenarioConfig(**{**cfg.__dict__, "waveform": "ofdma"})


# ---------------------------------------------------------------------------
# The schema tables
# ---------------------------------------------------------------------------


def test_config_hash_pinned():
    """Every scenario the tests, fig4_trends.py and perfbench/workloads.json
    use keeps its pinned config_hash.  A schema change that is meant to move
    hashes edits the stored scenarios as needed, re-pins with

        PYTHONPATH=src python tests/test_config.py

    and says which hashes moved, and why."""
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
              "rcs_m2": st.floats(0, 1e3),
              "amplitude": st.none() | _finite
              | st.tuples(_finite, _finite).map(list),
              "fading": st.sampled_from(["swerling0", "swerling12",
                                         "swerling34", "rician"]),
              "rician_k": st.floats(0, 100) | st.integers(0, 100)})
_geometry = st.fixed_dictionaries({}, optional={
    "n_tx": st.just(1), "n_rx": st.integers(1, 8),
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
                  "geometry": _geometry}).filter(  # prefix within a symbol
        lambda ofdma: ofdma.get("cp_samples", 0) <= ofdma["n_subcarriers"]),
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


if __name__ == "__main__":
    entries = json.loads(PINNED.read_text())
    for entry in entries:
        entry["config_hash"] = config_hash(parse_config(entry["scenario"]))
    PINNED.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
