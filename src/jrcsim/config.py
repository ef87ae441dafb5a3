"""Scenario files: a JSON schema with canonical round-trip and hashing.

One file describes one experiment: which waveform, its shape, the scene,
the estimator knobs, and the sweep axes.  All quantities are stored in the
same units the library uses internally (seconds, hertz, radians, linear
power) so that load -> save is exact, with no unit conversion drift.  The
canonical form is ``json.dumps(..., sort_keys=True, indent=2)`` plus a
trailing newline; the config hash is the SHA-256 of those bytes.

Schema (version 1), with defaults in parentheses:

    {
      "version": 1,
      "waveform": "pmcw" | "ofdma" | "golay",
      "pmcw":  {"code_length", "n_frames", "chip_time_s", "carrier_hz",
                "mu_percent" (50), "geometry" ({...})},
      "ofdma": {"n_subcarriers", "n_symbols", "subcarrier_spacing_hz",
                "carrier_hz", "cp_samples" (0), "mu_percent" (50),
                "pilot_seed" (0), "geometry" ({...})},
      "golay": {"log2_length", "guard_samples", "sample_time_s"},
      "geometry": {"n_tx" (1), "n_rx" (1), "spacing_over_lambda" (0.5)},
      "scene": {"scatterers": [{"delay_s", "doppler_hz" | "velocity_mps",
                                "angle_rad" (0), "departure_rad" (0),
                                "rcs_m2" (1), "amplitude" ([re, im]),
                                "fading" ("swerling0"), "rician_k" (10)}],
                "noise_variance" (0), "seed" (0)},
      "estimator": {"range_pad" (1), "doppler_pad" (1), "angle_pad" (1),
                    "threshold_db" (-13), "max_targets" (1),
                    "interpolate" (false)},
      "sweep": {"snr_db" ([null]), "mu_percent" ([]), "weights" ([])},
      "symbol_order" (2 pmcw / 4 ofdma), "code_kind" ("mseq"),
      "code_seed" (0), "refine_factor" (8), "false_alarm" (0.01),
      "trials" (1), "seed" (0), "out_dir" ("results")
    }

A ``null`` SNR point means "no sweep here": the scene's own
``noise_variance`` is used verbatim (0 gives a noiseless run).  An empty
``mu_percent`` sweep keeps the waveform section's own multiplex value.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .channel import Scatterer, Scene
from .estim import EstimatorConfig
from .ofdma import OfdmaConfig
from .pmcw import PmcwConfig
from .sigcore import ArrayGeometry

CONFIG_VERSION = 1

_WAVEFORMS = ("pmcw", "ofdma", "golay")
_CODE_KINDS = ("mseq", "random")


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class GolayRunConfig:
    """Complementary-pair sounding shape for golay scenario runs."""

    log2_length: int
    guard_samples: int
    sample_time_s: float

    def __post_init__(self):
        if not 1 <= self.log2_length <= 16:
            raise ValueError("log2_length must lie in 1..16")
        if self.guard_samples < 1:
            raise ValueError("guard_samples must be >= 1")
        if self.sample_time_s <= 0:
            raise ValueError("sample_time_s must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated experiment description."""

    waveform: str
    pmcw: PmcwConfig | None
    ofdma: OfdmaConfig | None
    golay: GolayRunConfig | None
    scene: Scene
    estimator: EstimatorConfig
    snr_db: tuple
    mu_sweep: tuple
    weights: tuple
    symbol_order: int
    code_kind: str
    code_seed: int
    refine_factor: int
    false_alarm: float
    trials: int
    seed: int
    out_dir: str

    def __post_init__(self):
        if self.waveform not in _WAVEFORMS:
            raise ValueError(f"waveform must be one of {_WAVEFORMS}")
        if getattr(self, self.waveform) is None:
            raise ValueError(f"waveform '{self.waveform}' selected but the "
                             f"'{self.waveform}' section is missing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.code_seed < 0:
            raise ValueError("code_seed must be >= 0")
        if self.refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        if self.symbol_order not in (2, 4):
            raise ValueError("symbol_order must be 2 or 4")
        if self.code_kind not in _CODE_KINDS:
            raise ValueError(f"code_kind must be one of {_CODE_KINDS}")
        if self.waveform == "pmcw" and self.code_kind == "mseq" \
                and self.pmcw is not None:
            length = self.pmcw.code_length
            order = int(length + 1).bit_length() - 1
            if 2 ** order - 1 != length or not 2 <= order <= 16:
                raise ValueError("code_kind 'mseq' needs a pmcw code_length "
                                 "of the form 2^m - 1 with 2 <= m <= 16")
        if not 0 < self.false_alarm < 1:
            raise ValueError("false_alarm must lie in (0, 1)")
        for w in self.weights:
            if not 0 <= w <= 1:
                raise ValueError("sweep weights must lie in [0, 1]")
        for m in self.mu_sweep:
            if not 0 <= m <= 100:
                raise ValueError("sweep mu_percent values must lie in "
                                 "[0, 100]")
        for s in self.snr_db:
            if s is not None and not math.isfinite(s):
                raise ValueError("snr_db entries must be finite or null")

    @property
    def waveform_config(self):
        return getattr(self, self.waveform)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _want(obj, key, kinds, errors, path, default=None, required=False):
    """Fetch obj[key] checking its JSON type; log problems into errors."""
    if key not in obj:
        if required:
            errors.append(f"{path}.{key}: required field missing")
        return default
    val = obj[key]
    if kinds is bool and not isinstance(val, bool):
        errors.append(f"{path}.{key}: expected a boolean")
        return default
    if kinds is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            errors.append(f"{path}.{key}: expected a number")
            return default
        return float(val)
    if kinds is int:
        if isinstance(val, bool) or not isinstance(val, int):
            errors.append(f"{path}.{key}: expected an integer")
            return default
    if isinstance(kinds, type) and not isinstance(val, kinds):
        errors.append(f"{path}.{key}: expected {kinds.__name__}")
        return default
    return val


def _check_unknown(obj, known, errors, path):
    for key in obj:
        if key not in known:
            errors.append(f"{path}.{key}: unknown field")


def _parse_geometry(obj, errors, path):
    obj = obj if isinstance(obj, dict) else {}
    _check_unknown(obj, {"n_tx", "n_rx", "spacing_over_lambda"}, errors, path)
    try:
        return ArrayGeometry(
            n_tx=_want(obj, "n_tx", int, errors, path, 1),
            n_rx=_want(obj, "n_rx", int, errors, path, 1),
            spacing_over_lambda=_want(obj, "spacing_over_lambda", float,
                                      errors, path, 0.5))
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return ArrayGeometry()


def _parse_scatterer(obj, errors, path):
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected an object")
        return None
    _check_unknown(obj, {"delay_s", "doppler_hz", "velocity_mps", "angle_rad",
                         "departure_rad", "rcs_m2", "fading", "rician_k",
                         "amplitude"}, errors, path)
    amp = obj.get("amplitude")
    if amp is not None:
        if isinstance(amp, (int, float)) and not isinstance(amp, bool):
            amp = complex(float(amp), 0.0)
        elif (isinstance(amp, list) and len(amp) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in amp)):
            amp = complex(float(amp[0]), float(amp[1]))
        else:
            errors.append(f"{path}.amplitude: expected a number or "
                          "[real, imag] pair")
            amp = None
    kwargs = dict(
        delay_s=_want(obj, "delay_s", float, errors, path, required=True),
        angle_rad=_want(obj, "angle_rad", float, errors, path, 0.0),
        departure_rad=_want(obj, "departure_rad", float, errors, path, 0.0),
        rcs_m2=_want(obj, "rcs_m2", float, errors, path, 1.0),
        fading=_want(obj, "fading", str, errors, path, "swerling0"),
        rician_k=_want(obj, "rician_k", float, errors, path, 10.0),
        amplitude=amp)
    # null means "derive from velocity", mirroring the canonical form.
    if obj.get("doppler_hz") is not None:
        kwargs["doppler_hz"] = _want(obj, "doppler_hz", float, errors, path)
    kwargs["velocity_mps"] = _want(obj, "velocity_mps", float, errors,
                                   path, 0.0)
    if kwargs["delay_s"] is None:
        return None
    try:
        return Scatterer(**kwargs)
    except (ValueError, TypeError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def _parse_float_list(obj, key, errors, path, allow_null=False):
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        errors.append(f"{path}.{key}: expected a list")
        return ()
    out = []
    for i, v in enumerate(raw):
        if v is None and allow_null:
            out.append(None)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(float(v))
        else:
            errors.append(f"{path}.{key}[{i}]: expected a number"
                          + (" or null" if allow_null else ""))
    return tuple(out)


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a parsed JSON object into a ScenarioConfig.

    Collects every violation it can find before raising, so a bad file is
    diagnosed in one pass.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])

    version = _want(data, "version", int, errors, "$", required=True)
    if version is not None and version != CONFIG_VERSION:
        errors.append(f"$.version: expected {CONFIG_VERSION}, got {version}")
    waveform = _want(data, "waveform", str, errors, "$", required=True)
    if waveform is not None and waveform not in _WAVEFORMS:
        errors.append(f"$.waveform: must be one of {_WAVEFORMS}")

    pmcw = ofdma = golay = None
    if isinstance(data.get("pmcw"), dict):
        sec = data["pmcw"]
        _check_unknown(sec, {"code_length", "n_frames", "chip_time_s",
                             "carrier_hz", "mu_percent", "geometry"},
                       errors, "$.pmcw")
        geom = _parse_geometry(sec.get("geometry", {}), errors,
                               "$.pmcw.geometry")
        try:
            pmcw = PmcwConfig(
                code_length=_want(sec, "code_length", int, errors, "$.pmcw",
                                  required=True) or 0,
                n_frames=_want(sec, "n_frames", int, errors, "$.pmcw",
                               required=True) or 0,
                chip_time=_want(sec, "chip_time_s", float, errors, "$.pmcw",
                                required=True) or 0.0,
                carrier_hz=_want(sec, "carrier_hz", float, errors, "$.pmcw",
                                 required=True) or 0.0,
                mu_percent=_want(sec, "mu_percent", float, errors, "$.pmcw",
                                 50.0),
                geometry=geom)
        except ValueError as exc:
            errors.append(f"$.pmcw: {exc}")
    elif "pmcw" in data:
        errors.append("$.pmcw: expected an object")

    if isinstance(data.get("ofdma"), dict):
        sec = data["ofdma"]
        _check_unknown(sec, {"n_subcarriers", "n_symbols",
                             "subcarrier_spacing_hz", "carrier_hz",
                             "cp_samples", "mu_percent", "pilot_seed",
                             "geometry"}, errors, "$.ofdma")
        geom = _parse_geometry(sec.get("geometry", {}), errors,
                               "$.ofdma.geometry")
        try:
            ofdma = OfdmaConfig(
                n_subcarriers=_want(sec, "n_subcarriers", int, errors,
                                    "$.ofdma", required=True) or 0,
                n_symbols=_want(sec, "n_symbols", int, errors, "$.ofdma",
                                required=True) or 0,
                subcarrier_spacing_hz=_want(sec, "subcarrier_spacing_hz",
                                            float, errors, "$.ofdma",
                                            required=True) or 0.0,
                carrier_hz=_want(sec, "carrier_hz", float, errors, "$.ofdma",
                                 required=True) or 0.0,
                cp_samples=_want(sec, "cp_samples", int, errors, "$.ofdma", 0),
                mu_percent=_want(sec, "mu_percent", float, errors, "$.ofdma",
                                 50.0),
                pilot_seed=_want(sec, "pilot_seed", int, errors, "$.ofdma", 0),
                geometry=geom)
        except ValueError as exc:
            errors.append(f"$.ofdma: {exc}")
    elif "ofdma" in data:
        errors.append("$.ofdma: expected an object")

    if isinstance(data.get("golay"), dict):
        sec = data["golay"]
        _check_unknown(sec, {"log2_length", "guard_samples", "sample_time_s"},
                       errors, "$.golay")
        try:
            golay = GolayRunConfig(
                log2_length=_want(sec, "log2_length", int, errors, "$.golay",
                                  required=True) or 0,
                guard_samples=_want(sec, "guard_samples", int, errors,
                                    "$.golay", required=True) or 0,
                sample_time_s=_want(sec, "sample_time_s", float, errors,
                                    "$.golay", required=True) or 0.0)
        except ValueError as exc:
            errors.append(f"$.golay: {exc}")
    elif "golay" in data:
        errors.append("$.golay: expected an object")

    scene_obj = data.get("scene", {})
    scatterers = []
    noise_variance = 0.0
    scene_seed = 0
    if isinstance(scene_obj, dict):
        _check_unknown(scene_obj, {"scatterers", "noise_variance", "seed"},
                       errors, "$.scene")
        raw = scene_obj.get("scatterers", [])
        if isinstance(raw, list):
            for i, sc in enumerate(raw):
                parsed = _parse_scatterer(sc, errors,
                                          f"$.scene.scatterers[{i}]")
                if parsed is not None:
                    scatterers.append(parsed)
        else:
            errors.append("$.scene.scatterers: expected a list")
        noise_variance = _want(scene_obj, "noise_variance", float, errors,
                               "$.scene", 0.0)
        scene_seed = _want(scene_obj, "seed", int, errors, "$.scene", 0)
    elif "scene" in data:
        errors.append("$.scene: expected an object")
    try:
        scene = Scene(scatterers=tuple(scatterers),
                      noise_variance=noise_variance, seed=scene_seed)
    except ValueError as exc:
        errors.append(f"$.scene: {exc}")
        scene = Scene()

    est_obj = data.get("estimator", {})
    estimator = EstimatorConfig()
    if isinstance(est_obj, dict):
        _check_unknown(est_obj, {"range_pad", "doppler_pad", "angle_pad",
                                 "threshold_db", "max_targets",
                                 "interpolate"}, errors, "$.estimator")
        try:
            estimator = EstimatorConfig(
                range_pad=_want(est_obj, "range_pad", int, errors,
                                "$.estimator", 1),
                doppler_pad=_want(est_obj, "doppler_pad", int, errors,
                                  "$.estimator", 1),
                angle_pad=_want(est_obj, "angle_pad", int, errors,
                                "$.estimator", 1),
                threshold_db=_want(est_obj, "threshold_db", float, errors,
                                   "$.estimator", -13.0),
                max_targets=_want(est_obj, "max_targets", int, errors,
                                  "$.estimator", 1),
                interpolate=_want(est_obj, "interpolate", bool, errors,
                                  "$.estimator", False))
        except ValueError as exc:
            errors.append(f"$.estimator: {exc}")
    elif "estimator" in data:
        errors.append("$.estimator: expected an object")

    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict):
        errors.append("$.sweep: expected an object")
        sweep = {}
    _check_unknown(sweep, {"snr_db", "mu_percent", "weights"}, errors,
                   "$.sweep")
    snr_db = _parse_float_list(sweep, "snr_db", errors, "$.sweep",
                               allow_null=True) or (None,)
    mu_sweep = _parse_float_list(sweep, "mu_percent", errors, "$.sweep")
    weights = _parse_float_list(sweep, "weights", errors, "$.sweep")

    default_order = 4 if waveform == "ofdma" else 2
    kwargs = dict(
        waveform=waveform or "pmcw",
        pmcw=pmcw, ofdma=ofdma, golay=golay,
        scene=scene, estimator=estimator,
        snr_db=snr_db, mu_sweep=mu_sweep, weights=weights,
        symbol_order=_want(data, "symbol_order", int, errors, "$",
                           default_order),
        code_kind=_want(data, "code_kind", str, errors, "$", "mseq"),
        code_seed=_want(data, "code_seed", int, errors, "$", 0),
        refine_factor=_want(data, "refine_factor", int, errors, "$", 8),
        false_alarm=_want(data, "false_alarm", float, errors, "$", 0.01),
        trials=_want(data, "trials", int, errors, "$", 1),
        seed=_want(data, "seed", int, errors, "$", 0),
        out_dir=_want(data, "out_dir", str, errors, "$", "results"))

    known = {"version", "waveform", "pmcw", "ofdma", "golay", "scene",
             "estimator", "sweep", "symbol_order", "code_kind", "code_seed",
             "refine_factor", "false_alarm", "trials", "seed", "out_dir"}
    for key in data:
        if key not in known:
            errors.append(f"$.{key}: unknown field")

    if not errors:
        try:
            return ScenarioConfig(**kwargs)
        except ValueError as exc:
            errors.append(f"$: {exc}")
    raise ConfigError(errors)


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: line {exc.lineno} column "
                               f"{exc.colno}: {exc.msg}"]) from None
    return parse_config(data)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _geometry_dict(geom: ArrayGeometry) -> dict:
    return {"n_tx": geom.n_tx, "n_rx": geom.n_rx,
            "spacing_over_lambda": geom.spacing_over_lambda}


def canonical_dict(config: ScenarioConfig) -> dict:
    """Every field explicit, defaults included, internal units verbatim."""
    out = {
        "version": CONFIG_VERSION,
        "waveform": config.waveform,
        "scene": {
            "scatterers": [
                {
                    "delay_s": sc.delay_s,
                    "doppler_hz": sc.doppler_hz,
                    "velocity_mps": sc.velocity_mps,
                    "angle_rad": sc.angle_rad,
                    "departure_rad": sc.departure_rad,
                    "rcs_m2": sc.rcs_m2,
                    "amplitude": (None if sc.amplitude is None
                                  else [sc.amplitude.real,
                                        sc.amplitude.imag]),
                    "fading": sc.fading,
                    "rician_k": sc.rician_k,
                }
                for sc in config.scene.scatterers
            ],
            "noise_variance": config.scene.noise_variance,
            "seed": config.scene.seed,
        },
        "estimator": {
            "range_pad": config.estimator.range_pad,
            "doppler_pad": config.estimator.doppler_pad,
            "angle_pad": config.estimator.angle_pad,
            "threshold_db": config.estimator.threshold_db,
            "max_targets": config.estimator.max_targets,
            "interpolate": config.estimator.interpolate,
        },
        "sweep": {
            "snr_db": list(config.snr_db),
            "mu_percent": list(config.mu_sweep),
            "weights": list(config.weights),
        },
        "symbol_order": config.symbol_order,
        "code_kind": config.code_kind,
        "code_seed": config.code_seed,
        "refine_factor": config.refine_factor,
        "false_alarm": config.false_alarm,
        "trials": config.trials,
        "seed": config.seed,
        "out_dir": config.out_dir,
    }
    if config.pmcw is not None:
        out["pmcw"] = {
            "code_length": config.pmcw.code_length,
            "n_frames": config.pmcw.n_frames,
            "chip_time_s": config.pmcw.chip_time,
            "carrier_hz": config.pmcw.carrier_hz,
            "mu_percent": config.pmcw.mu_percent,
            "geometry": _geometry_dict(config.pmcw.geometry),
        }
    if config.ofdma is not None:
        out["ofdma"] = {
            "n_subcarriers": config.ofdma.n_subcarriers,
            "n_symbols": config.ofdma.n_symbols,
            "subcarrier_spacing_hz": config.ofdma.subcarrier_spacing_hz,
            "carrier_hz": config.ofdma.carrier_hz,
            "cp_samples": config.ofdma.cp_samples,
            "mu_percent": config.ofdma.mu_percent,
            "pilot_seed": config.ofdma.pilot_seed,
            "geometry": _geometry_dict(config.ofdma.geometry),
        }
    if config.golay is not None:
        out["golay"] = {
            "log2_length": config.golay.log2_length,
            "guard_samples": config.golay.guard_samples,
            "sample_time_s": config.golay.sample_time_s,
        }
    return out


def canonical_json(config: ScenarioConfig) -> str:
    return json.dumps(canonical_dict(config), sort_keys=True, indent=2) + "\n"


def save_config(config: ScenarioConfig, path) -> None:
    """Write the canonical form; save(load(x)) is idempotent."""
    with open(path, "w") as fh:
        fh.write(canonical_json(config))


def config_hash(config: ScenarioConfig) -> str:
    """Short content hash of the canonical form."""
    digest = hashlib.sha256(canonical_json(config).encode("utf-8"))
    return digest.hexdigest()[:16]
