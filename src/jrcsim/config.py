"""Scenario files: a JSON schema with canonical round-trip and hashing.

One file describes one experiment: which waveform, its shape, the scene,
the estimator knobs, and the sweep axes.  All quantities are stored in the
same units the library uses internally (seconds, hertz, radians, linear
power) so that load -> save is exact, with no unit conversion drift.  The
canonical form is ``json.dumps(..., sort_keys=True, indent=2)`` plus a
trailing newline; the config hash is the SHA-256 of those bytes.

The schema (version 1) is one table of rows per section (``_TOP`` down):
a generic reader parses and checks every field from them, and a generic
writer builds the canonical form.  README.md documents it for users.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .channel import Scatterer, Scene
from .estim import EstimatorConfig
from .ofdma import OfdmaConfig, _warn_isi
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
        if self.waveform == "pmcw" and self.code_kind == "mseq":
            length = self.pmcw.code_length
            order = int(length + 1).bit_length() - 1
            if 2 ** order - 1 != length or not 2 <= order <= 16:
                raise ValueError("code_kind 'mseq' needs a pmcw code_length "
                                 "of the form 2^m - 1 with 2 <= m <= 16")
        if self.waveform == "ofdma":  # beyond the prefix, delays only warn
            _warn_isi(self.ofdma, self.scene.scatterers, stacklevel=4)
        else:  # delays the model cannot hold
            wave = self.waveform_config
            step, limit, unit, window = (
                (wave.chip_time, wave.code_length, "chip", "code")
                if self.waveform == "pmcw" else
                (wave.sample_time_s, wave.guard_samples, "sample",
                 "guard window"))
            for q, sc in enumerate(self.scene.scatterers):
                nearest = round(sc.delay_s / step)
                if nearest >= limit:
                    raise ValueError(
                        f"scatterer {q} delay {sc.delay_s} s falls on {unit} "
                        f"{nearest}, outside the {limit}-{unit} {window}")
        if not 0 < self.false_alarm < 1:
            raise ValueError("false_alarm must lie in (0, 1)")
        if not all(0 <= w <= 1 for w in self.weights):
            raise ValueError("sweep weights must lie in [0, 1]")
        if not all(0 <= m <= 100 for m in self.mu_sweep):
            raise ValueError("sweep mu_percent values must lie in [0, 100]")
        if self.waveform == "golay" and (self.mu_sweep or self.weights):
            raise ValueError("golay has no radar/comm multiplex: sweep "
                             "mu_percent and weights must be empty")
        if not all(s is None or math.isfinite(s) for s in self.snr_db):
            raise ValueError("snr_db entries must be finite or null")

    @property
    def waveform_config(self):
        return getattr(self, self.waveform)


class _Section(NamedTuple):
    """A JSON object of the schema, read into ``build(**attributes)``.

    A row is (JSON key, attribute, kind, default or _REQUIRED), and row
    order is error order.  A kind is int, float, bool or str; float | None,
    or complex | None for a number or [real, imag] pair, where null gives
    None; list[float], or list[float | None] where [] means [null]; a
    _Section, whose default is None if optional or {} to build it from its
    own defaults; or [_Section] for a list of objects.
    """

    build: Callable
    rows: tuple


_REQUIRED = object()
_BAD = object()  # a value that did not fit its kind; the reason is logged
_NUMBER_LISTS = (list[float], list[float | None])
_EXPECTED = {int: "an integer", bool: "a boolean", str: "str"}

_GEOMETRY = _Section(ArrayGeometry, (
    ("n_tx", "n_tx", int, 1),
    ("n_rx", "n_rx", int, 1),
    ("spacing_over_lambda", "spacing_over_lambda", float, 0.5),
))
_ARRAY = ("geometry", "geometry", _GEOMETRY, {})
_CARRIER = ("carrier_hz", "carrier_hz", float, _REQUIRED)
_MU = ("mu_percent", "mu_percent", float, 50.0)
_PMCW = _Section(PmcwConfig, (
    _ARRAY,
    ("code_length", "code_length", int, _REQUIRED),
    ("n_frames", "n_frames", int, _REQUIRED),
    ("chip_time_s", "chip_time", float, _REQUIRED),
    _CARRIER,
    _MU,
))
_OFDMA = _Section(OfdmaConfig, (
    _ARRAY,
    ("n_subcarriers", "n_subcarriers", int, _REQUIRED),
    ("n_symbols", "n_symbols", int, _REQUIRED),
    ("subcarrier_spacing_hz", "subcarrier_spacing_hz", float, _REQUIRED),
    _CARRIER,
    ("cp_samples", "cp_samples", int, 0),
    _MU,
    ("pilot_seed", "pilot_seed", int, 0),
))
_GOLAY = _Section(GolayRunConfig, (
    ("log2_length", "log2_length", int, _REQUIRED),
    ("guard_samples", "guard_samples", int, _REQUIRED),
    ("sample_time_s", "sample_time_s", float, _REQUIRED),
))
_SCATTERER = _Section(Scatterer, (
    ("amplitude", "amplitude", complex | None, None),
    ("delay_s", "delay_s", float, _REQUIRED),
    ("angle_rad", "angle_rad", float, 0.0),
    ("departure_rad", "departure_rad", float, 0.0),
    ("rcs_m2", "rcs_m2", float, 1.0),
    ("fading", "fading", str, "swerling0"),
    ("rician_k", "rician_k", float, 10.0),
    ("doppler_hz", "doppler_hz", float | None, None),  # None: from velocity
    ("velocity_mps", "velocity_mps", float, 0.0),
))
_SCENE = _Section(Scene, (
    ("scatterers", "scatterers", [_SCATTERER], ()),
    ("noise_variance", "noise_variance", float, 0.0),
    ("seed", "seed", int, 0),
))
_ESTIMATOR = _Section(EstimatorConfig, (
    ("range_pad", "range_pad", int, 1),
    ("doppler_pad", "doppler_pad", int, 1),
    ("angle_pad", "angle_pad", int, 1),
    ("threshold_db", "threshold_db", float, -13.0),
    ("max_targets", "max_targets", int, 1),
    ("interpolate", "interpolate", bool, False),
))
_SWEEP = _Section(dict, (  # attributes of ScenarioConfig itself
    ("snr_db", "snr_db", list[float | None], (None,)),
    ("mu_percent", "mu_sweep", list[float], ()),
    ("weights", "weights", list[float], ()),
))
_VERSION = ("version", "version", int, _REQUIRED)
_WAVEFORM = ("waveform", "waveform", str, _REQUIRED)
_BODY = (
    ("pmcw", "pmcw", _PMCW, None),
    ("ofdma", "ofdma", _OFDMA, None),
    ("golay", "golay", _GOLAY, None),
    ("scene", "scene", _SCENE, {}),
    ("estimator", "estimator", _ESTIMATOR, {}),
    ("sweep", "sweep", _SWEEP, {}),
    ("symbol_order", "symbol_order", int, None),
    ("code_kind", "code_kind", str, "mseq"),
    ("code_seed", "code_seed", int, 0),
    ("refine_factor", "refine_factor", int, 8),
    ("false_alarm", "false_alarm", float, 0.01),
    ("trials", "trials", int, 1),
    ("seed", "seed", int, 0),
    ("out_dir", "out_dir", str, "results"),
)
_TOP = (_VERSION, _WAVEFORM, *_BODY)


def _number(val):
    """A JSON number as a float (±inf beyond the float range), else None."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


def _value(val, kind, errors, path):
    """``val`` typed by ``kind``, or _BAD with the reason logged."""
    if val is None and kind in (float | None, complex | None):
        return None
    if isinstance(kind, _Section):
        return _object(val, kind, errors, path)
    if isinstance(kind, list) or kind in _NUMBER_LISTS:
        if not isinstance(val, list):
            errors.append(f"{path}: expected a list")
            return _BAD
        if isinstance(kind, list):  # entries that fail are left out
            items = [_object(item, kind[0], errors, f"{path}[{i}]", _BAD)
                     for i, item in enumerate(val)]
            return tuple(item for item in items if item is not _BAD)
        nullable = kind == list[float | None]
        for i, item in enumerate(val):
            if _number(item) is None and not (item is None and nullable):
                errors.append(f"{path}[{i}]: expected a number"
                              + " or null" * nullable)
        return tuple(map(_number, val)) or (None,) * nullable
    if kind in (float, float | None, complex | None):
        cplx = kind == complex | None
        pair = val if cplx and isinstance(val, list) and len(val) == 2 \
            else (val, 0)
        parts = [_number(v) for v in pair]
        if None in parts:
            errors.append(f"{path}: expected a number"
                          + " or [real, imag] pair" * cplx)
        elif not all(map(math.isfinite, parts)):
            errors.append(f"{path}: expected a finite number")
        else:
            return complex(*parts) if cplx else parts[0]
        return _BAD
    if isinstance(val, kind) and not (kind is int and isinstance(val, bool)):
        return val
    errors.append(f"{path}: expected {_EXPECTED[kind]}")
    return _BAD


def _field(obj, row, errors, path, fill=None):
    """``row``'s value in ``obj``; if it fails, its default (or ``fill``)."""
    key, _, kind, default = row
    value = _BAD
    if key in obj:
        value = _value(obj[key], kind, errors, f"{path}.{key}")
    elif default is _REQUIRED:
        errors.append(f"{path}.{key}: required field missing")
    if value is _BAD:
        value = fill if default is _REQUIRED else default
        if value == {}:  # a section built from its own defaults
            value = _object({}, kind, errors, f"{path}.{key}")
    return value


def _reject_unknown(obj, rows, errors, path):
    known = {row[0] for row in rows}
    errors.extend(f"{path}.{key}: unknown field" for key in obj
                  if key not in known)


def _object(val, section, errors, path, fill=0):
    """``section`` built from a JSON object, or _BAD with the reason logged.

    ``fill`` replaces a failed required field: 0 still lets the constructor
    report its range errors, _BAD drops the object (a list entry)."""
    if not isinstance(val, dict):
        errors.append(f"{path}: expected an object")
        return _BAD
    _reject_unknown(val, section.rows, errors, path)
    kwargs = {row[1]: _field(val, row, errors, path, fill)
              for row in section.rows}
    if _BAD in kwargs.values():
        return _BAD
    try:
        return section.build(**kwargs)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return _BAD


def _scenario(waveform, sweep, symbol_order, **kwargs):
    if symbol_order is None:  # the waveform's own default
        symbol_order = 4 if waveform == "ofdma" else 2
    return ScenarioConfig(waveform=waveform, symbol_order=symbol_order,
                          **sweep, **kwargs)


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a parsed JSON object into a ScenarioConfig.

    Collects every violation it can find before raising, so a bad file is
    diagnosed in one pass.
    """
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])

    version = _field(data, _VERSION, errors, "$")
    if version not in (None, CONFIG_VERSION):
        errors.append(f"$.version: expected {CONFIG_VERSION}, got {version}")
    waveform = _field(data, _WAVEFORM, errors, "$")
    if waveform not in (None, *_WAVEFORMS):
        errors.append(f"$.waveform: must be one of {_WAVEFORMS}")
    kwargs = {row[1]: _field(data, row, errors, "$") for row in _BODY}
    _reject_unknown(data, _TOP, errors, "$")
    if not errors:
        try:
            return _scenario(waveform=waveform, **kwargs)
        except ValueError as exc:
            errors.append(f"$: {exc}")
    raise ConfigError(errors)


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path}: not valid UTF-8: {exc.reason}"]) \
                from None
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: line {exc.lineno} column "
                               f"{exc.colno}: {exc.msg}"]) from None
    return parse_config(data)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _dump(attrs: dict, rows) -> dict:
    """The canonical JSON object for one section, from its attributes."""
    out = {}
    for key, attr, kind, _ in rows:
        value = attrs[attr]
        if isinstance(kind, list):
            value = [_dump(vars(item), kind[0].rows) for item in value]
        elif isinstance(kind, _Section):
            if value is None:  # an absent optional section
                continue
            value = _dump(vars(value), kind.rows)
        elif kind == complex | None and value is not None:
            value = [value.real, value.imag]
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def canonical_dict(config: ScenarioConfig) -> dict:
    """Every field explicit, defaults included, internal units verbatim."""
    attrs = dict(vars(config), version=CONFIG_VERSION, sweep=config)
    return _dump(attrs, _TOP)


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
