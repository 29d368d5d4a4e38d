"""Flat key=value experiment configuration with one typed config per experiment.

The format is deliberately rigid: one ``key = value`` pair per line, ``#``
comments, dotted section names, no nesting. Every experiment declares the
exact keys it accepts; unknown or inapplicable keys are hard errors, since
a silently ignored typo would corrupt a sweep.

Each experiment's config is a frozen dataclass whose keyed fields declare
their config key, default text and a parser that returns the final
validated value; a subclass changes a default by redeclaring the field.
Rules that relate two keys live in ``__post_init__``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

from .compiler import STYLES
from .pulses import SpinSystem
from .search import MAX_ORDER, OracleSpec, all_oracles

# Resource caps, enforced before anything is allocated. The defaults and
# the benchmark workloads stay far below them.
MAX_FREQ_POINTS = 100001
MAX_EPS_POINTS = 1000
MAX_GRID_VALUES = 64
# Bound on a spectra run's total work: matching sets x r.values x
# freq.points. The per-key caps alone would allow 6 x 10 x 100001.
MAX_TRACE_POINTS = 1_000_000

# Range of every system.* value (Hz for J, seconds for the times) and of
# freq.span (Hz): decades beyond any real spin pair or spectrum, and small
# enough that every delay, line width, squared width and frequency grid
# derived from it stays finite and strictly increasing (J=1e-320 overflows
# a delay duration, T2=1e-300 a squared line width, freq.span=1e308 the
# grid ends, freq.span=1e-320 the grid spacing).
MAGNITUDE_RANGE = (1e-9, 1e9)


class ConfigError(ValueError):
    """Malformed configuration text, unknown key, or invalid value."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def apply_overrides(mapping: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply ``key=value`` command-line overrides on top of a mapping."""
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_hash(mapping: dict[str, str]) -> str:
    """Stable short hash of the effective configuration.

    The output location is excluded: it does not change what is computed.
    """
    physics = {k: v for k, v in mapping.items() if not k.startswith("output.")}
    blob = "\n".join(f"{k}={v}" for k, v in sorted(physics.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# value parsers: each returns a final, validated value or raises ConfigError

def _float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"not a number: {s!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"number must be finite: {s!r}")
    return v


def _magnitude(s: str) -> float:
    """A positive physical magnitude within ``MAGNITUDE_RANGE``."""
    v = _float(s)
    lo, hi = MAGNITUDE_RANGE
    if not lo <= v <= hi:
        raise ConfigError(f"{s} outside [{lo:g}, {hi:g}]")
    return v


def _error(s: str) -> float:
    """A systematic error fraction."""
    e = _float(s)
    if not abs(e) < 1.0:
        raise ConfigError(f"error fraction {e} must satisfy |e| < 1")
    return e


def _path(s: str) -> str:
    if not s:  # "" would write into the working directory
        raise ConfigError("empty path")
    return s


def _int_in(lo: int, hi: int, what: str = "value") -> Callable[[str], int]:
    def parse(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise ConfigError(f"not an integer: {s!r}") from None
        if not lo <= v <= hi:
            raise ConfigError(f"{what} {v} outside {lo}..{hi}")
        return v

    return parse


def _items(s: str, parse: Callable[[str], object]) -> tuple:
    """A comma list parsed entry by entry; entries that parse equal
    (``1,01`` or ``0.1,0.10``) are rejected as given twice."""
    items = [x.strip() for x in s.split(",") if x.strip()]
    if not items:
        raise ConfigError("empty list")
    if len(items) > MAX_GRID_VALUES:
        raise ConfigError(f"{len(items)} entries, more than {MAX_GRID_VALUES}")
    values = tuple(parse(x) for x in items)
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"entry {items[i]!r} given twice in {s!r}")
    return values


def _error_list(s: str) -> tuple[float, ...]:
    return _items(s, _error)


_order = _int_in(0, MAX_ORDER, "recursion order")


def _orders(s: str) -> tuple[int | None, ...]:
    """Recursion orders; ``inf`` selects the direct target preparation."""
    return _items(s, lambda x: None if x == "inf" else _order(x))


def _style(s: str) -> str:
    if s not in STYLES:
        raise ConfigError(f"unknown pulse style {s!r}")
    return s


def _styles(s: str) -> tuple[str, ...]:
    return _items(s, _style)


def _matching(s: str) -> tuple[OracleSpec, ...]:
    """Matching sets like ``00+01;10+01``; ``all`` parses to ``()``, which
    the config resolves to every set of its oracle size."""
    if s == "all":
        return ()
    specs = []
    for group in s.split(";"):
        states = [x.strip() for x in group.split("+") if x.strip()]
        if not states:
            raise ConfigError(f"empty matching set in {s!r}")
        try:
            spec = OracleSpec(frozenset(states))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # every state is valid by now, so a repeat shows by the fifth
        for i, state in enumerate(states):
            if state in states[:i]:
                raise ConfigError(f"state {state} given twice in {s!r}")
        if spec in specs:
            raise ConfigError(f"matching set {spec.label()} given twice in {s!r}")
        specs.append(spec)
    return tuple(specs)


def _oracles_of_size(specs: tuple[OracleSpec, ...], k: int) -> tuple[OracleSpec, ...]:
    for spec in specs:
        if spec.k != k:
            raise ConfigError(
                f"matching set {spec.label()} has {spec.k} states, expected {k}"
            )
    return specs or all_oracles(k)


# ---------------------------------------------------------------------------
# per-experiment configs

def _key(name: str, default: str, parse: Callable[[str], object]):
    """A config field read from key ``name``."""
    return field(metadata={"key": name, "default": default, "parse": parse})


def _keyed_fields(cls: type) -> list:
    return [f for f in fields(cls) if "key" in f.metadata]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A validated experiment: the effective key=value mapping plus typed fields."""

    experiment: str
    mapping: dict[str, str]
    out_dir: str = _key("output.dir", "out", _path)

    def hash(self) -> str:
        return config_hash(self.mapping)


@dataclass(frozen=True, kw_only=True)
class Table1Config(ExperimentConfig):
    """Gate-level table: ideal P(r) depends only on k, so no oracle is set."""

    r_max: int = _key("r.max", "4", _order)


@dataclass(frozen=True, kw_only=True)
class PulseConfig(ExperimentConfig):
    """Base of the pulse-level experiments: the oracles. J cancels from every
    delay phase and T2 only sets line widths, so most run on SpinSystem()."""

    oracle_k: int = 1
    oracles: tuple[OracleSpec, ...] = _key("oracle.matching", "all", _matching)

    def __post_init__(self) -> None:
        try:
            oracles = _oracles_of_size(self.oracles, self.oracle_k)
        except ConfigError as exc:
            raise ConfigError(f"oracle.matching: {exc}") from None
        # experiments iterate the oracles in this order
        oracles = tuple(sorted(oracles, key=OracleSpec.label))
        object.__setattr__(self, "oracles", oracles)


@dataclass(frozen=True, kw_only=True)
class SystemConfig(PulseConfig):
    """A pulse-level experiment that reads J and T2_H from its keys."""

    J: float = _key("system.j", str(SpinSystem.J), _magnitude)
    T2_H: float = _key("system.t2_h", str(SpinSystem.T2_H), _magnitude)

    @cached_property
    def system(self) -> SpinSystem:
        return SpinSystem(J=self.J, T2_H=self.T2_H)


@dataclass(frozen=True, kw_only=True)
class CurvesConfig(PulseConfig):
    r_max: int = _key("r.max", "3", _order)
    styles: tuple[str, ...] = _key("style", "naive,bb1", _styles)
    eps: float = _key("error.eps", "0", _error)
    delta_j: float = _key("error.delta_j", "0", _error)


@dataclass(frozen=True, kw_only=True)
class K2CurvesConfig(CurvesConfig):
    oracle_k: int = 2
    styles: tuple[str, ...] = _key("style", "naive", _styles)


@dataclass(frozen=True, kw_only=True)
class RobustnessConfig(SystemConfig):
    # Parsed, validated and never read: the benchmark's golden robustness.csv
    # records this experiment's config hash, which covers these keys. They
    # go when that golden copy is re-recorded.
    t90: float = _key("system.t90", "15e-6", _magnitude)
    T2_C: float = _key("system.t2_c", "0.6", _magnitude)
    r_max: int = _key("r.max", "3", _order)
    eps_values: tuple[float, ...] = _key("error.eps", "0,0.02,0.05,0.1", _error_list)
    delta_j_values: tuple[float, ...] = _key("error.delta_j", "0,0.05", _error_list)


@dataclass(frozen=True, kw_only=True)
class Bb1ScalingConfig(PulseConfig):
    oracles: tuple[OracleSpec, ...] = _key("oracle.matching", "11", _matching)
    eps_min: float = _key("eps.min", "1e-3", _float)
    eps_max: float = _key("eps.max", "1e-2", _float)
    eps_points: int = _key("eps.points", "8", _int_in(2, MAX_EPS_POINTS))

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.oracles) != 1:
            labels = ";".join(o.label() for o in self.oracles)
            raise ConfigError(
                f"oracle.matching: bb1-scaling takes one single-state set, "
                f"got {len(self.oracles)} ({labels})"
            )
        if not 1e-3 <= self.eps_min < self.eps_max <= 1e-1:
            raise ConfigError("eps grid must satisfy 1e-3 <= min < max <= 1e-1")


@dataclass(frozen=True, kw_only=True)
class SpectraConfig(SystemConfig):
    oracle_k: int = _key("oracle.k", "1", _int_in(1, 2))
    r_values: tuple[int | None, ...] = _key("r.values", "0,1,2,3,inf", _orders)
    styles: tuple[str, ...] = _key("style", "naive", lambda s: (_style(s),))
    eps: float = _key("error.eps", "0", _error)
    delta_j: float = _key("error.delta_j", "0", _error)
    # T2-limited lines are a fraction of a Hz wide; the default grid
    # spacing of 0.1 Hz keeps sampled peak heights within ~12 percent
    freq_span: float = _key("freq.span", "150", _magnitude)
    freq_points: int = _key("freq.points", "3001", _int_in(2, MAX_FREQ_POINTS))

    def __post_init__(self) -> None:
        super().__post_init__()
        sets, orders = len(self.oracles), len(self.r_values)
        total = sets * orders * self.freq_points
        if total > MAX_TRACE_POINTS:
            raise ConfigError(
                f"trace points: {sets} matching sets x {orders} r.values x "
                f"{self.freq_points} freq.points = {total}, "
                f"more than {MAX_TRACE_POINTS}"
            )


CONFIGS: dict[str, type[ExperimentConfig]] = {
    "table1": Table1Config,
    "k1-curves": CurvesConfig,
    "k2-curves": K2CurvesConfig,
    "robustness": RobustnessConfig,
    "bb1-scaling": Bb1ScalingConfig,
    "spectra": SpectraConfig,
}

EXPERIMENT_NAMES = tuple(CONFIGS)


def _config_class(experiment: str) -> type[ExperimentConfig]:
    if experiment not in CONFIGS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENT_NAMES}"
        )
    return CONFIGS[experiment]


def default_mapping(experiment: str) -> dict[str, str]:
    return {
        f.metadata["key"]: f.metadata["default"]
        for f in _keyed_fields(_config_class(experiment))
    }


def build_config(experiment: str, mapping: dict[str, str]) -> ExperimentConfig:
    """Validate a raw mapping against the experiment's config class."""
    cls = _config_class(experiment)
    effective = default_mapping(experiment)
    unknown = sorted(set(mapping) - set(effective))
    if unknown:
        raise ConfigError(
            f"unknown keys for {experiment}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(effective))})"
        )
    effective.update(mapping)
    values: dict[str, object] = {}
    for f in _keyed_fields(cls):
        name = f.metadata["key"]
        try:
            values[f.name] = f.metadata["parse"](effective[name])
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return cls(experiment=experiment, mapping=effective, **values)
