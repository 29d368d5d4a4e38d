"""Flat key=value experiment configuration, declared in one key table.

The format is deliberately rigid: one ``key = value`` pair per line, ``#``
comments, dotted section names, no nesting. ``KEYS`` declares the exact keys
each experiment accepts, in the order they are checked, each with the config
attribute it sets, its default text and a parser that returns the final
validated value. Unknown or inapplicable keys and empty list entries are
hard errors, since a silently ignored typo would corrupt a sweep. Rules that
relate two keys are ``RULES``, keyed by experiment.
"""

from __future__ import annotations

import hashlib
import math
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
    """A comma list parsed entry by entry; an empty entry (``0,,1`` or
    ``0,``) is rejected, and so are entries that parse equal (``1,01`` or
    ``0.1,0.10``), as given twice."""
    items = [x.strip() for x in s.split(",")]
    if not any(items):
        raise ConfigError("empty list")
    if "" in items:
        raise ConfigError(f"empty entry in {s!r}")
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
        states = [x.strip() for x in group.split("+")]
        if not any(states):
            raise ConfigError(f"empty matching set in {s!r}")
        if "" in states:
            raise ConfigError(f"empty state in {s!r}")
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


# ---------------------------------------------------------------------------
# per-experiment keys: key -> (config attribute, default text, parser), in
# the order they are checked, so the first bad key is the one reported

_OUTPUT = {"output.dir": ("out_dir", "out", _path)}
_ORACLES = {"oracle.matching": ("oracles", "all", _matching)}
# J cancels from every delay phase and T2 only sets line widths, so only the
# experiments that take these keys run on anything but SpinSystem()
_SYSTEM = {
    "system.j": ("J", str(SpinSystem.J), _magnitude),
    "system.t2_h": ("T2_H", str(SpinSystem.T2_H), _magnitude),
}
_ERRORS = {"error.eps": ("eps", "0", _error), "error.delta_j": ("delta_j", "0", _error)}
_CURVES = {
    **_OUTPUT, **_ORACLES,
    "r.max": ("r_max", "3", _order),
    "style": ("styles", "naive,bb1", _styles),
    **_ERRORS,
}

KEYS: dict[str, dict[str, tuple[str, str, Callable[[str], object]]]] = {
    # gate level: the ideal P(r) depends only on k, so no oracle is set
    "table1": {**_OUTPUT, "r.max": ("r_max", "4", _order)},
    "k1-curves": _CURVES,
    "k2-curves": {**_CURVES, "style": ("styles", "naive", _styles)},
    "robustness": {
        **_OUTPUT, **_ORACLES,
        # The four system.* keys are parsed, validated and never read: the
        # benchmark's golden robustness.csv records this experiment's config
        # hash, which covers them. They go when that golden copy is re-recorded.
        **_SYSTEM,
        "system.t90": ("t90", "15e-6", _magnitude),
        "system.t2_c": ("T2_C", "0.6", _magnitude),
        "r.max": ("r_max", "3", _order),
        "error.eps": ("eps_values", "0,0.02,0.05,0.1", _error_list),
        "error.delta_j": ("delta_j_values", "0,0.05", _error_list),
    },
    "bb1-scaling": {
        **_OUTPUT,
        "oracle.matching": ("oracles", "11", _matching),
        "eps.min": ("eps_min", "1e-3", _float),
        "eps.max": ("eps_max", "1e-2", _float),
        "eps.points": ("eps_points", "8", _int_in(2, MAX_EPS_POINTS)),
    },
    "spectra": {
        **_OUTPUT,
        "oracle.k": ("oracle_k", "1", _int_in(1, 2)),
        **_ORACLES, **_SYSTEM,
        "r.values": ("r_values", "0,1,2,3,inf", _orders),
        "style": ("styles", "naive", lambda s: (_style(s),)),
        **_ERRORS,
        # T2-limited lines are a fraction of a Hz wide; the default grid
        # spacing of 0.1 Hz keeps sampled peak heights within ~12 percent
        "freq.span": ("freq_span", "150", _magnitude),
        "freq.points": ("freq_points", "3001", _int_in(2, MAX_FREQ_POINTS)),
    },
}

EXPERIMENT_NAMES = tuple(KEYS)

# the oracle size of each pulse-level experiment; spectra reads its oracle.k
ORACLE_K = {"k1-curves": 1, "k2-curves": 2, "robustness": 1, "bb1-scaling": 1}


class ExperimentConfig:
    """A validated experiment: its name, the effective key=value mapping and
    one attribute per key of ``KEYS``; read-only once built."""

    def __init__(self, **attributes: object) -> None:
        self.__dict__.update(attributes)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"config attribute {name!r} is read-only")

    __delattr__ = __setattr__

    def hash(self) -> str:
        return config_hash(self.mapping)


# ---------------------------------------------------------------------------
# rules that relate two keys, checked once every key has parsed

def _one_set_on_the_eps_grid(cfg: ExperimentConfig) -> None:
    if len(cfg.oracles) != 1:
        labels = ";".join(o.label() for o in cfg.oracles)
        raise ConfigError(
            f"oracle.matching: bb1-scaling takes one single-state set, "
            f"got {len(cfg.oracles)} ({labels})"
        )
    if not 1e-3 <= cfg.eps_min < cfg.eps_max <= 1e-1:
        raise ConfigError("eps grid must satisfy 1e-3 <= min < max <= 1e-1")


def _trace_point_cap(cfg: ExperimentConfig) -> None:
    sets, orders = len(cfg.oracles), len(cfg.r_values)
    total = sets * orders * cfg.freq_points
    if total > MAX_TRACE_POINTS:
        raise ConfigError(
            f"trace points: {sets} matching sets x {orders} r.values x "
            f"{cfg.freq_points} freq.points = {total}, "
            f"more than {MAX_TRACE_POINTS}"
        )


RULES = {"bb1-scaling": _one_set_on_the_eps_grid, "spectra": _trace_point_cap}


def default_mapping(experiment: str) -> dict[str, str]:
    if experiment not in KEYS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENT_NAMES}"
        )
    return {key: default for key, (_, default, _) in KEYS[experiment].items()}


def build_config(experiment: str, mapping: dict[str, str]) -> ExperimentConfig:
    """Validate a raw mapping against the experiment's keys."""
    effective = default_mapping(experiment)
    unknown = sorted(set(mapping) - set(effective))
    if unknown:
        raise ConfigError(
            f"unknown keys for {experiment}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(effective))})"
        )
    effective.update(mapping)
    values: dict[str, object] = {"experiment": experiment, "mapping": effective}
    for key, (attribute, _, parse) in KEYS[experiment].items():
        try:
            values[attribute] = parse(effective[key])
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if "oracle.matching" in effective:
        k = values.setdefault("oracle_k", ORACLE_K.get(experiment))
        for spec in values["oracles"]:
            if spec.k != k:
                raise ConfigError(f"oracle.matching: matching set {spec.label()} "
                                  f"has {spec.k} states, expected {k}")
        # experiments iterate the oracles in this order
        oracles = values["oracles"] or all_oracles(k)
        values["oracles"] = tuple(sorted(oracles, key=OracleSpec.label))
    if "system.j" in effective:
        values["system"] = SpinSystem(J=values["J"], T2_H=values["T2_H"])
    cfg = ExperimentConfig(**values)
    if experiment in RULES:
        RULES[experiment](cfg)
    return cfg
