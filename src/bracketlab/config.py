"""INI run configuration.

Two sections: [population] describes the simulated subject pool and
treatment counts, [estimators] holds analysis options. Flat keys only;
configparser is the whole parser.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .design import CENSOR_CODE, Treatment
from .experiment import KappaComposition, MixtureComposition, PopulationSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "example_config"]


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    population: PopulationSpec
    workers: int = 1
    censor_limit: float = CENSOR_CODE
    continuity: bool = False
    drop_inconsistent: bool = True


_COUNT_KEYS = {t.value.lower(): t for t in Treatment}

# PopulationSpec fields read by key: counts, seed and composition are parsed
# by hand; a pair field is spelled as two keys, every other field is one
# float key of its own name
_PAIR_KEYS = {"gamma_bounds": (("gamma_lo", "gamma_hi"), float), "age_range": (("age_min", "age_max"), int)}
_SPEC_FIELDS = [f for f in fields(PopulationSpec) if f.name not in ("counts", "seed", "composition")]

_POPULATION_KEYS = (
    set(_COUNT_KEYS)
    | {"seed", "narrow_share", "kappa", "workers"}
    | {f.name for f in _SPEC_FIELDS if f.name not in _PAIR_KEYS}
    | {key for keys, _ in _PAIR_KEYS.values() for key in keys}
)

_ESTIMATOR_KEYS = {"censor_limit", "continuity", "keep_inconsistent"}


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            return parser.getboolean(section, key)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def parse_config(
    path: str, seed_override: int | None = None, require_seed: bool = True
) -> RunConfig:
    """Read a run configuration, validating keys and the required seed.

    require_seed=False is for estimator-only consumers; a missing
    [population] section or seed is then accepted, the seed falling back
    to 0.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; the CLI prints one
        raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known = {"population": _POPULATION_KEYS, "estimators": _ESTIMATOR_KEYS}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if require_seed and not parser.has_section("population"):
        raise ConfigError("missing required section [population]")

    counts = {}
    for key, treatment in _COUNT_KEYS.items():
        n = _get(parser, "population", key, int, 0)
        if n:
            counts[treatment] = n

    seed = seed_override
    if seed is None:
        seed = _get(parser, "population", "seed", int, None)
    if seed is None:
        if require_seed:
            raise ConfigError("missing required field: [population] seed")
        seed = 0

    narrow_share = _get(parser, "population", "narrow_share", float, None)
    kappa = _get(parser, "population", "kappa", float, None)
    if narrow_share is not None and kappa is not None:
        raise ConfigError("narrow_share and kappa are mutually exclusive")
    if kappa is not None:
        composition = KappaComposition(kappa)
    else:
        composition = MixtureComposition(1.0 if narrow_share is None else narrow_share)

    kwargs = {}
    for f in _SPEC_FIELDS:
        if f.name in _PAIR_KEYS:
            keys, cast = _PAIR_KEYS[f.name]
            kwargs[f.name] = tuple(_get(parser, "population", k, cast, d) for k, d in zip(keys, f.default))
        else:
            kwargs[f.name] = _get(parser, "population", f.name, float, f.default)
    try:
        population = PopulationSpec(counts=counts, seed=seed, composition=composition, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    workers = _get(parser, "population", "workers", int, 1)
    if workers < 1:
        raise ConfigError("[population] workers: must be at least 1")
    censor_limit = _get(parser, "estimators", "censor_limit", float, CENSOR_CODE)
    if not math.isfinite(censor_limit):
        raise ConfigError(f"[estimators] censor_limit: must be finite, got {censor_limit}")
    return RunConfig(
        population=population,
        workers=workers,
        censor_limit=censor_limit,
        continuity=_get(parser, "estimators", "continuity", bool, False),
        drop_inconsistent=not _get(parser, "estimators", "keep_inconsistent", bool, False),
    )


def example_config() -> str:
    """A commented template documenting every key and its default."""
    return """\
# bracketlab run configuration
[population]
# subjects per treatment arm; omitted arms default to 0
broad = 120
narrow = 120
low = 120
partial = 0
before = 0
after = 0
# master seed, required (or pass --seed)
seed = 20250819
# population composition: share of narrow bracketers in a
# narrow/broad mixture, or a fixed bracketing weight via `kappa = 0.7`
# (the two keys are mutually exclusive)
narrow_share = 1.0
# effort cost scale: log-normal, log alpha ~ location + link * (tediousness - 5.5) + scale * z
alpha_location = -5.521460917862246
alpha_scale = 0.35
alpha_tediousness_link = 0.08
# effort cost convexity: normal truncated to [gamma_lo, gamma_hi];
# gamma_lo is finite, and gamma_hi = inf truncates from below only
gamma_location = 2.0
gamma_scale = 0.15
gamma_male_shift = -0.10
gamma_lo = 1.0
gamma_hi = 4.0
# money curvature: omit for money-linear preferences
# rho = 0.5
# per-row choice error probability
tremble = 0.05
male_share = 0.5
age_min = 18
age_max = 70
# shift applied to the narrow component in framed treatments
framing_shift = 0.0
# accepted for compatibility (at least 1); no effect on output or speed
workers = 1

[estimators]
censor_limit = 4.25
continuity = false
keep_inconsistent = false
"""
