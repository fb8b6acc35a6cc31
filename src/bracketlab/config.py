"""INI run configuration.

One section, [population], describes the simulated subject pool and
treatment counts. Flat keys only; configparser is the whole parser.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .design import Treatment
from .experiment import KappaComposition, MixtureComposition, PopulationSpec

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    population: PopulationSpec
    workers: int = 1


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


def _get(parser, key, cast, default):
    if not parser.has_option("population", key):
        return default
    raw = parser.get("population", key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[population] {key}: cannot parse {raw!r}") from exc


def parse_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Read a run configuration, validating keys and the required seed."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; the CLI prints one
        raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section != "population":
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _POPULATION_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [population]")
    if not parser.has_section("population"):
        raise ConfigError("missing required section [population]")

    counts = {}
    for key, treatment in _COUNT_KEYS.items():
        n = _get(parser, key, int, 0)
        if n:
            counts[treatment] = n

    seed = _get(parser, "seed", int, None) if seed_override is None else seed_override
    if seed is None:
        raise ConfigError("missing required field: [population] seed")

    narrow_share = _get(parser, "narrow_share", float, None)
    kappa = _get(parser, "kappa", float, None)
    if narrow_share is not None and kappa is not None:
        raise ConfigError("narrow_share and kappa are mutually exclusive")

    kwargs = {}
    for f in _SPEC_FIELDS:
        if f.name in _PAIR_KEYS:
            keys, cast = _PAIR_KEYS[f.name]
            kwargs[f.name] = tuple(_get(parser, k, cast, d) for k, d in zip(keys, f.default))
        else:
            kwargs[f.name] = _get(parser, f.name, float, f.default)
    try:
        if kappa is not None:
            composition = KappaComposition(kappa)
        else:
            composition = MixtureComposition(1.0 if narrow_share is None else narrow_share)
        population = PopulationSpec(counts=counts, seed=seed, composition=composition, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    workers = _get(parser, "workers", int, 1)
    if workers < 1:
        raise ConfigError("[population] workers: must be at least 1")
    return RunConfig(population=population, workers=workers)
