"""INI parsing: defaults, overrides, and the failure messages."""
import math

import pytest

from bracketlab.config import ConfigError, example_config, parse_config
from bracketlab.design import Treatment
from bracketlab.experiment import KappaComposition, MixtureComposition


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL = """
[population]
broad = 10
low = 5
seed = 42
"""


def test_minimal_config(tmp_path):
    config = parse_config(write(tmp_path, MINIMAL))
    assert config.population.counts == {Treatment.BROAD: 10, Treatment.LOW: 5}
    assert config.population.seed == 42
    assert config.population.composition == MixtureComposition(1.0)
    assert config.workers == 1
    assert config.censor_limit == 4.25
    assert not config.continuity
    assert config.drop_inconsistent


def test_example_config_parses_to_defaults(tmp_path):
    config = parse_config(write(tmp_path, example_config()))
    pop = config.population
    assert pop.counts == {Treatment.BROAD: 120, Treatment.NARROW: 120, Treatment.LOW: 120}
    assert pop.seed == 20250819
    assert pop.alpha_location == pytest.approx(math.log(0.004), abs=1e-12)
    assert pop.gamma_bounds == (1.0, 4.0)
    assert pop.rho is None
    assert pop.tremble == 0.05


def test_missing_seed_names_the_field(tmp_path):
    path = write(tmp_path, "[population]\nbroad = 10\n")
    with pytest.raises(ConfigError, match=r"\[population\] seed"):
        parse_config(path)


def test_seed_override_and_optional_seed(tmp_path):
    path = write(tmp_path, "[population]\nbroad = 10\n")
    assert parse_config(path, seed_override=7).population.seed == 7
    assert parse_config(path, require_seed=False).population.seed == 0
    assert parse_config(write(tmp_path, MINIMAL), seed_override=9).population.seed == 9


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[population]\nseed = 1\nbroa = 10\n")
    with pytest.raises(ConfigError, match="broa"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[population]\nseed = 1\n\n[plots]\nx = 1\n")
    with pytest.raises(ConfigError, match="plots"):
        parse_config(path)


def test_composition_keys_are_exclusive(tmp_path):
    path = write(tmp_path, "[population]\nseed = 1\nnarrow_share = 0.5\nkappa = 0.5\n")
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(path)


def test_kappa_composition(tmp_path):
    path = write(tmp_path, "[population]\nseed = 1\nkappa = 0.7\n")
    assert parse_config(path).population.composition == KappaComposition(0.7)


def test_unparseable_value(tmp_path):
    path = write(tmp_path, "[population]\nseed = soon\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(path)


def test_invalid_population_value_wrapped(tmp_path):
    path = write(tmp_path, "[population]\nseed = 1\ntremble = 1.5\n")
    with pytest.raises(ConfigError, match="tremble"):
        parse_config(path)


def test_estimator_section(tmp_path):
    text = MINIMAL + "\n[estimators]\ncensor_limit = 3.5\ncontinuity = true\nkeep_inconsistent = true\n"
    config = parse_config(write(tmp_path, text))
    assert config.censor_limit == 3.5
    assert config.continuity
    assert not config.drop_inconsistent


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/run.ini")


def test_workers_validation(tmp_path):
    path = write(tmp_path, "[population]\nseed = 1\nworkers = 0\n")
    with pytest.raises(ConfigError, match="workers"):
        parse_config(path)


def test_shipped_example_matches_template():
    from pathlib import Path

    shipped = Path(__file__).parent.parent / "configs" / "example.ini"
    assert shipped.read_text(encoding="utf-8") == example_config()
