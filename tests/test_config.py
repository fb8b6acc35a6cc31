"""INI parsing: defaults, overrides, and the failure messages."""
import configparser
import math
from pathlib import Path

import numpy as np
import pytest

from bracketlab.config import _POPULATION_KEYS, ConfigError, example_config, parse_config
from bracketlab.design import Treatment
from bracketlab.experiment import KappaComposition, MixtureComposition, PopulationSpec, population_digest


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


def test_estimators_only_config_needs_population_for_a_seed(tmp_path):
    path = write(tmp_path, "[estimators]\ncontinuity = true\n")
    with pytest.raises(ConfigError, match=r"missing required section \[population\]"):
        parse_config(path)
    assert parse_config(path, require_seed=False).continuity


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


@pytest.mark.parametrize("limit", ["nan", "inf", "-inf"])
def test_non_finite_censor_limit_is_rejected(tmp_path, limit):
    text = MINIMAL + f"\n[estimators]\ncensor_limit = {limit}\n"
    with pytest.raises(ConfigError, match=r"\[estimators\] censor_limit: must be finite"):
        parse_config(write(tmp_path, text))


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


GOLDEN_RUN = Path(__file__).parent / "data" / "golden_run.ini"


def test_population_digest_is_pinned():
    assert population_digest(parse_config(str(GOLDEN_RUN)).population) == "b042e684b478"
    spec = PopulationSpec(
        counts={Treatment.BROAD: 3, Treatment.PARTIAL: 2},
        seed=5,
        composition=KappaComposition(0.7),
        rho=0.01,
        gamma_bounds=(1.8, 2.2),
        age_range=(20, 30),
        framing_shift=0.25,
    )
    assert population_digest(spec) == "2693a18adc96"


def test_population_digest_reads_numpy_scalars_as_their_values():
    plain = PopulationSpec(counts={Treatment.BROAD: 6}, seed=1)
    assert population_digest(plain) == "7aafcbbe92f3"
    twins = [
        PopulationSpec(counts={Treatment.BROAD: np.int64(6)}, seed=1),
        PopulationSpec(counts={Treatment.BROAD: 6}, seed=np.int64(1)),
        PopulationSpec(counts={Treatment.BROAD: 6}, seed=1, gamma_bounds=(np.float64(1.0), np.float64(4.0))),
        PopulationSpec(counts={Treatment.BROAD: 6}, seed=1, age_range=(np.int32(18), np.int64(70))),
        PopulationSpec(counts={Treatment.BROAD: 6}, seed=1, composition=MixtureComposition(np.float64(1.0))),
        PopulationSpec(counts={Treatment.BROAD: 6}, seed=1, tremble=np.float64(0.05)),
    ]
    for twin in twins:
        assert twin == plain
        assert population_digest(twin) == "7aafcbbe92f3"
    kappa = dict(counts={Treatment.BROAD: 6}, seed=1, rho=0.01)
    assert population_digest(PopulationSpec(composition=KappaComposition(np.float32(0.5)), **kappa)) == (
        population_digest(PopulationSpec(composition=KappaComposition(0.5), **kappa))
    )


NON_DEFAULT = {
    "broad": "3",
    "narrow": "4",
    "low": "5",
    "partial": "6",
    "before": "7",
    "after": "8",
    "seed": "11",
    "alpha_location": "-5.0",
    "alpha_scale": "0.4",
    "alpha_tediousness_link": "0.1",
    "gamma_location": "2.5",
    "gamma_scale": "0.2",
    "gamma_male_shift": "0.05",
    "gamma_lo": "1.5",
    "gamma_hi": "3.5",
    "rho": "0.01",
    "tremble": "0.1",
    "male_share": "0.4",
    "age_min": "20",
    "age_max": "60",
    "framing_shift": "0.3",
    "workers": "2",
}


@pytest.mark.parametrize(
    "key, value, composition",
    [("kappa", "0.3", KappaComposition(0.3)), ("narrow_share", "0.25", MixtureComposition(0.25))],
)
def test_every_population_key_reaches_the_spec(tmp_path, key, value, composition):
    assert set(NON_DEFAULT) | {"kappa", "narrow_share"} == _POPULATION_KEYS
    keys = {**NON_DEFAULT, key: value}
    text = "[population]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    config = parse_config(write(tmp_path, text))
    expected = PopulationSpec(
        counts=dict(zip(Treatment, range(3, 9))),
        seed=11,
        composition=composition,
        alpha_location=-5.0,
        alpha_scale=0.4,
        alpha_tediousness_link=0.1,
        gamma_location=2.5,
        gamma_scale=0.2,
        gamma_male_shift=0.05,
        gamma_bounds=(1.5, 3.5),
        rho=0.01,
        tremble=0.1,
        male_share=0.4,
        age_range=(20, 60),
        framing_shift=0.3,
    )
    assert config.population == expected
    assert all(type(age) is int for age in config.population.age_range)
    assert config.workers == 2


def test_example_config_documents_every_key():
    parser = configparser.ConfigParser()
    parser.read_string(example_config())
    # rho and kappa are shown commented out: setting them changes the defaults
    assert set(parser.options("population")) | {"rho", "kappa"} == _POPULATION_KEYS
    assert "# rho = " in example_config() and "`kappa = 0.7`" in example_config()
