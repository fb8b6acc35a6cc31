"""bracketlab._normal against scipy.special, the oracle its Cephes ports must match bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from bracketlab import experiment
from bracketlab._normal import log_ndtr, ndtr, ndtri
from bracketlab.design import Treatment
from bracketlab.experiment import KappaComposition, MixtureComposition, PopulationSpec, simulate_dataset, write_csv

TINY = 5e-324  # the smallest subnormal
SQRT2 = math.sqrt(2.0)


def _same(a, b):
    """Bitwise equality, every NaN equal to every NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))).all())


def _around(points):
    """Each point with its two float neighbours."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


# the branch points of ndtr in a: |a| / sqrt 2 = sqrt(1/2), 1, 8 and sqrt(MAXLOG)
NDTR_EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 2.2250738585072014e-308, -1e308, 1e308],
    _around(np.outer([1.0, -1.0], [1.0, SQRT2, 8 * SQRT2, math.sqrt(2 * 7.09782712893383996843e2) * SQRT2]).ravel()),
])
# the branch points of ndtri in y: 0, 1, exp(-2), 1 - exp(-2) and exp(-32), where sqrt(-2 log y) = 8
NDTRI_EDGES = np.concatenate([
    [0.0, -0.0, 1.0, TINY, 2.2250738585072014e-308, 0.5, -0.1, 1.1, -TINY, np.inf, -np.inf, np.nan],
    [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
    _around([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0)]),
])


def _ndtr_points():
    rng = np.random.default_rng(20261019)
    return np.concatenate([
        rng.normal(0.0, 4.0, 300_000),
        rng.uniform(-40.0, 40.0, 300_000),
        rng.uniform(-12.0, 12.0, 200_000),
        -np.exp(rng.uniform(-745.0, 7.0, 100_000)),
        np.exp(rng.uniform(-745.0, 7.0, 100_000)),
        NDTR_EDGES,
    ])


def _ndtri_points():
    rng = np.random.default_rng(20261020)
    return np.concatenate([
        rng.uniform(0.0, 1.0, 400_000),
        np.exp(rng.uniform(-745.0, 0.0, 300_000)),  # the lower tail down to subnormals
        1.0 - np.exp(rng.uniform(-37.0, 0.0, 300_000)),  # the upper tail
        NDTRI_EDGES,
    ])


def _log_ndtr_points():
    rng = np.random.default_rng(20261021)
    return np.concatenate([
        rng.uniform(-1e4, 38.0, 300_000),
        rng.uniform(-25.0, 5.0, 300_000),
        -np.exp(rng.uniform(-30.0, math.log(1e4), 200_000)),
        np.exp(rng.uniform(-30.0, math.log(38.0), 200_000)),
        _around([-20.0, 0.0, -1e4, 38.0]),
    ])


class TestAgainstScipy:
    def test_ndtr_is_bitwise_scipys(self):
        x = _ndtr_points()
        assert x.size >= 10**6
        assert _same(ndtr(x), special.ndtr(x))

    def test_ndtri_is_bitwise_scipys(self):
        y = _ndtri_points()
        assert y.size >= 10**6
        with np.errstate(invalid="ignore"):
            assert _same(ndtri(y), special.ndtri(y))

    def test_log_ndtr_is_within_2e_15_of_scipys(self):
        a = _log_ndtr_points()
        a = a[(a >= -1e4) & (a <= 38.0)]
        assert a.size >= 10**6
        ours, theirs = log_ndtr(a), special.log_ndtr(a)
        assert np.all(np.abs(ours - theirs) <= 2e-15 * np.abs(theirs))

    def test_log_ndtr_at_the_infinities_and_nan(self):
        edges = np.array([np.inf, -np.inf, np.nan])
        assert np.array_equal(log_ndtr(edges), special.log_ndtr(edges), equal_nan=True)

    def test_ndtr_on_floats_and_shaped_arrays_is_bitwise_scipys(self):
        # the calls its callers make: one float at a time, and arrays of any shape
        x = np.concatenate([_ndtr_points()[::10], NDTR_EDGES])
        assert _same([ndtr(v) for v in x.tolist()], special.ndtr(x))
        grid = x[: 6 * (x.size // 6)].reshape(2, 3, -1)
        assert _same(ndtr(grid), special.ndtr(grid))


# every kind of double: finite, +-0, +-inf, NaN and subnormals; for ndtri
# also 0, 1, the interior of [0, 1] and values outside it
DOUBLES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1.0, TINY, -TINY])
PROBABILITIES = st.floats(0.0, 1.0) | st.floats(min_value=0.0, max_value=1e-300) | DOUBLES
ARGUMENTS = {
    "ndtr": st.floats(-40.0, 40.0) | DOUBLES,
    "ndtri": PROBABILITIES,
    "log_ndtr": st.floats(-60.0, 40.0) | DOUBLES,
}
FUNCTIONS = {"ndtr": ndtr, "ndtri": ndtri, "log_ndtr": log_ndtr}


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_array_gives_what_its_elements_give_one_at_a_time(name, data):
    x = data.draw(hnp.arrays(np.float64, st.integers(0, 96), elements=ARGUMENTS[name]))
    function = FUNCTIONS[name]
    with np.errstate(invalid="ignore"):
        one_at_a_time = [function(v) for v in x.tolist()]
        zero_d = [function(np.array(v)) for v in x.tolist()]
        whole = function(x)
    assert all(isinstance(v, np.float64) for v in one_at_a_time + zero_d)
    assert _same(whole, np.array(one_at_a_time, dtype=float)) and _same(zero_d, one_at_a_time)
    if name == "ndtri":
        assert np.isnan(whole[(x < 0.0) | (x > 1.0)]).all()


SCIPY_SPECS = {
    "mixture-0": dict(composition=MixtureComposition(0.0)),
    "mixture-0.7-tremble-0": dict(composition=MixtureComposition(0.7), tremble=0.0),
    "mixture-1-tremble-0.1": dict(composition=MixtureComposition(1.0), tremble=0.1),
    "kappa-0.7": dict(composition=KappaComposition(0.7), tremble=0.0),
    "kappa-0.4-cara": dict(composition=KappaComposition(0.4), rho=0.01, tremble=0.1),
    "mixture-0.5-cara": dict(composition=MixtureComposition(0.5), rho=0.01, tremble=0.0),
    "gamma-hi-inf": dict(composition=MixtureComposition(0.5), gamma_bounds=(1.0, math.inf)),
    "gamma-hi-inf-wide": dict(composition=KappaComposition(0.6), gamma_bounds=(1.5, math.inf), gamma_scale=0.5,
                              tremble=0.1),
    "narrow-bounds-few": dict(composition=MixtureComposition(0.7), gamma_bounds=(1.8, 2.2), tremble=0.0, n=20),
}


@pytest.mark.parametrize("overrides", SCIPY_SPECS.values(), ids=SCIPY_SPECS)
def test_simulate_dataset_is_the_one_scipys_kernels_give(monkeypatch, tmp_path, overrides):
    overrides = dict(overrides)
    n = overrides.pop("n", 150)
    spec = PopulationSpec(counts={t: n for t in (Treatment.BROAD, Treatment.NARROW, Treatment.LOW)}, seed=41,
                          **overrides)
    ours = simulate_dataset(spec)
    with monkeypatch.context() as patch:
        patch.setattr(experiment, "ndtr", special.ndtr)
        patch.setattr(experiment, "ndtri", special.ndtri)
        theirs = simulate_dataset(spec)
    assert ours == theirs
    write_csv(ours, str(tmp_path / "ours.csv"))
    write_csv(theirs, str(tmp_path / "theirs.csv"))
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()
