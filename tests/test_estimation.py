"""Estimators against closed forms, oracles, and constructed datasets."""
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import norm, rankdata

from conftest import dataset_from_cell_means, records_from_wages, wages_with_mean
from bracketlab.agents import CENSOR_CODE
from bracketlab.cli import _tobit_fits
from bracketlab.design import Scenario, Treatment, price_list
from bracketlab.experiment import (
    Covariates,
    Dataset,
    KappaComposition,
    MixtureComposition,
    PopulationSpec,
    ScenarioOutcome,
    SubjectRecord,
    iter_observations,
    read_csv,
    simulate_dataset,
    write_csv,
)
from bracketlab.estimation import (
    AllCensored,
    Degenerate,
    EmptySample,
    InvalidParams,
    MwuResult,
    NotConverged,
    RankDeficient,
    TooLarge,
    cell_wages,
    kappa_profile_oracle,
    mwu_exact,
    mwu_test,
    nls_kappa,
    ols,
    power_two_sample,
    summarize_means,
    tobit_right,
    _kappa_arrays,
    _kappa_design,
    _rank_setup,
)


GOLDEN_CSV = Path(__file__).parent / "data" / "golden_data.csv"


class TestSummarizeMeans:
    def test_single_record(self):
        data = Dataset(tuple(records_from_wages(Treatment.BROAD, [2.75], [2.75])))
        cells = summarize_means(data)
        assert len(cells) == 2
        s1 = cells[0]
        assert (s1.mean, s1.sd, s1.share_censored, s1.n) == (2.75, 0.0, 0.0, 1)

    def test_censored_enters_at_code(self):
        data = Dataset(tuple(records_from_wages(Treatment.NARROW, [4.25, 2.25], [1.0, 1.0])))
        s1 = summarize_means(data)[0]
        assert s1.mean == pytest.approx(3.25)
        assert s1.share_censored == pytest.approx(0.5)
        assert s1.n == 2

    def test_inconsistent_dropped_by_default(self):
        records = records_from_wages(Treatment.BROAD, [2.0, 2.0], [2.0, 2.0])
        bad = ScenarioOutcome(
            Scenario.S1, (True, False) + (True,) * 14, 0.25, False, False
        )
        records.append(
            SubjectRecord("BROAD-9999", Treatment.BROAD,
                          (bad, records[0].outcomes[1]), Covariates(True, 30, 5))
        )
        data = Dataset(tuple(records))
        by_scenario = {c.scenario: c for c in summarize_means(data)}
        assert by_scenario[Scenario.S1].n == 2
        assert by_scenario[Scenario.S2].n == 3
        kept = {c.scenario: c for c in summarize_means(data, drop_inconsistent=False)}
        assert kept[Scenario.S1].n == 3

    def test_cells_in_treatment_order(self):
        data = Dataset(tuple(
            records_from_wages(Treatment.LOW, [1.0], [1.0])
            + records_from_wages(Treatment.BROAD, [2.0], [2.0])
        ))
        treatments = [c.treatment for c in summarize_means(data)]
        assert treatments == [Treatment.BROAD, Treatment.BROAD, Treatment.LOW, Treatment.LOW]


class TestMwu:
    def test_textbook_separated_samples(self):
        res = mwu_test([1, 2, 3], [4, 5, 6])
        assert res.w == 6.0
        assert res.z == pytest.approx(-1.9639610121239315, abs=1e-12)
        assert res.p == pytest.approx(0.049534613435626706, abs=1e-12)
        assert not res.tie_corrected
        # the exact test disagrees at n=3: the normal approximation is
        # anti-conservative near the lattice edge
        assert mwu_exact([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1)

    def test_all_tied(self):
        res = mwu_test([1.0], [1.0])
        assert (res.z, res.p) == (0.0, 1.0)
        assert res.tie_corrected
        assert mwu_exact([1.0], [1.0]) == 1.0

    def test_worked_ties_example(self):
        res = mwu_test([1, 1], [1, 2])
        assert res.w == 4.0
        assert res.z == -1.0
        assert res.p == pytest.approx(0.31731050786291415, abs=1e-12)
        assert mwu_exact([1, 1], [1, 2]) == 1.0

    def test_balanced_ranks_give_p_one(self):
        res = mwu_test([1, 4], [2, 3])
        assert (res.z, res.p) == (0.0, 1.0)

    def test_continuity_correction_shrinks_z(self):
        plain = mwu_test([1, 2, 3], [4, 5, 6])
        corrected = mwu_test([1, 2, 3], [4, 5, 6], continuity=True)
        assert corrected.continuity
        assert abs(corrected.z) < abs(plain.z)
        assert corrected.z == pytest.approx(-4.0 / math.sqrt(5.25), abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            mwu_test([], [1.0])

    def test_exact_too_large(self):
        with pytest.raises(TooLarge, match="66 pooled observations, got 67"):
            mwu_exact(list(range(34)), list(range(33)))
        # the old 14-observation cap no longer applies
        x, y = [0, 1, 1, 2, 3, 5, 8, 9], [2, 4, 4, 6, 7, 7, 10]
        assert mwu_exact(x, y) == _enumerated_exact(x, y)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            mwu_test([1.0, float("nan")], [2.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.75, 4.25]), min_size=1, max_size=30),
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.75, 4.25]), min_size=1, max_size=30),
        st.booleans(),
    )
    @example([1.0], [2.0], False)
    @example([1.0], [1.0], True)
    @example([4.25] * 5, [4.25] * 3, False)
    @example([4.25] * 5, [4.25] * 3, True)
    def test_matches_rankdata_reference(self, x, y, continuity):
        assert _rank_setup(x, y)[2].tolist() == rankdata(x + y).tolist()  # mwu_exact's ranks too
        assert mwu_test(x, y, continuity) == _rankdata_mwu(x, y, continuity)

    def test_exact_symmetric(self):
        x, y = [1, 2, 2, 5], [2, 3, 7]
        assert mwu_exact(x, y) == pytest.approx(mwu_exact(y, x))

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=6),
        st.lists(st.integers(0, 5), min_size=2, max_size=6),
    )
    def test_two_sided_p_is_label_symmetric(self, x, y):
        assert mwu_test(x, y).p == pytest.approx(mwu_test(y, x).p, abs=1e-12)


def _enumerated_exact(x, y):
    """Exact p by enumerating every relabeling; the reference for mwu_exact."""
    n1, n2, ranks, _ = _rank_setup(x, y)
    n_total = n1 + n2
    expected = n1 * (n_total + 1) / 2.0
    w_obs = float(ranks[:n1].sum())
    threshold = abs(w_obs - expected) - 1e-9
    hits = 0
    total = 0
    for idx in itertools.combinations(range(n_total), n1):
        total += 1
        if abs(ranks[list(idx)].sum() - expected) >= threshold:
            hits += 1
    return hits / total


_WAGE_GRID = price_list().extra_wages + (CENSOR_CODE,)


def _pooled_at_most_14(values):
    return st.integers(1, 13).flatmap(
        lambda n1: st.tuples(
            st.lists(values, min_size=n1, max_size=n1),
            st.lists(values, min_size=1, max_size=14 - n1),
        )
    )


class TestMwuExactOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            _pooled_at_most_14(st.sampled_from(_WAGE_GRID)),  # heavy ties
            _pooled_at_most_14(st.floats(-1e6, 1e6, allow_nan=False)),
        )
    )
    @example(([4.25] * 7, [4.25] * 7))
    @example(([0.25] * 13, [4.25]))
    @example(([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]))
    def test_matches_enumeration(self, samples):
        x, y = samples
        assert mwu_exact(x, y) == _enumerated_exact(x, y)
        assert mwu_exact(x, y) == mwu_exact(y, x)

    def test_at_the_cap_agrees_with_normal_approximation(self):
        rng = np.random.default_rng(3)
        for x, y in [
            (rng.choice(_WAGE_GRID, 33), rng.choice(_WAGE_GRID, 33)),
            (rng.normal(size=33), rng.normal(0.5, 1.0, size=33)),
        ]:
            p = mwu_exact(x, y)
            assert 0.0 < p <= 1.0
            assert p == pytest.approx(mwu_test(x, y).p, abs=0.02)
        # fully separated: only the two extreme relabelings are as far out
        assert mwu_exact(list(range(33)), list(range(33, 66))) == 2 / math.comb(66, 33)


def _rankdata_mwu(x, y, continuity):
    """mwu_test as written on scipy's rankdata, kept as the reference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    ranks = rankdata(pooled)
    n1, n2 = x.size, y.size
    n_total = n1 + n2
    w = float(ranks[:n1].sum())
    expected = n1 * (n_total + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float((counts.astype(float) ** 3 - counts).sum()) / (n_total * (n_total - 1))
    var = n1 * n2 / 12.0 * ((n_total + 1) - tie_term)
    tie_corrected = bool((counts > 1).any())
    if var <= 0.0:
        return MwuResult(w, 0.0, 1.0, tie_corrected, continuity)
    delta = w - expected
    if continuity and delta != 0.0:
        delta -= math.copysign(0.5, delta)
    z = delta / math.sqrt(var)
    p = float(2.0 * ndtr(-abs(z)))
    return MwuResult(w, z, min(p, 1.0), tie_corrected, continuity)


REFERENCE_CELLS = {
    Treatment.BROAD: (2.89, 2.98),
    Treatment.LOW: (2.30, 2.77),
    Treatment.NARROW: (2.07, 2.70),
}


class TestKappa:
    def test_mid_equals_narrow_recovers_one(self):
        cells = dict(REFERENCE_CELLS)
        cells[Treatment.NARROW] = cells[Treatment.LOW]
        fit = nls_kappa(dataset_from_cell_means(cells))
        assert fit.kappa == pytest.approx(1.0, abs=1e-8)
        assert fit.converged
        assert fit.fitted_mid(0) == pytest.approx(2.30, abs=1e-8)
        assert fit.fitted_mid(1) == pytest.approx(2.77, abs=1e-8)

    def test_mid_equals_broad_recovers_zero(self):
        cells = dict(REFERENCE_CELLS)
        cells[Treatment.NARROW] = cells[Treatment.BROAD]
        fit = nls_kappa(dataset_from_cell_means(cells))
        assert fit.kappa == pytest.approx(0.0, abs=1e-8)

    def test_reference_cell_means(self):
        fit = nls_kappa(dataset_from_cell_means(REFERENCE_CELLS))
        assert fit.kappa == pytest.approx(1.38, abs=0.05)
        assert fit.converged and fit.iterations <= 20
        assert fit.se_kappa > 0 and fit.se_kappa_model > 0
        assert fit.n_obs == 600

    def test_matches_profile_oracle(self):
        data = dataset_from_cell_means(REFERENCE_CELLS)
        fit = nls_kappa(data)
        oracle = kappa_profile_oracle(data)
        assert fit.kappa == pytest.approx(oracle, abs=2e-4)

    def test_oracle_endpoints(self):
        cells = dict(REFERENCE_CELLS)
        cells[Treatment.NARROW] = cells[Treatment.LOW]
        assert kappa_profile_oracle(dataset_from_cell_means(cells)) == pytest.approx(1.0, abs=2e-4)
        cells[Treatment.NARROW] = cells[Treatment.BROAD]
        assert kappa_profile_oracle(dataset_from_cell_means(cells)) == pytest.approx(0.0, abs=2e-4)

    def test_fuzz_against_oracle(self):
        rng = np.random.default_rng(5)
        grid = [0.25 * k for k in range(1, 17)] + [4.25]
        for trial in range(5):
            records = []
            for t in (Treatment.BROAD, Treatment.LOW, Treatment.NARROW):
                s1 = rng.choice(grid, size=40).tolist()
                s2 = rng.choice(grid, size=40).tolist()
                records.extend(records_from_wages(t, s1, s2))
            data = Dataset(tuple(records))
            fit = nls_kappa(data)
            assert fit.kappa == pytest.approx(kappa_profile_oracle(data), abs=2e-4)

    def test_scenario_shift_moves_effects_not_kappa(self):
        base = dataset_from_cell_means(REFERENCE_CELLS)
        shifted_cells = {t: (m1, m2 + 0.25) for t, (m1, m2) in REFERENCE_CELLS.items()}
        shifted = dataset_from_cell_means(shifted_cells)
        fit0, fit1 = nls_kappa(base), nls_kappa(shifted)
        assert fit1.kappa == pytest.approx(fit0.kappa, abs=1e-8)
        assert fit1.b_s[1] == pytest.approx(fit0.b_s[1] + 0.25, abs=1e-6)
        assert fit1.b_s[0] == pytest.approx(fit0.b_s[0], abs=1e-6)

    def test_degenerate_equal_anchors(self):
        cells = dict(REFERENCE_CELLS)
        cells[Treatment.LOW] = cells[Treatment.BROAD]
        with pytest.raises(Degenerate):
            nls_kappa(dataset_from_cell_means(cells))
        with pytest.raises(Degenerate):
            kappa_profile_oracle(dataset_from_cell_means(cells))

    def test_degenerate_missing_treatment(self):
        cells = {t: m for t, m in REFERENCE_CELLS.items() if t is not Treatment.LOW}
        with pytest.raises(Degenerate, match="LOW"):
            nls_kappa(dataset_from_cell_means(cells))

    def test_unbalanced_cells_weight_by_observations(self):
        # scenarios favor different kappas; cell sizes then matter
        records = []
        for t, (m1, m2) in {
            Treatment.BROAD: (3.00, 3.50),
            Treatment.LOW: (2.00, 2.50),
            Treatment.NARROW: (2.40, 2.70),
        }.items():
            n = 20 if t is Treatment.NARROW else 80
            records.extend(records_from_wages(t, wages_with_mean(m1, n), wages_with_mean(m2, n)))
        data = Dataset(tuple(records))
        by_obs = kappa_profile_oracle(data)
        assert nls_kappa(data).kappa == pytest.approx(by_obs, abs=2e-4)
        assert 0.5 < by_obs < 0.9


# The reference for tobit_right: its likelihood in (beta, log sigma), a
# parameterization independent of the solver's (beta/sigma, 1/sigma).
def _tobit_loglik_grad(par, y, X, limit, cens):
    """Negative log-likelihood and gradient in (beta, log sigma)."""
    k = X.shape[1]
    beta, s = par[:k], par[k]
    sigma = math.exp(s)
    xb = X @ beta
    unc = ~cens
    zu = (y[unc] - xb[unc]) / sigma
    ll = float(norm.logpdf(zu).sum()) - unc.sum() * s
    g_beta = X[unc].T @ zu / sigma
    g_s = float((zu**2 - 1.0).sum())
    if cens.any():
        a = (limit - xb[cens]) / sigma
        ll += float(norm.logsf(a).sum())
        lam = np.exp(norm.logpdf(a) - norm.logsf(a))
        g_beta = g_beta + X[cens].T @ lam / sigma
        g_s += float((lam * a).sum())
    grad = np.append(g_beta, g_s)
    return -ll, -grad


def _central_difference_se(fit, y, X, limit):
    """SEs of (beta, sigma) from central differences of the reference gradient."""
    cens = y >= limit - 1e-9
    k = X.shape[1]

    def grad(point):
        g = -_tobit_loglik_grad(np.append(point[:k], math.log(point[k])), y, X, limit, cens)[1]
        g[-1] /= point[k]  # chain rule from log sigma to sigma
        return g

    point = np.append(fit.beta, fit.sigma)
    hess = np.zeros((k + 1, k + 1))
    for j in range(k + 1):
        h = np.zeros(k + 1)
        h[j] = 1e-5 * max(1.0, abs(point[j]))
        hess[:, j] = (grad(point + h) - grad(point - h)) / (2.0 * h[j])
    return tuple(np.sqrt(np.diag(np.linalg.inv(-0.5 * (hess + hess.T)))))


def _assert_tobit_local_max(fit, y, X, limit):
    """fit.loglik is the reference value and no +-1e-4 coordinate step beats it."""
    cens = y >= limit - 1e-9

    def ll(beta, sigma):
        return -_tobit_loglik_grad(np.append(beta, math.log(sigma)), y, X, limit, cens)[0]

    best = ll(fit.beta, fit.sigma)
    assert fit.loglik == pytest.approx(best, rel=1e-9)
    for j in range(X.shape[1]):
        for step in (1e-4, -1e-4):
            beta = np.array(fit.beta)
            beta[j] += step
            assert ll(beta, fit.sigma) <= best
    assert ll(fit.beta, fit.sigma + 1e-4) <= best and ll(fit.beta, fit.sigma - 1e-4) <= best


def _arm_design(wages_per_arm):
    """Stacked wages and an intercept-plus-dummies design, as cli._tobit_fits builds it."""
    arm = np.repeat(np.arange(len(wages_per_arm)), [len(w) for w in wages_per_arm])
    X = (arm[:, None] == np.arange(len(wages_per_arm))).astype(float)
    X[:, 0] = 1.0
    return np.concatenate([np.asarray(w, dtype=float) for w in wages_per_arm]), X


def _tobit_arms():
    """2-4 arms of 5-40 wages on the price-list grid or the censor code.

    Every arm keeps an uncensored wage, and the data is not a set of
    constant uncensored arms: otherwise the likelihood has no maximum.
    """
    arm = st.lists(st.sampled_from(_WAGE_GRID), min_size=5, max_size=40)
    arm = arm.filter(lambda w: min(w) < CENSOR_CODE)
    return st.lists(arm, min_size=2, max_size=4).filter(
        lambda arms: any(max(w) == CENSOR_CODE or len(set(w)) > 1 for w in arms)
    )


class TestTobit:
    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf])
    def test_non_finite_limit_is_rejected(self, limit):
        # y >= nan holds for no row: a NaN limit would fit an uncensored model
        with pytest.raises(ValueError, match="must be finite"):
            tobit_right([1.0, 2.0, 4.25], np.ones((3, 1)), limit=limit)

    def test_uncensored_is_gaussian_mle(self):
        fit = tobit_right([1.0, 2.0, 3.0], np.ones((3, 1)), limit=4.25)
        assert fit.beta[0] == pytest.approx(2.0, abs=1e-6)
        assert fit.sigma == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)
        assert fit.n_censored == 0 and fit.n_uncensored == 3
        assert math.isfinite(fit.loglik)

    def test_three_point_censored_is_local_max(self):
        y = np.array([2.0, 3.0, 4.25])
        X = np.ones((3, 1))
        fit = tobit_right(y, X)
        assert fit.n_censored == 1

        def ll(beta, sigma):
            par = np.array([beta, math.log(sigma)])
            return -_tobit_loglik_grad(par, y, X, 4.25, y >= 4.25 - 1e-9)[0]

        best = ll(fit.beta[0], fit.sigma)
        for db, ds in [(1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)]:
            assert ll(fit.beta[0] + db, fit.sigma + ds) <= best + 1e-12

    def test_ascent_from_start(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(120), rng.normal(size=120)])
        y_star = X @ np.array([3.0, 0.8]) + rng.normal(size=120)
        y = np.minimum(y_star, 4.25)
        fit = tobit_right(y, X)
        cens = y >= 4.25 - 1e-9
        beta0, *_ = np.linalg.lstsq(X[~cens], y[~cens], rcond=None)
        sigma0 = max(float(np.sqrt(((y[~cens] - X[~cens] @ beta0) ** 2).mean())), 1e-2)
        start_ll = -_tobit_loglik_grad(np.append(beta0, math.log(sigma0)), y, X, 4.25, cens)[0]
        assert fit.loglik >= start_ll

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(11)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = np.minimum(X @ np.array([3.6, 0.5]) + 0.9 * rng.normal(size=n), 4.25)
        fit = tobit_right(y, X)
        assert 0.15 < fit.n_censored / n < 0.45
        assert fit.beta[0] == pytest.approx(3.6, abs=3 * fit.se[0])
        assert fit.beta[1] == pytest.approx(0.5, abs=3 * fit.se[1])
        assert fit.sigma == pytest.approx(0.9, abs=0.15)

    def test_se_match_central_differences_on_golden_data(self, monkeypatch):
        calls = []

        def recording(y, X, limit):
            fit = tobit_right(y, X, limit=limit)
            calls.append((y, X, limit, fit))
            return fit

        monkeypatch.setattr("bracketlab.cli.tobit_right", recording)
        _tobit_fits(read_csv(str(GOLDEN_CSV)), True, CENSOR_CODE)
        assert len(calls) == 2  # S1 and S2
        for y, X, limit, fit in calls:
            reference = _central_difference_se(fit, y, X, limit)
            assert fit.se + (fit.se_sigma,) == pytest.approx(reference, rel=1e-6)

    def test_se_match_central_differences_on_known_design(self):
        rng = np.random.default_rng(11)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = np.minimum(X @ np.array([3.6, 0.5]) + 0.9 * rng.normal(size=n), 4.25)
        fit = tobit_right(y, X)
        reference = _central_difference_se(fit, y, X, CENSOR_CODE)
        assert fit.se + (fit.se_sigma,) == pytest.approx(reference, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(_tobit_arms())
    def test_fit_is_local_max_of_reference(self, arms):
        y, X = _arm_design(arms)
        _assert_tobit_local_max(tobit_right(y, X), y, X, CENSOR_CODE)

    @pytest.mark.parametrize(
        "arms",
        [[[1.0] * 5, [2.0] * 5], [[1.0] * 5, [CENSOR_CODE] * 5], [[1.0, 2.0, 3.0, 2.0, 1.5], [CENSOR_CODE] * 5]],
        ids=["constant-arms", "constant-arm-and-censored-arm", "censored-arm"],
    )
    def test_unbounded_likelihood_does_not_converge(self, arms):
        # sigma -> 0 raises the likelihood without bound on constant arms, and
        # so does the effect of an arm whose every response is censored
        y, X = _arm_design(arms)
        with pytest.raises(NotConverged):
            tobit_right(y, X)

    def test_stall_tolerance_scales_with_n(self):
        # ~73k rows across six arms of price-list responses with 5% row
        # flips. BFGS used to stop here on "precision loss" at |g|inf ~ 4e-4,
        # a sum over rows that is about 5e-9 per row; the fit must still be
        # the maximum of the reference likelihood
        rng = np.random.default_rng(34)
        grid = 0.25 * np.arange(1, 17)
        n_arm = 25000
        latent = np.repeat([2.89, 2.07, 2.30, 2.52, 2.07, 2.07], n_arm) + 0.9 * rng.standard_normal(6 * n_arm)
        accept = (grid >= latent[:, None]) ^ (rng.random((6 * n_arm, 16)) < 0.05)
        keep = ~(accept[:, :-1] & ~accept[:, 1:]).any(axis=1)
        y = np.where(accept.any(axis=1), grid[accept.argmax(axis=1)], 4.25)[keep]
        X = (np.repeat(np.arange(6), n_arm)[keep, None] == np.arange(6)).astype(float)
        X[:, 0] = 1.0
        fit = tobit_right(y, X)
        assert fit.n_censored + fit.n_uncensored == len(y) > 70000

        cens = y >= 4.25 - 1e-9

        def ll(beta, sigma):
            return -_tobit_loglik_grad(np.append(beta, math.log(sigma)), y, X, 4.25, cens)[0]

        best = ll(fit.beta, fit.sigma)
        assert best == pytest.approx(fit.loglik, abs=1e-9 * abs(fit.loglik))
        for j in range(X.shape[1]):
            for step in (1e-4, -1e-4):
                beta = np.array(fit.beta)
                beta[j] += step
                assert ll(beta, fit.sigma) <= best
        assert ll(fit.beta, fit.sigma + 1e-4) <= best and ll(fit.beta, fit.sigma - 1e-4) <= best

    def test_all_censored(self):
        with pytest.raises(AllCensored):
            tobit_right([4.25, 4.25], np.ones((2, 1)))

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(3), np.ones(3)])
        with pytest.raises(RankDeficient):
            tobit_right([1.0, 2.0, 3.0], X)


class TestPower:
    def test_allocation_with_are(self):
        assert power_two_sample(0.4, 0.05, 0.90, ratio=1.5, wilcoxon_are=True) == (172, 115)

    def test_equal_allocation(self):
        assert power_two_sample(0.4, 0.05, 0.90) == (132, 132)

    def test_huge_effect(self):
        assert power_two_sample(1e9) == (1, 1)

    def test_monotonicity(self):
        n_low = power_two_sample(0.4, power=0.8)[1]
        n_high = power_two_sample(0.4, power=0.95)[1]
        assert n_low <= n_high
        assert power_two_sample(0.5)[1] <= power_two_sample(0.3)[1]
        assert power_two_sample(0.4, alpha=0.1)[1] <= power_two_sample(0.4, alpha=0.01)[1]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(d=0.0), dict(d=-1.0), dict(alpha=0.0), dict(alpha=1.0),
         dict(power=0.5), dict(power=1.0), dict(ratio=0.9)],
    )
    def test_invalid_params(self, kwargs):
        args = dict(d=0.4, alpha=0.05, power=0.9, ratio=1.0)
        args.update(kwargs)
        with pytest.raises(InvalidParams):
            power_two_sample(**args)


class TestOls:
    def test_exact_line(self):
        X = np.column_stack([np.ones(3), np.array([0.0, 1.0, 2.0])])
        fit = ols([1.0, 3.0, 5.0], X)
        assert fit.beta == pytest.approx((1.0, 2.0), abs=1e-12)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            ols([1.0, 2.0], np.column_stack([np.ones(2), np.ones(2)]))


# ------------------------------------------------- the columnar view's oracles


def _row_kappa_arrays(dataset, labels, drop_inconsistent):
    """y, group and scen by the per-record loop the estimators once ran (the oracle)."""
    codes = {label: g for g, label in enumerate(labels)}
    y, group, scen = [], [], []
    for record, outcome in iter_observations(dataset, drop_inconsistent):
        if record.treatment not in codes:
            continue
        y.append(outcome.res_wage)
        group.append(codes[record.treatment])
        scen.append((Scenario.S1, Scenario.S2).index(outcome.scenario))
    return np.asarray(y, dtype=float), np.asarray(group), np.asarray(scen)


def _row_kappa_design(theta, group, scen):
    """Fitted values and Jacobian built row by row (the oracle for the cell tables)."""
    b, n, kappa = theta[0:2], theta[2:4], theta[4]
    fitted = np.where(
        group == 0, b[scen], np.where(group == 1, n[scen], (1.0 - kappa) * b[scen] + kappa * n[scen])
    )
    jac = np.zeros((group.size, 5))
    rows = np.arange(group.size)
    is_b, is_n, is_m = group == 0, group == 1, group == 2
    jac[rows[is_b], scen[is_b]] = 1.0
    jac[rows[is_n], 2 + scen[is_n]] = 1.0
    jac[rows[is_m], scen[is_m]] = 1.0 - kappa
    jac[rows[is_m], 2 + scen[is_m]] = kappa
    jac[rows[is_m], 4] = n[scen[is_m]] - b[scen[is_m]]
    return fitted, jac


class TestColumnarEstimators:
    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from(list(Treatment)), st.integers(0, 6), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        composition=st.one_of(
            st.builds(MixtureComposition, st.floats(0.0, 1.0)),
            st.builds(KappaComposition, st.floats(0.0, 1.0)),
        ),
        rho=st.one_of(st.none(), st.floats(0.001, 0.01)),
        tremble=st.floats(0.0, 1.0),
        labels=st.permutations(list(Treatment)),
        drop=st.booleans(),
    )
    def test_grouping_matches_record_walk(self, counts, seed, composition, rho, tremble, labels, drop):
        data = simulate_dataset(PopulationSpec(
            counts=counts, seed=seed, composition=composition, rho=rho, tremble=tremble,
            gamma_bounds=(1.8, 2.2),
        ))
        walked: dict = {}
        for record, outcome in iter_observations(data, drop):
            walked.setdefault((record.treatment, outcome.scenario), []).append(outcome.res_wage)
        grouped = cell_wages(data, drop)
        order = [(t, s) for t in Treatment for s in Scenario]
        assert list(grouped) == sorted(walked, key=order.index)
        assert {k: v.tolist() for k, v in grouped.items()} == walked

        y_o, group_o, scen_o = _row_kappa_arrays(data, labels[:3], drop)
        try:
            y, group, scen, _, _ = _kappa_arrays(data, *labels[:3], drop_inconsistent=drop)
        except Degenerate:
            cells = set(zip(group_o.tolist(), scen_o.tolist()))
            assert len(cells) < 6 or all(
                abs(y_o[(group_o == 0) & (scen_o == s)].mean() - y_o[(group_o == 1) & (scen_o == s)].mean())
                < 1e-9
                for s in range(2)
            )
        else:
            assert y.tolist() == y_o.tolist()
            assert group.tolist() == group_o.tolist()
            assert scen.tolist() == scen_o.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        theta=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
        codes=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=40),
    )
    def test_cell_tables_match_row_design(self, theta, codes):
        theta = np.array(theta)
        group = np.array([g for g, _ in codes])
        scen = np.array([s for _, s in codes])
        fitted, jac = _row_kappa_design(theta, group, scen)
        gathered = _kappa_design(theta, 2 * group + scen)
        assert gathered[0].tobytes() == fitted.tobytes()
        assert gathered[1].tobytes() == jac.tobytes()

    def test_interleaved_rows_match_grouped_twin(self, tmp_path):
        rng = np.random.default_rng(3)
        arms = {t: records_from_wages(t, rng.permutation(wages_with_mean(m1, 100)),
                                      rng.permutation(wages_with_mean(m2, 100)))
                for t, (m1, m2) in REFERENCE_CELLS.items()}
        skipped = (True, False) + (True,) * 14
        bad = ScenarioOutcome(Scenario.S1, skipped, 0.25, False, False)
        arms[Treatment.LOW][4] = SubjectRecord(
            "LOW-0004", Treatment.LOW, (bad, arms[Treatment.LOW][4].outcomes[1]), Covariates(True, 30, 5)
        )
        # one scenario per record, so consecutive CSV rows change treatment
        arms = {t: [SubjectRecord(f"{r.subject_id}-{o.scenario.value}", t, (o,), r.covariates)
                    for r in records for o in r.outcomes]
                for t, records in arms.items()}
        interleaved = [r for trio in zip(*arms.values()) for r in trio]
        grouped = [r for records in arms.values() for r in records]
        loaded = []
        for name, records in (("interleaved", interleaved), ("grouped", grouped)):
            write_csv(Dataset(tuple(records)), str(tmp_path / f"{name}.csv"))
            loaded.append(read_csv(str(tmp_path / f"{name}.csv")))
        mixed, twin = loaded
        assert mixed.observations.treatment[:3].tolist() == [0, 2, 1]
        for drop in (True, False):
            cells = cell_wages(mixed, drop)
            expected = {
                (t, s): [o.res_wage for r in records for o in r.outcomes
                         if o.scenario is s and (o.consistent or not drop)]
                for t, records in arms.items() for s in Scenario
            }
            assert {k: v.tolist() for k, v in cells.items()} == expected
            assert summarize_means(mixed, drop) == summarize_means(twin, drop)
            assert _tobit_fits(mixed, drop, 4.25) == _tobit_fits(twin, drop, 4.25)
            a, b = nls_kappa(mixed, drop_inconsistent=drop), nls_kappa(twin, drop_inconsistent=drop)
            # row order changes the order of the Gauss-Newton sums, and near the
            # optimum rounding steers the line search, so the fits agree to 1e-7
            assert (a.n_obs, a.rss) == (b.n_obs, pytest.approx(b.rss, rel=1e-12))
            assert a.kappa == pytest.approx(b.kappa, abs=1e-7)
            assert a.se_kappa == pytest.approx(b.se_kappa, rel=1e-6)
        assert kappa_profile_oracle(mixed) == kappa_profile_oracle(twin)
