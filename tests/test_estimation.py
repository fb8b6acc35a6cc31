"""Estimators against closed forms, oracles, and constructed datasets."""
import dataclasses
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import norm, rankdata

from conftest import dataset_from_cell_means, records_from_wages, wages_with_mean
from bracketlab.agents import CENSOR_CODE
from bracketlab.cli import _tobit_fits
from bracketlab.design import CODE_CONSISTENT, N_ROWS, RECORDED_WAGE, Scenario, Treatment, price_list
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
    KappaFit,
    MwuResult,
    NotConverged,
    RankDeficient,
    TooLarge,
    cell_wages,
    kappa_profile_oracle,
    mwu_exact,
    mwu_test,
    nls_kappa,
    power_two_sample,
    summarize_means,
    tobit_right,
    _kappa_arrays,
    _kappa_block_bounds,
    _kappa_blocks,
    _kappa_fitted,
    _kappa_jac,
    _kappa_profile,
    _kappa_profile_argmin,
    _rank_setup,
    _tobit_loglik,
)
from bracketlab.reports import render_kappa_csv, render_kappa_markdown


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


_WAGE_GRID = price_list().extra_wages + (CENSOR_CODE,)


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
        assert _pooled_rank_setup(x, y)[2].tolist() == rankdata(x + y).tolist()
        assert mwu_test(x, y, continuity) == _rankdata_mwu(x, y, continuity)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(*[st.lists(st.sampled_from(_WAGE_GRID), max_size=40)] * 2),  # heavy ties
            st.tuples(*[st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=40)] * 2),
            st.tuples(*[st.lists(st.floats(-3, 3).map(lambda v: round(v, 1)), max_size=40)] * 2),
            st.tuples(*[st.lists(st.floats(allow_infinity=True), max_size=5)] * 2),  # NaN and infinities
        ),
        st.booleans(),
    )
    @example(([], [1.0]), False)
    @example(([1.0, float("nan")], [2.0]), False)
    @example(([2.0], [1.0, float("nan")]), False)
    @example(([0.0, -0.0], [-0.0, 1.0]), True)
    def test_value_tables_match_pooled_ranks(self, samples, continuity):
        x, y = samples
        try:
            n1, n2, ranks, pooled_counts = _pooled_rank_setup(x, y)
        except (EmptySample, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                _rank_setup(x, y)
            assert str(got.value) == str(exc)
            return
        got_n1, got_n2, midranks, in_x, counts = _rank_setup(x, y)
        assert (got_n1, got_n2) == (n1, n2)
        assert counts.tolist() == pooled_counts.tolist()
        assert np.repeat(midranks, counts).tolist() == np.sort(ranks).tolist()
        assert np.repeat(midranks, in_x).tolist() == np.sort(ranks[:n1]).tolist()
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


def _pooled_rank_setup(x, y):
    """Sample sizes, each pooled observation's midrank and the pooled tie counts: the oracle for _rank_setup."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptySample("both samples must be nonempty")
    pooled = np.concatenate([x, y])
    if np.isnan(pooled).any():
        raise ValueError("samples must not contain NaN")
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return x.size, y.size, ranks, counts


def _enumerated_exact(x, y):
    """Exact p by enumerating every relabeling; the reference for mwu_exact."""
    n1, n2, ranks, _ = _pooled_rank_setup(x, y)
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

    def test_fit_records_and_renders_its_anchors(self):
        cells = dict(REFERENCE_CELLS)
        cells[Treatment.PARTIAL] = cells.pop(Treatment.BROAD)
        fit = nls_kappa(dataset_from_cell_means(cells), broad_label=Treatment.PARTIAL)
        assert (fit.broad, fit.narrow, fit.mid) == (Treatment.PARTIAL, Treatment.LOW, Treatment.NARROW)
        markdown, csv = render_kappa_markdown(fit), render_kappa_csv(fit)
        assert "| PARTIAL mean S1 |" in markdown and "- anchors: broad=PARTIAL, narrow=LOW, mid=NARROW" in markdown
        assert "\nPARTIAL mean S1," in csv
        assert "BROAD" not in markdown + csv

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


def _grid_profile_argmin(means, counts):
    """The profile oracle's reference: the first arg-min over every point of the grid."""
    kappas = (np.arange(40001) - 10000) / 1e4
    u = 1.0 - kappas
    v = kappas
    total = np.zeros_like(kappas)
    for s in range(2):
        gap = u * means[0, s] + v * means[1, s] - means[2, s]
        n_b, n_n, n_m = counts[0, s], counts[1, s], counts[2, s]
        total += n_m * gap**2 / (1.0 + n_m * (u**2 / n_b + v**2 / n_n))
    return float(kappas[int(np.argmin(total))])


def _cells(values):
    """A (broad, narrow, mid) x (S1, S2) table as float64."""
    return np.array(values, dtype=float).reshape(3, 2)


PROFILE_MEAN = st.one_of(st.sampled_from(RECORDED_WAGE.tolist()), st.floats(0.0, 4.25))
PROFILE_COUNT = st.one_of(st.integers(1, 100), st.integers(1, 10**7))
# two scenarios mirrored in broad and narrow: the profile's two wells tie bit for bit
TIED = ([[3.0, 1.0], [1.0, 3.0], [2.9, 2.9]], [[3, 1], [1, 3], [10**5, 10**5]])


class TestKappaProfileOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        means=st.lists(PROFILE_MEAN, min_size=6, max_size=6),
        counts=st.lists(PROFILE_COUNT, min_size=6, max_size=6),
    )
    # mid = narrow, then mid = broad: the minimum sits at kappa 1, then 0
    @example(means=[[2.89, 2.98], [2.30, 2.77], [2.30, 2.77]], counts=[[100] * 2] * 3)
    @example(means=[[2.89, 2.98], [2.30, 2.77], [2.89, 2.98]], counts=[[40, 7], [900, 3], [1, 10**7]])
    # minimisers at kappa 4 and -2, outside the grid: its last point wins, then its first
    @example(means=[[3.0, 2.5], [2.0, 2.25], [-1.0, 1.5]], counts=[[100] * 2] * 3)
    @example(means=[[3.0, 2.5], [2.0, 2.25], [5.0, 3.0]], counts=[[100] * 2] * 3)
    # S2 flat
    @example(means=[[2.89, 2.5], [2.30, 2.5], [2.6, 2.5]], counts=[[100, 3], [50, 10**7], [20, 1]])
    @example(means=TIED[0], counts=TIED[1])
    # each fails a bound taken at the block midpoint, or without the sign-change test
    @example(means=[[2.707, 1.147], [0.174, 0.07], [3.456, 3.879]],
             counts=[[17638, 127784], [6388, 3511616], [514014, 1]])
    @example(means=[[2.175, 4.039], [0.613, 4.032], [1.325, 1.799]],
             counts=[[622183, 732], [7033, 2], [188188, 5848]])
    # the least-bound block does not hold the minimum
    @example(means=[[2.466, 1.269], [2.856, 0.848], [4.004, 1.552]],
             counts=[[5, 25337], [3090878, 1210], [4809871, 3157]])
    def test_pruned_grid_is_the_full_grid_bit_for_bit(self, means, counts):
        means, counts = _cells(means), _cells(counts)
        assert _kappa_profile_argmin(means, counts) == _grid_profile_argmin(means, counts)

    def test_blocks_tile_the_grid(self):
        grid = (np.arange(40001) - 10000) / 1e4
        flat = _kappa_blocks().ravel()
        assert _kappa_blocks().shape == (157, 256)
        assert flat[: grid.size].tobytes() == grid.tobytes()
        assert (flat[grid.size:] == grid[-1]).all()

    @pytest.mark.parametrize("share", [1.0, 0.0])
    def test_a_mixture_of_one_frame_returns_its_grid_point(self, share):
        # mid = narrow at share 1 and mid = broad at share 0: the grid holds 1 and 0 exactly
        arms = {Treatment.BROAD: 500, Treatment.NARROW: 500, Treatment.LOW: 500}
        spec = PopulationSpec(counts=arms, seed=0, composition=MixtureComposition(share), tremble=0.0,
                              gamma_bounds=(1.8, 2.2))
        assert kappa_profile_oracle(simulate_dataset(spec)) == share

    def test_ties_go_to_the_first_grid_point(self):
        means, counts = map(_cells, TIED)
        total = _kappa_profile(_kappa_blocks().ravel()[:40001], means, counts)
        first, second = np.flatnonzero(total == total.min())
        assert second // 256 > first // 256  # in different blocks
        assert _kappa_profile_argmin(means, counts) == _kappa_blocks().ravel()[first]

    def test_a_flat_profile_keeps_every_block(self):
        # the profile varies by less than the rounding margin, so nothing is pruned
        means, counts = _cells([[1.0, 1.0], [1.0 + 1e-8, 1.0], [1.0, 1.0]]), _cells([[1e7] * 2] * 3)
        bounds = _kappa_block_bounds(means, counts)
        assert (bounds <= _kappa_profile(_kappa_blocks().ravel(), means, counts).min()).all()
        assert _kappa_profile_argmin(means, counts) == _grid_profile_argmin(means, counts)

    @pytest.mark.parametrize("drop", [True, False])
    def test_golden_data_is_the_full_grid(self, drop):
        data = read_csv(str(GOLDEN_CSV))
        _, _, means, counts = _kappa_arrays(data, Treatment.BROAD, Treatment.LOW, Treatment.NARROW, drop)
        assert _kappa_profile_argmin(means, counts) == _grid_profile_argmin(means, counts)
        if drop:
            assert kappa_profile_oracle(data) == _grid_profile_argmin(means, counts)

    def test_keep_inconsistent_checks_the_fit_on_the_golden_data(self):
        data = read_csv(str(GOLDEN_CSV))
        _, _, means, counts = _kappa_arrays(data, Treatment.BROAD, Treatment.LOW, Treatment.NARROW, False)
        kept = _kappa_profile_argmin(means, counts)
        assert kept != kappa_profile_oracle(data)
        assert nls_kappa(data, drop_inconsistent=False).kappa == pytest.approx(kept, abs=2e-4)

    def test_keep_inconsistent_checks_the_fit_under_trembles(self):
        arms = {Treatment.BROAD: 400, Treatment.NARROW: 400, Treatment.LOW: 400}
        spec = PopulationSpec(counts=arms, seed=2, composition=MixtureComposition(0.7), tremble=0.3)
        data = simulate_dataset(spec)
        assert not data.observations.consistent.all()
        _, _, means, counts = _kappa_arrays(data, Treatment.BROAD, Treatment.LOW, Treatment.NARROW, False)
        kept = _kappa_profile_argmin(means, counts)
        assert nls_kappa(data, drop_inconsistent=False).kappa == pytest.approx(kept, abs=2e-4)
        assert kept == _grid_profile_argmin(means, counts)


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


def _counted_rows(y, X):
    """The distinct rows of [X, y], in the order np.lexsort gives their bits, and each one's count: the
    collapse tobit_right made before it grouped with experiment._distinct_rows (the oracle)."""
    columns = [column.view(np.uint64) for column in (*X.T, y)]
    order = np.lexsort(columns)
    columns = [column[order] for column in columns]
    new = np.zeros(len(y), bool)
    new[0] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new)
    *x, y = (column[starts].view(float) for column in columns)
    return y, np.column_stack(x), np.diff(starts, append=len(order))


def _collapsed_rows(y, X):
    """The (y, X, counts) that tobit_right hands its likelihood, or None if it raises before the first call."""
    seen = []

    def recording(theta, y, X, limit, cens, counts):
        seen.append((y, X, counts))
        return _tobit_loglik(theta, y, X, limit, cens, counts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("bracketlab.estimation._tobit_loglik", recording)
        try:
            tobit_right(y, X)
        except (AllCensored, NotConverged):
            pass
    return seen[0] if seen else None


def _assert_collapse_is_counted_rows(y, X):
    got, want = _collapsed_rows(y, X), _counted_rows(y, X)
    assert got is not None
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# one finite design, and the one cell that each case makes non-finite
_FINITE_Y = np.array([1.0, 2.0, 2.5, 3.0, 3.5, 1.5])
_FINITE_X = np.column_stack([np.ones(6), [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
NON_FINITE = {
    "nan-y": (None, math.nan),
    "minus-inf-y": (None, -math.inf),
    "plus-inf-y": (None, math.inf),
    "nan-X": (0, math.nan),
    "inf-X": (0, math.inf),
    "nan-X-second-column": (1, math.nan),
}


class TestTobit:
    @pytest.mark.parametrize("column, value", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_input_is_rejected_before_numpy_sees_it(self, column, value):
        y, X = _FINITE_Y.copy(), _FINITE_X.copy()
        if column is None:
            y[2] = value
        else:
            X[2, column] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the likelihood must not warn first
            if value == math.inf and column is None:
                # a response above the limit is censored, however far
                fit = tobit_right(y, X)
                y[2] = CENSOR_CODE
                assert (fit.n_censored, fit.n_uncensored) == (1, 5)
                assert fit.beta == pytest.approx(tobit_right(y, X).beta, rel=1e-9)
                return
            with pytest.raises(ValueError, match="NaN or -inf" if column is None else "X must be finite"):
                tobit_right(y, X)

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

    @settings(max_examples=60, deadline=None)
    @given(_tobit_arms(), st.randoms(use_true_random=False))
    def test_row_order_does_not_change_a_bit(self, arms, rng):
        y, X = _arm_design(arms)
        order = list(range(len(y)))
        rng.shuffle(order)
        assert _bits(tobit_right(y[order], X[order])) == _bits(tobit_right(y, X))

    def test_row_order_does_not_change_a_bit_on_golden_data(self, monkeypatch):
        designs = []
        monkeypatch.setattr("bracketlab.cli.tobit_right", lambda y, X, limit: designs.append((y, X)))
        _tobit_fits(read_csv(str(GOLDEN_CSV)), True, CENSOR_CODE)
        for y, X in designs:
            order = np.random.default_rng(5).permutation(len(y))
            assert _bits(tobit_right(y[order], X[order])) == _bits(tobit_right(y, X))

    @settings(max_examples=60, deadline=None)
    @given(_tobit_arms(), st.sampled_from([2, 3]))
    def test_repeated_rows_scale_the_likelihood_alone(self, arms, repeat):
        y, X = _arm_design(arms)
        once, again = tobit_right(y, X), tobit_right(np.tile(y, repeat), np.tile(X, (repeat, 1)))
        assert again.beta == pytest.approx(once.beta, rel=1e-9, abs=1e-12)
        assert again.sigma == pytest.approx(once.sigma, rel=1e-9)
        assert again.loglik == pytest.approx(repeat * once.loglik, rel=1e-9)
        assert (again.n_censored, again.n_uncensored) == (repeat * once.n_censored, repeat * once.n_uncensored)

    def test_likelihood_sums_over_distinct_rows_on_golden_data(self, monkeypatch):
        rows = []

        def recording(theta, y, *args):
            rows.append(len(y))
            return _tobit_loglik(theta, y, *args)

        monkeypatch.setattr("bracketlab.estimation._tobit_loglik", recording)
        fits = _tobit_fits(read_csv(str(GOLDEN_CSV)), True, CENSOR_CODE)
        arms = max(len(names) for _, names, _ in fits)
        assert all(fit.n_censored + fit.n_uncensored > arms * len(_WAGE_GRID) for _, _, fit in fits)
        assert rows and max(rows) <= arms * len(_WAGE_GRID)

    def test_collapse_is_the_counted_rows_on_golden_data(self, monkeypatch):
        designs = []
        monkeypatch.setattr("bracketlab.cli.tobit_right", lambda y, X, limit: designs.append((y, X)))
        _tobit_fits(read_csv(str(GOLDEN_CSV)), True, CENSOR_CODE)
        assert len(designs) == 2
        for y, X in designs:
            _assert_collapse_is_counted_rows(y, X)

    @settings(max_examples=60, deadline=None)
    @given(_tobit_arms(), st.randoms(use_true_random=False))
    def test_collapse_is_the_counted_rows(self, arms, rng):
        y, X = _arm_design(arms)
        order = list(range(len(y)))
        rng.shuffle(order)
        _assert_collapse_is_counted_rows(y[order], X[order])

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


def _row_nls_kappa(dataset, broad_label=Treatment.BROAD, narrow_label=Treatment.LOW,
                   mid_label=Treatment.NARROW, drop_inconsistent=True):
    """nls_kappa's damped Gauss-Newton on row-walk arrays, masked cell means and a row-built design (the oracle)."""
    y, group, scen = _row_kappa_arrays(dataset, (broad_label, narrow_label, mid_label), drop_inconsistent)
    means = np.array([[y[(group == g) & (scen == s)].mean() for s in range(2)] for g in range(3)])
    theta = np.array([means[0, 0], means[0, 1], means[1, 0], means[1, 1], 0.5])

    def rss_at(t):
        r = y - _row_kappa_design(t, group, scen)[0]
        return float(r @ r)

    rss = rss_at(theta)
    converged = False
    for iterations in range(1, 501):
        fitted, jac = _row_kappa_design(theta, group, scen)
        resid = y - fitted
        grad = 2.0 * (jac.T @ resid)
        if float(np.linalg.norm(grad)) < 1e-8:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac.T @ jac, jac.T @ resid, rcond=None)
        lam = 1.0
        while lam > 1e-12 and rss_at(theta + lam * step) > rss:
            lam /= 2.0
        taken = lam * step
        theta = theta + taken
        rss = rss_at(theta)
        if float(np.linalg.norm(taken)) < 1e-10:
            fitted, jac = _row_kappa_design(theta, group, scen)
            grad = 2.0 * (jac.T @ (y - fitted))
            converged = float(np.linalg.norm(grad)) < 1e-8
            break
    fitted, jac = _row_kappa_design(theta, group, scen)
    resid = y - fitted
    bread = np.linalg.inv(jac.T @ jac)
    robust = bread @ (jac.T @ (jac * (resid**2)[:, None])) @ bread
    model_cov = (resid @ resid / max(y.size - 5, 1)) * bread
    se_r = np.sqrt(np.maximum(np.diag(robust), 0.0))
    se_m = np.sqrt(np.maximum(np.diag(model_cov), 0.0))
    return KappaFit(
        b_s=(float(theta[0]), float(theta[1])),
        n_s=(float(theta[2]), float(theta[3])),
        se_b_s=(float(se_r[0]), float(se_r[1])),
        se_n_s=(float(se_r[2]), float(se_r[3])),
        kappa=float(theta[4]),
        se_kappa=float(se_r[4]),
        se_kappa_model=float(se_m[4]),
        iterations=iterations,
        converged=bool(converged),
        rss=float(resid @ resid),
        n_obs=int(y.size),
        broad=broad_label,
        narrow=narrow_label,
        mid=mid_label,
    )


def _bits(fit):
    """Every field of a fit, floats as their exact hex."""
    def exact(value):
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return float.hex(value) if isinstance(value, float) else value
    return {f.name: exact(getattr(fit, f.name)) for f in dataclasses.fields(fit)}


# one row key per subject: scenario code above a 16-bit accept code
ROW_KEYS = st.builds(
    lambda scenario, code: scenario << N_ROWS | code,
    st.integers(0, 1),
    st.one_of(st.sampled_from(np.flatnonzero(CODE_CONSISTENT).tolist()), st.integers(0, (1 << N_ROWS) - 1)),
)


def dataset_from_rows(rows):
    """One single-scenario subject per (treatment code, row key), in the order given."""
    n = len(rows)
    return Dataset._from_columns(
        [f"S{j}" for j in range(n)],
        [t for t, _ in rows],
        (np.zeros(n, bool), np.full(n, 30), np.full(n, 5)),
        np.arange(n + 1),
        [key for _, key in rows],
    )


def _masked_kappa_cells(dataset, labels, drop_inconsistent):
    """Each cell's count and mean by one boolean mask per cell, or the Degenerate message (the oracle)."""
    obs = dataset.observations
    keep = obs.consistent if drop_inconsistent else np.ones(obs.res_wage.size, bool)
    means, counts = np.zeros((3, 2)), np.zeros((3, 2))
    for g, label in enumerate(labels):
        for s in range(2):
            sel = keep & (obs.treatment == list(Treatment).index(label)) & (obs.scenario == s)
            counts[g, s] = sel.sum()
            if not counts[g, s]:
                return (f"no {'consistent ' if drop_inconsistent else ''}observations for "
                        f"{label.value} in S{s + 1}; kappa needs all three treatments in both scenarios")
            means[g, s] = obs.res_wage[sel].mean()
    if all(abs(means[0, s] - means[1, s]) < 1e-9 for s in range(2)):
        return ("broad and narrow cell means coincide in both scenarios; "
                "the bracketing weight is unidentified on this data")
    return means, counts


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
            y, cell, _, _ = _kappa_arrays(data, *labels[:3], drop_inconsistent=drop)
        except Degenerate:
            cells = set(zip(group_o.tolist(), scen_o.tolist()))
            assert len(cells) < 6 or all(
                abs(y_o[(group_o == 0) & (scen_o == s)].mean() - y_o[(group_o == 1) & (scen_o == s)].mean())
                < 1e-9
                for s in range(2)
            )
        else:
            assert y.tolist() == y_o.tolist()
            assert cell.tolist() == (2 * group_o + scen_o).tolist()

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
        cell = 2 * group + scen
        assert np.take(_kappa_fitted(theta), cell).tobytes() == fitted.tobytes()
        assert _kappa_jac(theta, cell).tobytes() == jac.tobytes()

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

    @pytest.mark.parametrize("drop", [True, False])
    def test_nls_kappa_is_the_row_wise_fit_bit_for_bit_on_the_golden_data(self, drop):
        data = read_csv(str(GOLDEN_CSV))
        assert _bits(nls_kappa(data, drop_inconsistent=drop)) == _bits(_row_nls_kappa(data, drop_inconsistent=drop))

    @pytest.mark.parametrize("source", ["simulated", "read", "records"])
    @pytest.mark.parametrize("tremble", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("anchor", [Treatment.BROAD, Treatment.PARTIAL])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_nls_kappa_is_the_row_wise_fit_bit_for_bit_on_mixtures(self, tmp_path, seed, anchor, drop, tremble,
                                                                   source):
        arms = {Treatment.BROAD: 150, Treatment.NARROW: 150, Treatment.LOW: 150, Treatment.PARTIAL: 150}
        data = simulate_dataset(PopulationSpec(counts=arms, seed=seed, composition=MixtureComposition(0.7),
                                               tremble=tremble))
        if source == "read":
            write_csv(data, str(tmp_path / "data.csv"))
            data = read_csv(str(tmp_path / "data.csv"))
        elif source == "records":
            data = Dataset(data.records)
        # _kappa_arrays' bincount means keep the masked means' bits only because every recorded
        # wage is a multiple of 1/4 (and small), so each partial sum is exact in any order
        quarters = 4 * data.observations.res_wage
        assert (quarters == np.floor(quarters)).all() and quarters.max() <= 17
        y, cell, means, _ = _kappa_arrays(data, anchor, Treatment.LOW, Treatment.NARROW, drop)
        assert [float.hex(m) for m in means.ravel()] == [float.hex(y[cell == c].mean()) for c in range(6)]
        fit = nls_kappa(data, broad_label=anchor, drop_inconsistent=drop)
        assert _bits(fit) == _bits(_row_nls_kappa(data, broad_label=anchor, drop_inconsistent=drop))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, len(Treatment) - 1), ROW_KEYS), max_size=80),
        labels=st.permutations(list(Treatment)),
        drop=st.booleans(),
        fill=st.lists(st.integers(0, 80), max_size=6),
    )
    def test_kappa_cells_are_the_masked_means_bit_for_bit(self, rows, labels, drop, fill):
        # fill[k] places a consistent row of labels' k-th cell, so most examples fill every cell
        for k, at in enumerate(fill):
            g, s = divmod(k, 2)
            rows.insert(at, (list(Treatment).index(labels[g]), s << N_ROWS | (1 << N_ROWS) - (1 << (at % 17))))
        data = dataset_from_rows(rows)
        expected = _masked_kappa_cells(data, labels[:3], drop)
        try:
            _, _, means, counts = _kappa_arrays(data, *labels[:3], drop_inconsistent=drop)
        except Degenerate as exc:
            assert str(exc) == expected
        else:
            assert means.tobytes() == expected[0].tobytes()
            assert counts.tobytes() == expected[1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, len(Treatment) - 1), ROW_KEYS), max_size=80), drop=st.booleans())
    def test_cell_wages_is_the_group_by_over_the_walk(self, rows, drop):
        data = dataset_from_rows(rows)
        walked: dict = {}
        for record, outcome in iter_observations(data, drop):
            walked.setdefault((record.treatment, outcome.scenario), []).append(outcome.res_wage)
        # the walk keys cells as it meets them; cell_wages in declaration order
        order = list(itertools.product(Treatment, Scenario))
        grouped = cell_wages(data, drop)
        assert [(key, values.tolist()) for key, values in grouped.items()] == sorted(
            walked.items(), key=lambda item: order.index(item[0])
        )
