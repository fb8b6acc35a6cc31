"""Design table, subject simulation, dataset determinism, CSV round-trips."""
import copy
import math
import mmap
import os
import pickle
import sys
import threading
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import truncnorm

from bracketlab import experiment
from bracketlab.agents import Agent, Broad, Narrow, reservation_wage_exact, snap_to_list
from bracketlab.design import (
    CENSOR_CODE,
    CODE_CONSISTENT,
    CODE_FIRST_ROW,
    N_ROWS,
    RECORDED_WAGE,
    Scenario,
    Treatment,
    price_list,
    treatment_spec,
)
from bracketlab.experiment import (
    CSV_COLUMNS,
    Covariates,
    DataFormatError,
    Dataset,
    KappaComposition,
    MixtureComposition,
    PopulationSpec,
    ScenarioOutcome,
    SubjectRecord,
    iter_observations,
    read_csv,
    simulate_dataset,
    simulate_subject,
    subject_stream,
    write_csv,
    _accept_codes,
    _distinct_rows,
    _outcome_text,
    _outcomes,
    _parse_row,
    _pcg64_state,
    _stream_states,
    _subject_draws,
)
from bracketlab._ziggurat import KI_DOUBLE, WI_DOUBLE
from bracketlab.preferences import Bundle, QuasiLinearPowerCost

QL = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)

DATA = Path(__file__).parent / "data"

FRAMED = [Treatment.BROAD, Treatment.NARROW, Treatment.PARTIAL, Treatment.BEFORE, Treatment.AFTER]


class TestDesignTable:
    def test_narrow_s1_row(self):
        spec = treatment_spec(Treatment.NARROW, Scenario.S1)
        assert spec.option_a == Bundle(0, 4.0)
        assert spec.option_b(0.25) == Bundle(15, 4.25)
        assert spec.option_b(4.0) == Bundle(15, 8.0)
        assert spec.endowment == Bundle(15, 2.0)
        assert spec.full_outcome(spec.option_a) == Bundle(15, 6.0)
        assert spec.full_outcome(spec.option_b(1.0)) == Bundle(30, 7.0)

    def test_broad_s2_row(self):
        spec = treatment_spec(Treatment.BROAD, Scenario.S2)
        assert spec.option_a == Bundle(30, 6.0)
        assert spec.option_b(1.0) == Bundle(45, 7.0)
        assert spec.endowment == Bundle(0, 0.0)

    @pytest.mark.parametrize("enum_type", [Treatment, Scenario])
    def test_members_hash_by_identity_and_keep_their_values(self, enum_type):
        assert enum_type.__hash__ is object.__hash__
        members = list(enum_type)
        assert [m.value for m in members] == [m.name for m in members]
        assert [m.name for m in members] == (
            ["BROAD", "NARROW", "LOW", "PARTIAL", "BEFORE", "AFTER"] if enum_type is Treatment else ["S1", "S2"]
        )
        for member in members:
            assert hash(member) == object.__hash__(member)
            assert enum_type(member.value) is member and enum_type[member.name] is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member and copy.copy(member) is member

    def test_base_wage_constant(self):
        for t in Treatment:
            for s in Scenario:
                assert treatment_spec(t, s).base_wage == 4.0

    def test_option_b_is_fifteen_tasks_heavier(self):
        for t in Treatment:
            for s in Scenario:
                spec = treatment_spec(t, s)
                assert spec.option_b_tasks - spec.option_a.tasks == 15

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_full_outcomes_agree_across_framed_treatments(self, scenario):
        def outcome_set(t):
            spec = treatment_spec(t, scenario)
            return frozenset(
                (spec.full_outcome(spec.option_a), spec.full_outcome(spec.option_b(r)))
                for r in price_list().extra_wages
            )

        reference = outcome_set(Treatment.BROAD)
        for t in FRAMED[1:]:
            assert outcome_set(t) == reference

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_low_differs_from_narrow_only_in_endowed_tasks(self, scenario):
        low = treatment_spec(Treatment.LOW, scenario)
        narrow = treatment_spec(Treatment.NARROW, scenario)
        assert low.option_a == narrow.option_a
        assert low.option_b_tasks == narrow.option_b_tasks
        assert low.endowment.money == narrow.endowment.money
        assert (narrow.endowment.tasks, low.endowment.tasks) == (15, 0)

    def test_price_list(self):
        wages = price_list().extra_wages
        assert len(wages) == 16
        assert wages[0] == 0.25
        assert wages[-1] == 4.0
        assert all(b - a == 0.25 for a, b in zip(wages, wages[1:]))


def _classify_by_rows(choices):
    """Monotonicity flag and recorded wage by the per-choice definitions.

    The rows are monotone iff no accepted row is followed by a rejected
    one; the recorded wage is the grid wage of the first accepted row, or
    the censor code when every row rejects.
    """
    consistent = not any(choices[i] and not choices[i + 1] for i in range(len(choices) - 1))
    return consistent, price_list().extra_wages[choices.index(True)] if True in choices else CENSOR_CODE


def classify_consistency(choices):
    """Monotonicity flag and recorded wage of one price list's choices, as design reads their accept code."""
    code = experiment._accept_code(choices)
    return bool(CODE_CONSISTENT[code]), float(RECORDED_WAGE[CODE_FIRST_ROW[code]])


class TestClassifyConsistency:
    def test_all_reject(self):
        assert classify_consistency((False,) * 16) == (True, 4.25)

    def test_switch_at_row_eight(self):
        flags = (False,) * 7 + (True,) * 9
        assert classify_consistency(flags) == (True, 2.0)

    def test_all_accept(self):
        assert classify_consistency((True,) * 16) == (True, 0.25)

    def test_non_monotone(self):
        flags = (True, False) + (True,) * 14
        consistent, wage = classify_consistency(flags)
        assert not consistent
        assert wage == 0.25  # smallest accepted wage is still recorded

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            classify_consistency((True,) * 15)


class TestSimulateSubject:
    def test_broad_agent_no_tremble(self):
        rng = subject_stream(0, 0)
        record = simulate_subject(
            rng, Agent(QL, Broad()), Treatment.BROAD,
            Covariates(True, 30, 5), subject_id="BROAD-0000",
        )
        s1, s2 = record.outcomes
        assert (s1.res_wage, s1.censored, s1.consistent) == (2.75, False, True)
        assert (s2.res_wage, s2.censored, s2.consistent) == (4.25, True, True)
        assert s1.choices == (False,) * 10 + (True,) * 6
        assert s2.choices == (False,) * 16

    @pytest.mark.parametrize("mode", [Broad(), Narrow()])
    @pytest.mark.parametrize("treatment", list(Treatment))
    def test_no_tremble_is_always_consistent(self, mode, treatment):
        record = simulate_subject(
            subject_stream(1, 1), Agent(QL, mode), treatment, Covariates(False, 40, 7)
        )
        assert all(o.consistent for o in record.outcomes)

    def test_full_tremble_flips_every_row(self):
        record = simulate_subject(
            subject_stream(2, 0), Agent(QL, Broad()), Treatment.BROAD,
            Covariates(True, 30, 5), tremble=1.0,
        )
        s1, s2 = record.outcomes
        assert s1.choices == (True,) * 10 + (False,) * 6
        assert not s1.consistent
        assert s1.res_wage == 0.25
        assert not s1.censored  # recomputed from the flipped rows
        assert s2.choices == (True,) * 16  # all-reject flips to all-accept
        assert s2.consistent and s2.res_wage == 0.25

    def test_moderate_tremble_produces_inconsistency(self):
        inconsistent = 0
        for j in range(50):
            record = simulate_subject(
                subject_stream(3, j), Agent(QL, Broad()), Treatment.BROAD,
                Covariates(True, 30, 5), tremble=0.25,
            )
            inconsistent += sum(not o.consistent for o in record.outcomes)
        assert inconsistent > 0


def small_spec(**overrides):
    defaults = dict(
        counts={Treatment.BROAD: 8, Treatment.NARROW: 8, Treatment.LOW: 8},
        seed=7,
        composition=MixtureComposition(0.5),
        tremble=0.1,
    )
    defaults.update(overrides)
    return PopulationSpec(**defaults)


def _draw_subject(spec, rng):
    """One subject's covariates and agent: the one-row case of simulate_dataset's draws."""
    population = experiment._population(spec, [np.array([draw]) for draw in _subject_draws(spec, rng)])
    model = experiment._member_model(spec, float(population.alpha[0]), float(population.gamma[0]))
    mode = population.modes[population.mode_index[0]]
    return Covariates(*(column[0].item() for column in population.covariates)), Agent(model, mode, spec.framing_shift)


class TestSimulateDataset:
    def test_deterministic(self):
        assert simulate_dataset(small_spec()) == simulate_dataset(small_spec())

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from(Treatment), st.integers(0, 6), max_size=3),
        seed=st.integers(0, 2**32),
        composition=st.one_of(
            st.floats(0.0, 1.0).map(MixtureComposition), st.floats(0.0, 1.5).map(KappaComposition)
        ),
        tremble=st.sampled_from([0.0, 0.3]),
        workers=st.integers(1, 4),
    )
    @example(
        counts=small_spec().counts, seed=7, composition=MixtureComposition(0.5), tremble=0.1, workers=4
    )
    def test_worker_invariant(self, counts, seed, composition, tremble, workers):
        spec = small_spec(counts=counts, seed=seed, composition=composition, tremble=tremble)
        data, serial = simulate_dataset(spec, workers=workers), simulate_dataset(spec, workers=1)
        assert data == serial
        assert (data.seed, data.spec_digest) == (serial.seed, serial.spec_digest)

    def test_counts_and_ids(self):
        data = simulate_dataset(small_spec())
        assert len(data) == 24
        assert data.records[0].subject_id == "BROAD-0000"
        treatments = [r.treatment for r in data.records]
        assert treatments == sorted(treatments, key=lambda t: list(Treatment).index(t))

    @pytest.mark.parametrize("count", [0, 1, 99, 100, 101, 9_999, 10_000, 10_001])
    def test_id_suffixes_are_the_formatted_ones(self, count):
        assert experiment._id_suffixes(count) == [f"-{j:04d}" for j in range(count)]

    def test_ids_past_the_suffix_tables(self):
        data = simulate_dataset(small_spec(counts={Treatment.BROAD: 10_001}))
        assert [r.subject_id for r in data.records[-3:]] == ["BROAD-9998", "BROAD-9999", "BROAD-10000"]

    def test_empty_counts(self):
        assert len(simulate_dataset(small_spec(counts={}))) == 0

    def test_common_random_numbers_across_treatments(self):
        # subject j draws one preference; narrow agents then behave
        # identically in NARROW and LOW, which differ only by endowment
        spec = small_spec(
            counts={Treatment.NARROW: 12, Treatment.LOW: 12},
            composition=MixtureComposition(1.0),
            tremble=0.0,
        )
        data = simulate_dataset(spec)
        narrow = [r for r in data.records if r.treatment is Treatment.NARROW]
        low = [r for r in data.records if r.treatment is Treatment.LOW]
        for a, b in zip(narrow, low):
            assert [o.res_wage for o in a.outcomes] == [o.res_wage for o in b.outcomes]
            assert a.covariates == b.covariates

    def test_degenerate_scales_give_textbook_wages(self):
        spec = small_spec(
            counts={Treatment.NARROW: 4},
            composition=MixtureComposition(1.0),
            tremble=0.0,
            alpha_scale=0.0,
            alpha_tediousness_link=0.0,
            gamma_scale=0.0,
            gamma_male_shift=0.0,
        )
        data = simulate_dataset(spec)
        for record in data.records:
            assert [o.res_wage for o in record.outcomes] == [1.0, 2.75]

    def test_kappa_composition(self):
        spec = small_spec(
            counts={Treatment.NARROW: 4},
            composition=KappaComposition(0.5),
            tremble=0.0,
            alpha_scale=0.0,
            alpha_tediousness_link=0.0,
            gamma_scale=0.0,
            gamma_male_shift=0.0,
        )
        data = simulate_dataset(spec)
        # kappa 0.5 mixes r_broad = 2.7 and r_narrow = 0.9 into 1.8
        assert data.records[0].outcomes[0].res_wage == snap_to_list(1.8)[0]

    def test_gamma_draws_respect_bounds(self):
        spec = small_spec(gamma_bounds=(1.8, 2.2), gamma_scale=0.5)
        gammas = []
        for j in range(100):
            _, agent = _draw_subject(spec, subject_stream(11, j))
            gammas.append(agent.model.gamma)
        assert all(1.8 <= g <= 2.2 for g in gammas)
        assert max(gammas) - min(gammas) > 0.1

    @pytest.mark.parametrize("rho", [None, 0.01])
    @pytest.mark.parametrize("composition", [MixtureComposition(0.5), KappaComposition(0.7)])
    def test_matches_per_subject_reference(self, composition, rho):
        # one subject at a time, each treatment drawing subject j afresh
        spec = PopulationSpec(
            counts={
                Treatment.BROAD: 7,
                Treatment.NARROW: 3,
                Treatment.LOW: 5,
                Treatment.PARTIAL: 1,
                Treatment.BEFORE: 4,
                Treatment.AFTER: 2,
            },
            seed=29,
            composition=composition,
            rho=rho,
            tremble=0.3,
            framing_shift=0.4,
        )
        expected = []
        for treatment in Treatment:
            for j in range(spec.counts[treatment]):
                rng = subject_stream(spec.seed, j)
                covariates, agent = _draw_subject(spec, rng)
                expected.append(
                    simulate_subject(
                        rng, agent, treatment, covariates,
                        subject_id=f"{treatment.value}-{j:04d}", tremble=spec.tremble,
                    )
                )
        data = simulate_dataset(spec)
        assert data.records == tuple(expected)
        # equal outcomes are one shared object
        outcomes = [o for r in data.records for o in r.outcomes]
        assert len({id(o) for o in outcomes}) == len(set(outcomes))

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_dataset(small_spec(), workers=0)
        with pytest.raises(ValueError, match=r"^workers must be an integer, got 1\.5$"):
            simulate_dataset(small_spec(), workers=1.5)
        with pytest.raises(ValueError, match=r"^workers must be an integer, got True$"):
            simulate_dataset(small_spec(), workers=True)
        with pytest.raises(ValueError):
            small_spec(tremble=1.5)
        with pytest.raises(ValueError):
            small_spec(counts={Treatment.BROAD: -1})
        with pytest.raises(ValueError):
            small_spec(gamma_bounds=(0.5, 4.0))
        with pytest.raises(ValueError):
            MixtureComposition(1.2)

    @pytest.mark.parametrize(
        "bounds", [(math.inf, math.inf), (math.nan, 4.0), (2.0, math.nan), (0.5, 4.0), (3.0, 2.0)],
        ids=["lo-inf", "lo-nan", "hi-nan", "lo-below-1", "lo-above-hi"],
    )
    def test_gamma_bounds_need_a_finite_lo_between_1_and_hi(self, bounds):
        with pytest.raises(ValueError, match=r"^gamma_bounds must satisfy 1 <= lo <= hi with a finite lo$"):
            small_spec(gamma_bounds=bounds)

    def test_an_infinite_upper_gamma_bound_truncates_from_below_only(self):
        # as an upper bound no draw reaches, which leaves every draw where it is
        spec = small_spec(gamma_bounds=(1.9, math.inf))
        assert simulate_dataset(spec) == simulate_dataset(small_spec(gamma_bounds=(1.9, 1e6)))

    @pytest.mark.parametrize("lo, hi", [(3.5, math.inf), (3.5, 4.0), (7.6, math.inf), (7.6, 8.0)])
    def test_a_lower_gamma_bound_far_above_the_location_draws_from_the_tail(self, lo, hi):
        # lo = 3.5 is 10 sd above the women's location and 10.7 above the men's,
        # where the CDF rounds to 1.0 at both bounds: only the survival function
        # resolves them; lo = 7.6 is 37.3 and 38 sd above, where the men's
        # survival values underflow to 0 as well: only their logs resolve them
        spec = PopulationSpec(counts={Treatment.BROAD: 40, Treatment.LOW: 40}, seed=3, gamma_bounds=(lo, hi))
        columns, _ = experiment._bulk_draws(spec, 40)
        male, gamma = columns[0] < spec.male_share, experiment._population(spec, columns).gamma
        assert np.isfinite(gamma).all() and (gamma > lo).all() and len(set(gamma.tolist())) > 1
        loc = spec.gamma_location + np.where(male, spec.gamma_male_shift, 0.0)
        z_lo, z_hi = (lo - loc) / spec.gamma_scale, (hi - loc) / spec.gamma_scale
        expected = truncnorm.ppf(columns[4], z_lo, z_hi, loc=loc, scale=spec.gamma_scale)
        np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=0.0)
        assert len(simulate_dataset(spec)) == 80

    def test_an_upper_gamma_bound_far_below_the_location_draws_from_the_tail(self):
        # the mirror image: hi = 4.0 is 40 sd below the women's location and
        # 39.3 below the men's, where both bounds' CDFs underflow to 0
        spec = PopulationSpec(counts={Treatment.BROAD: 40}, seed=3, gamma_location=10.0, gamma_bounds=(1.0, 4.0))
        columns, _ = experiment._bulk_draws(spec, 40)
        male, gamma = columns[0] < spec.male_share, experiment._population(spec, columns).gamma
        assert np.isfinite(gamma).all() and (gamma < 4.0).all() and len(set(gamma.tolist())) > 1
        loc = spec.gamma_location + np.where(male, spec.gamma_male_shift, 0.0)
        z_lo, z_hi = (1.0 - loc) / spec.gamma_scale, (4.0 - loc) / spec.gamma_scale
        expected = truncnorm.ppf(columns[4], z_lo, z_hi, loc=loc, scale=spec.gamma_scale)
        np.testing.assert_allclose(gamma, expected, rtol=1e-12, atol=0.0)
        assert len(simulate_dataset(spec)) == 40

    def test_a_draw_at_a_far_lower_bound_with_the_location_inside_is_the_bound(self):
        # lo is 60 sd below the location and hi = inf: at u = 0 the draw's CDF
        # underflows, but no tail holds both bounds, so the CDF inversion keeps it
        u, loc = np.array([0.0, 0.5]), np.array([10.0])
        drawn = experiment._truncated_normal(u, loc, np.zeros(2, np.intp), 0.15, 1.0, math.inf)
        np.testing.assert_array_equal(drawn, [1.0, 10.0])

    @settings(max_examples=60, deadline=None)
    @given(
        # a + u (b - a) cancels as u nears 1, in either tail, so u stops short of it
        u=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=20),
        loc=st.floats(1.0, 4.0),
        scale=st.floats(0.05, 1.0),
        # the survival function turns subnormal at about 37.5 sd and underflows to 0 at 37.7
        z_lo=st.one_of(st.floats(-6.0, 30.0), st.floats(37.0, 38.0), st.floats(38.0, 60.0)),
        z_width=st.one_of(st.just(math.inf), st.floats(0.01, 20.0)),
    )
    # both bounds' survival values subnormal, where a CDF inversion keeps too few digits
    @example(u=[0.1, 0.5, 0.9, 0.999], loc=2.0, scale=0.15, z_lo=37.65, z_width=0.1)
    # lo's survival value is a normal float and hi's, 8e-5 of it, is flushed to 0
    @example(u=[0.5], loc=1.0, scale=1.0, z_lo=37.5, z_width=0.25)
    def test_truncated_normal_draws_are_scipys(self, u, loc, scale, z_lo, z_width):
        u, lo, hi = np.array(u), loc + z_lo * scale, loc + (z_lo + z_width) * scale
        drawn = experiment._truncated_normal(u, np.array([loc]), np.zeros(u.size, np.intp), scale, lo, hi)
        expected = truncnorm.ppf(u, (lo - loc) / scale, (hi - loc) / scale, loc=loc, scale=scale)
        assert ((lo <= drawn) & (drawn <= hi)).all()
        np.testing.assert_allclose(drawn, expected, rtol=1e-9, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        # the mirror image of the test above, with a finite lo as PopulationSpec
        # requires, and u as numpy draws it near 0: 0 or a multiple of 2**-53
        u=st.lists(st.one_of(st.just(0.0), st.floats(2.0**-53, 0.999)), min_size=1, max_size=20),
        loc=st.floats(1.0, 4.0),
        scale=st.floats(0.05, 1.0),
        # the CDF turns subnormal at about 37.5 sd below and underflows to 0 at 37.7
        z_hi=st.one_of(st.floats(-30.0, 6.0), st.floats(-38.0, -37.0), st.floats(-60.0, -38.0)),
        z_width=st.floats(0.01, 40.0),
    )
    # both bounds' CDFs subnormal, where a CDF inversion keeps too few digits
    @example(u=[0.0, 0.1, 0.5, 0.9, 0.999], loc=2.0, scale=0.15, z_hi=-37.65, z_width=0.1)
    def test_truncated_normal_draws_below_the_location_are_scipys(self, u, loc, scale, z_hi, z_width):
        u, lo, hi = np.array(u), loc + (z_hi - z_width) * scale, loc + z_hi * scale
        drawn = experiment._truncated_normal(u, np.array([loc]), np.zeros(u.size, np.intp), scale, lo, hi)
        expected = truncnorm.ppf(u, (lo - loc) / scale, (hi - loc) / scale, loc=loc, scale=scale)
        assert ((lo <= drawn) & (drawn <= hi)).all()
        # loc + scale z rounds to about 1e-16 of loc, which no relative bound meets where it crosses 0
        np.testing.assert_allclose(drawn, expected, rtol=1e-9, atol=1e-12)


def accept_codes_by_rows(wages, uniforms, tremble):
    """_accept_codes from an accept matrix per scenario: row i accepted iff it is at or past the wage's row."""
    per_scenario = []
    for s, r in enumerate(wages):
        accept = np.arange(N_ROWS) >= experiment.snap_rows(r)[:, None]
        if uniforms is not None:
            accept ^= uniforms[:, s] < tremble
        per_scenario.append(accept @ (1 << np.arange(N_ROWS)))
    return np.stack(per_scenario, axis=1)


@pytest.mark.parametrize("tremble", [0.0, 0.05, 0.5, 1.0])
def test_accept_codes_are_the_accept_matrix_codes(tremble):
    rng = np.random.default_rng(7)
    # every grid wage, either side of each, and wages below, inside and above the grid
    grid = RECORDED_WAGE[:N_ROWS]
    s1 = np.concatenate([grid, grid - 1e-6, grid + 1e-6, [-np.inf, -3.0, 4.25, np.inf], rng.uniform(-1.0, 5.0, 200)])
    wages = [s1, rng.permutation(s1)]
    uniforms = rng.random((s1.size, 2, N_ROWS)) if tremble else None
    codes = _accept_codes(wages, uniforms, tremble)
    assert codes.shape == (s1.size, 2)
    assert codes.tolist() == accept_codes_by_rows(wages, uniforms, tremble).tolist()


def per_subject_reference(spec):
    """The dataset built one subject at a time, each treatment drawing subject j afresh."""
    expected = []
    for treatment in Treatment:
        for j in range(spec.counts.get(treatment, 0)):
            rng = subject_stream(spec.seed, j)
            covariates, agent = _draw_subject(spec, rng)
            expected.append(
                simulate_subject(
                    rng, agent, treatment, covariates,
                    subject_id=f"{treatment.value}-{j:04d}", tremble=spec.tremble,
                )
            )
    return tuple(expected)


class TestBulkSimulation:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.one_of(  # one to four 32-bit words, and more than the pool holds
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**64 - 1),
            st.integers(2**64, 2**96 - 1),
            st.integers(2**96, 2**160),
        ),
        count=st.integers(1, 3000),
        picks=st.lists(st.integers(0, 2999), max_size=6),
    )
    def test_stream_states_match_subject_stream(self, seed, count, picks):
        state, inc = _stream_states(seed, count)
        for column in (*state, *inc):
            assert column.dtype == np.uint64 and column.shape == (count,)
        rng = np.random.Generator(np.random.PCG64(0))
        for j in {0, count - 1} | {p % count for p in picks}:
            reference = subject_stream(seed, j)
            assert _pcg64_state(state, inc, j) == reference.bit_generator.state
            rng.bit_generator.state = _pcg64_state(state, inc, j)
            assert rng.random(3).tolist() == reference.random(3).tolist()
            assert rng.integers(0, 100) == reference.integers(0, 100)

    @pytest.mark.parametrize("seed", [0, 3, 7, 2**31 + 5, 2**40 + 17, 2**97 + 3])
    def test_every_stream_of_a_block(self, seed):
        state, inc = _stream_states(seed, 2500)
        expected = [subject_stream(seed, j).bit_generator.state["state"] for j in range(2500)]
        for key, (hi, lo) in (("state", state), ("inc", inc)):
            assert (hi.astype(object) << 64 | lo.astype(object)).tolist() == [e[key] for e in expected]

    def test_negative_seed_is_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            subject_stream(-1, 0)
        with pytest.raises(ValueError):
            simulate_dataset(small_spec(seed=-1))

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.fixed_dictionaries({t: st.integers(0, 5) for t in Treatment}),
        seed=st.integers(0, 2**64),
        composition=st.one_of(
            st.builds(MixtureComposition, st.floats(0.0, 1.0)),
            st.builds(KappaComposition, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.5, 1.5))),
        ),
        rho=st.one_of(st.none(), st.floats(0.001, 0.01), st.floats(-0.01, -0.001)),
        tremble=st.floats(0.0, 1.0),
        framing_shift=st.floats(-0.5, 0.5),
    )
    def test_matches_per_subject_reference_property(self, counts, seed, composition, rho, tremble, framing_shift):
        spec = PopulationSpec(
            counts=counts, seed=seed, composition=composition, rho=rho, tremble=tremble,
            framing_shift=framing_shift, gamma_scale=0.0,
        )
        data = simulate_dataset(spec)
        assert data.records == per_subject_reference(spec)
        # equal outcomes and equal covariates are one shared object
        outcomes = [o for r in data.records for o in r.outcomes]
        assert len({id(o) for o in outcomes}) == len(set(outcomes))
        people = [r.covariates for r in data.records]
        assert len({id(c) for c in people}) == len(set(people))


def per_subject_draws(spec, count):
    """_bulk_draws one subject at a time: set each stream's state, then draw in the documented order."""
    state, inc = _stream_states(spec.seed, count)
    rng = np.random.Generator(np.random.PCG64(0))
    draws = []
    trembles = np.empty((count, 2, 16)) if spec.tremble > 0.0 else None
    for j in range(count):
        rng.bit_generator.state = _pcg64_state(state, inc, j)
        draws.append(_subject_draws(spec, rng))
        if trembles is not None:
            rng.random(out=trembles[j])
    return [np.array(column) for column in zip(*draws)], trembles


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INC = 0x5851F42D4C957F2D14057B7EF767814F  # any odd increment


def stream_before(output):
    """A generator whose next PCG64 output is `output`.

    Its next state is the integer output itself: the high word is 0, so
    XSL-RR neither mixes nor rotates the low word.
    """
    state = (output - _INC) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": _INC}, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def took_one_output(rng, output):
    """Whether rng has drawn exactly the output stream_before set up, with no 32-bit half left over."""
    state = rng.bit_generator.state
    return state["state"]["state"] == output and state["has_uint32"] == 0


def _ziggurat_output(layer, magnitude, sign=0):
    return magnitude << 9 | sign << 8 | layer


KI = [int(k) for k in KI_DOUBLE]
# (u1, u2, slow) of one subject: u1 holds the age (18..70) in its low half
# and the tediousness (1..10) in its high half, and u2 the normal. Lemire
# redraws a half whose product's low word is below (2**32 - 53) % 53 = 42
# for the age, or (2**32 - 10) % 10 = 6 for the tediousness.
CRAFTED_OUTPUTS = {
    "fast": (1 | 1 << 32, _ziggurat_output(7, KI[7] - 1), False),
    "age-rejected": (0 | 1 << 32, _ziggurat_output(7, 0), True),
    "age-at-threshold": (1 | 7 << 32, _ziggurat_output(7, 0), False),  # 53 >= 42
    "tediousness-rejected": (1 | 0 << 32, _ziggurat_output(7, 0), True),
    "tediousness-at-threshold": (1 | 1 << 32, _ziggurat_output(7, 0), False),  # 10 >= 6
    "layer-0-tail": (1 | 1 << 32, _ziggurat_output(0, KI[0]), True),
    "layer-0-core": (1 | 1 << 32, _ziggurat_output(0, KI[0] - 1, sign=1), False),
    "layer-1": (1 | 1 << 32, _ziggurat_output(1, 0), True),
    "wedge": (1 | 1 << 32, _ziggurat_output(100, KI[100]), True),
    "below-wedge": (1 | 1 << 32, _ziggurat_output(100, KI[100] - 1, sign=1), False),
    "wedge-top": (1 | 1 << 32, _ziggurat_output(255, (1 << 52) - 1), True),
}


class TestBulkDraws:
    @pytest.mark.parametrize(
        "age_range",
        [(18, 70), (30, 30), (5, 6), (0, 2**33), (np.int64(20), np.int32(65))],
        ids=lambda r: f"ages{r[0]}-{r[1]}",
    )
    @pytest.mark.parametrize(
        "seed", [7, 2**32 + 5, 2**64 + 3, 2**128 + 11], ids=["1word", "2words", "3words", "5words"]
    )
    @pytest.mark.parametrize("tremble", [0.0, 0.2])
    @pytest.mark.parametrize("composition", [MixtureComposition(0.4), KappaComposition(0.7)], ids=["mixture", "kappa"])
    def test_matches_the_per_subject_loop(self, monkeypatch, composition, tremble, seed, age_range):
        spec = PopulationSpec(
            counts={Treatment.BROAD: 2000}, seed=seed, composition=composition, tremble=tremble, age_range=age_range
        )
        redrawn = []

        def counted(spec, rng):
            redrawn.append(1)
            return _subject_draws(spec, rng)

        monkeypatch.setattr(experiment, "_subject_draws", counted)
        columns, trembles = experiment._bulk_draws(spec, 2000)
        expected_columns, expected_trembles = per_subject_draws(spec, 2000)
        assert [c.tolist() for c in columns] == [c.tolist() for c in expected_columns]
        assert [c.dtype for c in columns] == [c.dtype for c in expected_columns]
        if tremble:
            assert trembles.tolist() == expected_trembles.tolist()
        else:
            assert trembles is None
        if age_range in {(30, 30), (0, 2**33)}:  # numpy draws no age, or a 64-bit one
            assert len(redrawn) == 2000
        else:  # the fast path misses about 1.5% of subjects
            assert 5 <= len(redrawn) <= 100

    @pytest.mark.parametrize("age_range", [(0, 2**63), (2**64, 2**64 + 3)])
    def test_age_beyond_int64_is_rejected_by_the_spec(self, age_range):
        with pytest.raises(ValueError, match=r"^age_range must be a nonnegative \(lo, hi\) pair below 2\*\*63$"):
            small_spec(age_range=age_range)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(counts={Treatment.BROAD: 2.5}), "counts must be integers, got 2.5 for BROAD"),
            (dict(counts={Treatment.BROAD: True}), "counts must be integers, got True for BROAD"),
            (
                dict(counts={Treatment.BROAD: np.float64(3.0)}),
                f"counts must be integers, got {np.float64(3.0)!r} for BROAD",
            ),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(age_range=(18.5, 70)), "age_range bounds must be integers, got (18.5, 70)"),
            (dict(age_range=(18, 70.0)), "age_range bounds must be integers, got (18, 70.0)"),
        ],
        ids=[
            "count-float", "count-bool", "count-numpy-float", "seed-float", "seed-bool", "age-lo-float", "age-hi-float",
        ],
    )
    def test_non_integer_spec_field_is_rejected(self, overrides, message):
        with pytest.raises(ValueError) as exc:
            small_spec(**overrides)
        assert str(exc.value) == message

    def test_numpy_integer_fields_are_accepted(self):
        spec = small_spec(counts={Treatment.BROAD: 6}, age_range=(18, 70))
        numpy_spec = small_spec(
            counts={Treatment.BROAD: np.int64(6)}, seed=np.int64(spec.seed), age_range=(np.int64(18), np.int32(70))
        )
        assert simulate_dataset(numpy_spec) == simulate_dataset(spec)

    def test_largest_int64_age_is_drawn(self):
        lo, hi = 2**63 - 4, 2**63 - 1
        data = simulate_dataset(small_spec(counts={Treatment.BROAD: 50}, age_range=(lo, hi)))
        assert {r.covariates.age for r in data.records} == set(range(lo, hi + 1))

    @pytest.mark.parametrize("name", CRAFTED_OUTPUTS)
    def test_slow_mask_on_crafted_outputs(self, name):
        u_ints, u_normal, expected_slow = CRAFTED_OUTPUTS[name]
        spec = small_spec()
        outputs = [np.array([u], dtype=np.uint64) for u in (0, u_ints, u_normal, 0, 0)]
        columns, slow = experiment._draw_columns(spec, outputs)
        rng = stream_before(u_ints)
        age, tediousness = rng.integers(18, 71), rng.integers(1, 11)
        ints_fast = took_one_output(rng, u_ints)
        rng = stream_before(u_normal)
        z = rng.standard_normal()
        normal_fast = took_one_output(rng, u_normal)
        assert slow.tolist() == [not (ints_fast and normal_fast)] == [expected_slow]
        if ints_fast:
            assert (columns[1].tolist(), columns[2].tolist()) == ([age], [tediousness])
        if normal_fast:
            assert columns[3].tolist() == [z]

    def test_ziggurat_tables_match_standard_normal(self):
        assert KI_DOUBLE.shape == WI_DOUBLE.shape == (256,)
        assert max(KI) < 2**52 and KI[1] == 0
        for layer, (ki, wi) in enumerate(zip(KI, WI_DOUBLE.tolist())):
            if ki >= 1:  # the largest magnitude of the fast path
                for sign in (0, 1):
                    output = _ziggurat_output(layer, ki - 1, sign)
                    rng = stream_before(output)
                    assert rng.standard_normal() == (-1) ** sign * (ki - 1) * wi
                    assert took_one_output(rng, output), layer
            output = _ziggurat_output(layer, ki)  # the smallest beyond it
            rng = stream_before(output)
            rng.standard_normal()
            assert not took_one_output(rng, output), layer

    @pytest.mark.parametrize("composition", [MixtureComposition(0.4), KappaComposition(0.7)], ids=["mixture", "kappa"])
    def test_redrawing_every_subject_gives_the_same_dataset(self, monkeypatch, composition):
        spec = PopulationSpec(
            counts={t: 300 - 40 * k for k, t in enumerate(Treatment)}, seed=41, composition=composition,
            tremble=0.1, framing_shift=0.2,
        )
        expected = simulate_dataset(spec)
        draw_columns = experiment._draw_columns

        def all_slow(spec, outputs):
            columns, slow = draw_columns(spec, outputs)
            return columns, np.ones_like(slow)

        monkeypatch.setattr(experiment, "_draw_columns", all_slow)
        assert simulate_dataset(spec) == expected


# population seeds on which a wage above the bracket aborted the whole
# dataset before such wages were censored, each with the (cell, subjects) it
# hit; tremble is 0 so a censored wage leaves a censored record
def _pipeline_spec(seed):  # bench pipeline-15k with the default gamma bounds
    arms = {Treatment.BROAD: 5000, Treatment.NARROW: 5000, Treatment.LOW: 5000}
    return PopulationSpec(counts=arms, seed=seed, composition=MixtureComposition(0.7), tremble=0.0)


def _cara_spec(seed):  # bench recovery-mc's CARA spec at rho = 0.02
    arms = {Treatment.BROAD: 500, Treatment.NARROW: 500, Treatment.LOW: 500}
    return PopulationSpec(
        counts=arms, seed=seed, composition=KappaComposition(0.7), tremble=0.0, gamma_bounds=(1.8, 2.2), rho=0.02,
    )


ABOVE_THE_BRACKET = [
    (_pipeline_spec, 38, ["BROAD-2302", "NARROW-2302"]),
    (_pipeline_spec, 55, ["BROAD-4341"]),
    (_pipeline_spec, 60, ["BROAD-4703", "NARROW-4703"]),
    (_pipeline_spec, 66, ["BROAD-4642"]),
    (_pipeline_spec, 91, ["BROAD-2575"]),
    (_cara_spec, 30, ["BROAD-0299", "NARROW-0299"]),
    (_cara_spec, 64, ["BROAD-0498", "NARROW-0498"]),
    (_cara_spec, 238, ["BROAD-0017", "NARROW-0017"]),
]


@pytest.mark.parametrize("make, seed, subjects", ABOVE_THE_BRACKET)
def test_wage_above_the_bracket_is_censored(make, seed, subjects):
    spec = make(seed)
    records = {r.subject_id: r for r in simulate_dataset(spec).records}
    for subject_id in subjects:
        assert records[subject_id].outcomes[1].censored  # S2
        treatment, index = subject_id.split("-")
        _, agent = _draw_subject(spec, subject_stream(seed, int(index)))
        assert reservation_wage_exact(agent, treatment_spec(Treatment(treatment), Scenario.S2)) == math.inf


class TestRecordValidation:
    def test_consistent_requires_monotone_choices(self):
        with pytest.raises(ValueError):
            ScenarioOutcome(Scenario.S1, (True, False) + (True,) * 14, 0.25, False, True)

    def test_inconsistent_requires_non_monotone_choices(self):
        with pytest.raises(ValueError, match="^inconsistent record with monotone choices$"):
            ScenarioOutcome(Scenario.S1, (False,) * 8 + (True,) * 8, 2.25, False, False)

    def test_consistent_requires_matching_wage(self):
        for wage in (2.5, 2.25 + 1e-12):  # the switch wage is 2.25, exactly
            with pytest.raises(ValueError, match="does not match switch point 2.25"):
                ScenarioOutcome(Scenario.S1, (False,) * 8 + (True,) * 8, wage, False, True)

    def test_censor_flag_must_match(self):
        with pytest.raises(ValueError):
            ScenarioOutcome(Scenario.S1, (False,) * 16, 4.25, False, True)

    @pytest.mark.parametrize(
        "age, tediousness, error, message",
        [
            (30.0, 5, TypeError, "'float' object cannot be interpreted as an integer"),
            (30, 5.0, TypeError, "'float' object cannot be interpreted as an integer"),
            (2**63, 5, ValueError, "age must be below 2**63"),
            (-1, 5, ValueError, "age must be nonnegative"),
            (30, 11, ValueError, "tediousness is a 1..10 scale"),
        ],
        ids=["float-age", "float-tediousness", "age-beyond-int64", "negative-age", "tediousness-11"],
    )
    def test_covariates_reject_what_the_columns_cannot_hold(self, age, tediousness, error, message):
        with pytest.raises(error) as exc:
            Covariates(True, age, tediousness)
        assert str(exc.value) == message

    def test_covariates_take_numpy_ints(self):
        person = Covariates(True, np.int64(2**63 - 1), np.int8(5))
        assert person == Covariates(True, 2**63 - 1, 5)

    @pytest.mark.parametrize("male", ["no", 2, 1, None], ids=["text", "two", "one", "none"])
    def test_covariates_reject_a_male_that_is_not_a_bool(self, male):
        outcome = ScenarioOutcome(Scenario.S1, (False,) * 16, 4.25, True, True)
        with pytest.raises(TypeError, match=f"^male must be a bool, got {male!r}$"):
            Dataset([SubjectRecord("X-0", Treatment.LOW, (outcome,), Covariates(male, 30, 5))])

    @pytest.mark.parametrize(
        "covariates, error, message",
        [
            (SimpleNamespace(male="no", age=30, tediousness=5), TypeError, "male must be a bool, got 'no'"),
            (SimpleNamespace(male=True, age=30.7, tediousness=5), TypeError,
             "'float' object cannot be interpreted as an integer"),
            (SimpleNamespace(male=True, age=30, tediousness=300), ValueError, "tediousness is a 1..10 scale"),
        ],
        ids=["text-male", "fractional-age", "tediousness-300"],
    )
    def test_records_covariates_are_checked_as_covariates_checks_them(self, covariates, error, message):
        # a record's covariates need not be a Covariates, whose own checks would have run
        outcome = ScenarioOutcome(Scenario.S1, (False,) * 16, 4.25, True, True)
        with pytest.raises(error) as exc:
            Dataset([SubjectRecord("X-0", Treatment.LOW, (outcome,), covariates)])
        assert str(exc.value) == message

    def test_records_with_a_numpy_bool_male_round_trip(self, tmp_path):
        outcome = ScenarioOutcome(Scenario.S1, (False,) * 16, 4.25, True, True)
        data = Dataset([
            SubjectRecord(f"X-{j}", Treatment.LOW, (outcome,), Covariates(male, 30, 5))
            for j, male in enumerate([np.True_, np.False_])
        ])
        path = tmp_path / "data.csv"
        write_csv(data, str(path))
        assert [line.split(",")[-3] for line in path.read_text().splitlines()[1:]] == ["male", "female"]
        assert read_csv(str(path)) == data
        assert [r.covariates.male for r in read_csv(str(path)).records] == [True, False]

    def test_duplicate_subject_ids_rejected(self):
        record = simulate_subject(
            subject_stream(0, 0), Agent(QL, Broad()), Treatment.BROAD, Covariates(True, 30, 5),
            subject_id="X-0000",
        )
        with pytest.raises(ValueError):
            Dataset((record, record))

    def test_a_far_apart_duplicate_id_is_rejected_by_every_way_in(self, tmp_path):
        data = simulate_dataset(small_spec(counts={t: 200 for t in (Treatment.BROAD, Treatment.NARROW, Treatment.LOW)}))
        records = data.records
        again = SubjectRecord(records[0].subject_id, records[-1].treatment, records[-1].outcomes,
                              records[-1].covariates)
        with pytest.raises(ValueError, match="^subject_ids must be unique$"):
            Dataset(records[:-1] + (again,))
        ids = list(data._subject_ids)
        ids[-1] = ids[0]
        with pytest.raises(ValueError, match="^subject_ids must be unique$"):
            Dataset._from_columns(ids, data._treatment, data._covariates, data._offsets, data._keys)
        # the first subject's rows again after the last: the columnar reader declines the file
        # and the loop raises
        path = tmp_path / "data.csv"
        write_csv(data, str(path))
        lines = path.read_text().splitlines(keepends=True)
        first = [line for line in lines[1:] if line.partition(",")[0] == ids[0]]
        path.write_text("".join(lines + first))
        assert experiment._read_columns(path.read_bytes()) is None
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == "subject_ids must be unique"

    @pytest.mark.parametrize(
        "scenarios, repeated",
        [("S1 S2 S1", "S1"), ("S2 S2", "S2"), ("S2 S2 S1 S1", "S1"), ("S1 S1 S2", "S1"), ("S2 S1 S2", "S2")],
        ids=["S1-S2-S1", "S2-S2", "S2-S2-S1-S1", "S1-S1-S2", "S2-S1-S2"],
    )
    def test_repeated_scenario_rejected(self, tmp_path, scenarios, repeated):
        # one-row and two-row subjects around the first that repeats a scenario, and a later one
        record = simulate_subject(
            subject_stream(0, 0), Agent(QL, Broad()), Treatment.BROAD, Covariates(True, 30, 5),
            subject_id="X-0000",
        )
        outcome = {o.scenario.value: o for o in record.outcomes}
        rows = ["S2", "S1 S2", "S1", scenarios, "S2 S1", "S2", "S1 S1"]
        records = [
            SubjectRecord(f"X-{j:04d}", Treatment.BROAD, tuple(outcome[s] for s in row.split()), record.covariates)
            for j, row in enumerate(rows)
        ]
        message = f"subject X-0003 repeats scenario {repeated}"
        assert len(Dataset(records[:3] + records[4:6])) == 5
        with pytest.raises(ValueError) as exc:
            Dataset(records)
        assert str(exc.value) == message
        keys = [experiment._SCENARIO_CODE[o.scenario] << N_ROWS | experiment._accept_code(o.choices)
                for r in records for o in r.outcomes]
        offsets = np.cumsum([0] + [len(r.outcomes) for r in records])
        with pytest.raises(ValueError) as exc:
            Dataset._from_columns([r.subject_id for r in records], [0] * len(records),
                                  [[True] * len(records), [30] * len(records), [5] * len(records)], offsets, keys)
        assert str(exc.value) == message
        # a canonical file: the columnar reader declines it and read_csv raises the loop's error
        text = _joined([HEADER] + [
            f"{r.subject_id},BROAD,{experiment._outcome_text(key)},male,30,5"
            for r, a, b in zip(records, offsets, offsets[1:]) for key in keys[a:b]
        ])
        (tmp_path / "data.csv").write_text(text)
        assert experiment._read_columns(text.encode()) is None
        assert read_outcome(read_csv, str(tmp_path / "data.csv")) == read_outcome(read_lines, text) == message


class TestCsvRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        data = simulate_dataset(small_spec(tremble=0.3))
        path = str(tmp_path / "data.csv")
        write_csv(data, path)
        assert read_csv(path) == data

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunked_write_keeps_the_golden_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(experiment, "_WRITE_CHUNK", chunk)
        path = tmp_path / "data.csv"
        write_csv(read_csv(str(DATA / "golden_data.csv")), str(path))
        assert path.read_bytes() == (DATA / "golden_data.csv").read_bytes()

    def test_header_and_money_format(self, tmp_path):
        data = simulate_dataset(small_spec(counts={Treatment.BROAD: 1}, tremble=0.0))
        path = tmp_path / "data.csv"
        write_csv(data, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("subject_id,treatment,scenario,c01,")
        assert lines[0].endswith("res_wage,censored,consistent,gender,age,tediousness")
        assert len(lines) == 3  # header + 2 scenarios
        assert ",S1," in lines[1] and ",S2," in lines[2]
        wage_cell = lines[1].split(",")[19]
        assert wage_cell == f"{float(wage_cell):.2f}"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,treatment\nX,BROAD\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_csv(str(path))

    def test_bad_flag_reports_line(self, tmp_path):
        data = simulate_dataset(small_spec(counts={Treatment.BROAD: 1}, tremble=0.0))
        path = tmp_path / "data.csv"
        write_csv(data, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",S2,", ",S9,")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_csv(str(path))

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from(list(Treatment)), st.integers(0, 4), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        composition=st.one_of(
            st.builds(MixtureComposition, st.floats(0.0, 1.0)),
            st.builds(KappaComposition, st.floats(0.0, 1.0)),
        ),
        rho=st.one_of(st.none(), st.floats(0.001, 0.01)),
        tremble=st.floats(0.0, 1.0),
    )
    def test_round_trip_property(self, tmp_path_factory, counts, seed, composition, rho, tremble):
        spec = PopulationSpec(
            counts=counts, seed=seed, composition=composition, rho=rho, tremble=tremble,
            gamma_bounds=(1.8, 2.2),
        )
        data = simulate_dataset(spec)
        directory = tmp_path_factory.mktemp("roundtrip")
        write_csv(data, str(directory / "data.csv"))
        again = read_csv(str(directory / "data.csv"))
        assert again == data
        write_csv(again, str(directory / "again.csv"))
        assert (directory / "again.csv").read_bytes() == (directory / "data.csv").read_bytes()

    def test_iter_observations_filters(self):
        data = simulate_dataset(small_spec(seed=13, tremble=0.05))
        kept = list(iter_observations(data, drop_inconsistent=True))
        everything = list(iter_observations(data, drop_inconsistent=False))
        assert len(everything) == 2 * len(data)
        assert 0 < len(kept) < len(everything)
        assert all(o.consistent for _, o in kept)


HEADER = ",".join(CSV_COLUMNS)
S1_SWITCH = "S1," + ",".join("0" * 10 + "1" * 6) + ",2.75,0,1"
S2_CENSORED = "S2," + ",".join("0" * 16) + ",4.25,1,1"
S1_NON_MONOTONE = "S1,1,0," + ",".join("1" * 14) + ",0.25,0,0"
S1_LATE_SWITCH = "S1," + ",".join("0" * 12 + "1" * 4) + ",3.25,0,1"
VALID_ROWS = [
    f"A,BROAD,{S1_SWITCH},male,30,5",
    f"A,BROAD,{S2_CENSORED},male,30,5",
    f"B,NARROW,{S1_NON_MONOTONE},female,41,7",
    f"B,NARROW,{S2_CENSORED},female,41,7",
]


def _cells(text, index, value):
    cells = text.split(",")
    cells[index] = value
    return ",".join(cells)


_SCENARIO_TEXT = {s.value: i for i, s in enumerate(Scenario)}


def _canonical_key(outcome_text):
    """The row key whose canonical text outcome_text is, or None.

    The N_ROWS choice cells are read as a code, the last first; the text
    is canonical iff it equals the text write_csv renders for that key.
    """
    scenario = _SCENARIO_TEXT.get(outcome_text[:2])
    try:
        code = int(outcome_text[2 * N_ROWS + 1 : 2 : -2], 2)
    except ValueError:
        return None
    if scenario is None or code < 0:  # int() accepts a sign
        return None
    key = scenario << N_ROWS | code
    return key if _outcome_text(key) == outcome_text else None


BAD_ROWS = [
    (f"C,BROAD,S1,{S1_SWITCH[5:]},male,30,5", "expected 25 fields, got 24"),
    (f"C,BROAD,S1,0,{S1_SWITCH[3:]},male,30,5", "expected 25 fields, got 26"),
    (f"C,BROAD,{_cells(S1_SWITCH, 5, '2')},male,30,5", "expected 0 or 1, got '2'"),
    (f"C,BROAD,{_cells(S1_SWITCH, 0, 'S9')},male,30,5", "'S9' is not a valid Scenario"),
    # int() reads the choice cells "1,0,...,0,-" as -1, whose rendering matches them
    (f"C,BROAD,S1,1,{'0,' * 14}-,0.25,0,1,male,30,5", "expected 0 or 1, got '-'"),
    (f"C,MIDDLE,{S1_SWITCH},male,30,5", "'MIDDLE' is not a valid Treatment"),
    (f"C,BROAD,{S1_SWITCH},x,30,5", "gender must be male or female, got 'x'"),
    (f"C,BROAD,{S1_SWITCH},male,-1,5", "age must be nonnegative"),
    (f"C,BROAD,{S1_SWITCH},male,99999999999999999999,5", "age must be below 2**63"),
    (f"C,BROAD,{S1_SWITCH},male,30,11", "tediousness is a 1..10 scale"),
    (
        f"C,BROAD,{_cells(S1_SWITCH, 17, '2.50')},male,30,5",
        "res_wage 2.5 does not match switch point 2.75",
    ),
    (
        f"C,BROAD,{_cells(S1_SWITCH, 17, 'nan')},male,30,5",
        "res_wage nan does not match switch point 2.75",
    ),
    (
        f"C,BROAD,{_cells(S1_SWITCH, 17, '2.7500000005')},male,30,5",
        "res_wage 2.7500000005 does not match switch point 2.75",
    ),
    (f"C,BROAD,{_cells(S1_SWITCH, 19, '0')},male,30,5", "inconsistent record with monotone choices"),
    (
        f"C,BROAD,{_cells(_cells(S1_NON_MONOTONE, 17, '9.99'), 18, '1')},male,30,5",
        "res_wage 9.99 does not match switch point 0.25",
    ),
    (
        f"C,BROAD,{_cells(S1_NON_MONOTONE, 18, '1')},male,30,5",
        "censored flag contradicts the choice rows",
    ),
    (f"B,BROAD,{S1_SWITCH},female,41,7", "subject B changes treatment or covariates"),
    (f"B,NARROW,{S1_SWITCH},male,30,5", "subject B changes treatment or covariates"),
]
BAD_ROW_IDS = [
    "24-fields", "26-fields", "choice-flag", "scenario", "signed-choices", "treatment", "gender", "age",
    "age-beyond-int64", "tediousness", "switch-point", "nan-wage", "wage-off-grid", "monotone-flagged-inconsistent",
    "inconsistent-wage", "inconsistent-censored", "changes-treatment", "changes-covariates",
]


class TestMalformedCsv:
    """Each bad row follows valid rows that hold every one of its other parts."""

    @pytest.mark.parametrize("row, message", BAD_ROWS, ids=BAD_ROW_IDS)
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER] + VALID_ROWS + [row, VALID_ROWS[0].replace("A,", "D,", 1)]) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == f"line 6: {message}"

    @pytest.mark.parametrize("row, message", BAD_ROWS, ids=BAD_ROW_IDS)
    def test_bad_row_with_a_new_outcome_text(self, tmp_path, row, message):
        # no valid row holds S1_SWITCH, so a bad row whose outcome text is
        # canonical meets that text first on its own line
        valid = [VALID_ROWS[0].replace(S1_SWITCH, S1_LATE_SWITCH)] + VALID_ROWS[1:]
        assert not any(S1_SWITCH in r for r in valid)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER] + valid + [row, valid[0].replace("A,", "D,", 1)]) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == f"line 6: {message}"

    def test_which_bad_rows_have_a_canonical_outcome_text(self):
        canonical = [
            name for name, (row, _) in zip(BAD_ROW_IDS, BAD_ROWS)
            if _canonical_key(row.split(",", 2)[2].rsplit(",", 3)[0]) is not None
        ]
        assert canonical == [
            "treatment", "gender", "age", "age-beyond-int64", "tediousness", "changes-treatment", "changes-covariates",
        ]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([f"C,LOW,{S1_SWITCH},male,30,5"] * 3, "subject C repeats scenario S1"),
            ([VALID_ROWS[3]], "subject B repeats scenario S2"),
            ([f"C,LOW,{S2_CENSORED},male,30,5"] * 2, "subject C repeats scenario S2"),
            ([f"C,LOW,{S},male,30,5" for S in (S1_SWITCH, S2_CENSORED, S1_SWITCH)], "subject C repeats scenario S1"),
            ([f"C,LOW,{S},male,30,5" for S in (S2_CENSORED, S2_CENSORED, S1_SWITCH, S1_SWITCH)],
             "subject C repeats scenario S1"),
        ],
        ids=["three-rows-of-S1", "adjacent-S2-row", "two-rows-of-S2", "S1-S2-S1", "S2-S2-S1-S1"],
    )
    def test_subject_repeating_a_scenario(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER] + VALID_ROWS + rows) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == message

    def test_non_adjacent_duplicate_subject(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER] + VALID_ROWS + [VALID_ROWS[0]]) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == "subject_ids must be unique"

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"A,BROAD,{S2_CENSORED},x,30,5", "line 5: gender must be male or female, got 'x'"),
            (f"A,BROAD,{S2_CENSORED},male,31,5", "line 5: subject A changes treatment or covariates"),
        ],
        ids=["parse-error", "changes-covariates"],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER, "", VALID_ROWS[0], "", row]) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == message

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["", HEADER, ""] + VALID_ROWS[:2] + ["", ""] + VALID_ROWS[2:]) + "\n")
        data = read_csv(str(path))
        assert [r.subject_id for r in data.records] == ["A", "B"]
        assert [len(r.outcomes) for r in data.records] == [2, 2]

    def test_equal_texts_share_one_object(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = VALID_ROWS + [f"C,LOW,{S2_CENSORED},female,41,7"]
        path.write_text("\n".join([HEADER] + rows) + "\n")
        a, b, c = read_csv(str(path)).records
        assert a.outcomes[1] is b.outcomes[1] is c.outcomes[0]
        assert b.covariates is c.covariates
        assert a.covariates is not b.covariates

    def test_other_covariate_spelling_is_the_same_value(self, tmp_path):
        # a subject may spell one value two ways; write_csv renders the value once
        path = tmp_path / "data.csv"
        rows = [VALID_ROWS[0], VALID_ROWS[1].replace("male,30,5", "male,030,+5"), f"C,LOW,{S2_CENSORED},male,30,05"]
        path.write_text("\n".join([HEADER] + rows) + "\n")
        data = read_csv(str(path))
        a, c = data.records
        assert a.covariates is c.covariates == Covariates(True, 30, 5)
        write_csv(data, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_text().splitlines()[1:] == [
            VALID_ROWS[0], VALID_ROWS[1], f"C,LOW,{S2_CENSORED},male,30,5",
        ]

    def test_outcomes_are_built_only_for_records(self, tmp_path, monkeypatch):
        data = simulate_dataset(small_spec(seed=5, tremble=0.3))
        path = tmp_path / "data.csv"
        write_csv(data, str(path))
        rows = path.read_text().splitlines()[1:]
        outcome_texts = {row.split(",", 2)[2].rsplit(",", 3)[0] for row in rows}
        assert len({row.split(",", 22)[22] for row in rows}) > 1  # covariate texts
        built = []
        validate = ScenarioOutcome.__post_init__
        monkeypatch.setattr(
            ScenarioOutcome, "__post_init__", lambda self: built.append(self) or validate(self)
        )
        again = read_csv(str(path))
        assert built == []  # a canonical file builds no outcome object
        again.records
        assert len(built) == len(outcome_texts)  # one per row key
        again.records
        assert len(built) == len(outcome_texts)


def outcome_text_by_format(key):
    """_outcome_text from its definition: the code's bits as a binary string, each field formatted alone."""
    code = key & 0xFFFF
    choices = ",".join(format(code, f"0{N_ROWS}b")[::-1])  # c01 is bit 0
    wage = RECORDED_WAGE[CODE_FIRST_ROW[code]]
    censored, consistent = "0" if code else "1", "1" if CODE_CONSISTENT[code] else "0"
    return f"{tuple(Scenario)[key >> N_ROWS].value},{choices},{wage:.2f},{censored},{consistent}"


S1_MID_SWITCH = "S1," + ",".join("0" * 8 + "1" * 8) + ",2.25,0,1"


class TestRowKeys:
    """Outcome fields derived from a row key against the per-choice definitions."""

    def test_every_code_derives_as_the_per_choice_definitions(self):
        codes = np.arange(1 << N_ROWS)
        flags = [tuple(bool(code >> i & 1) for i in range(N_ROWS)) for code in range(1 << N_ROWS)]
        consistent, wages = zip(*map(_classify_by_rows, flags))
        assert CODE_CONSISTENT.tolist() == list(consistent)
        assert RECORDED_WAGE[CODE_FIRST_ROW].tolist() == list(wages)
        assert list(map(classify_consistency, flags)) == list(zip(consistent, wages))
        n = codes.size  # one subject per key
        covariates = (np.ones(n, bool), np.full(n, 30), np.full(n, 5))  # male, 30, 5
        for s, scenario in enumerate(Scenario):
            keys = codes | s << 16
            columns = ([f"X-{j}" for j in range(n)], np.zeros(n), covariates, np.arange(n + 1), keys)
            obs = Dataset._from_columns(*columns).observations
            assert obs.consistent.tolist() == list(consistent)
            assert obs.res_wage.tolist() == list(wages)
            assert set(obs.scenario.tolist()) == {s}
            outcomes = _outcomes(keys)
            assert [o.choices for o in outcomes] == flags
            assert [o.censored for o in outcomes] == [not any(f) for f in flags]
            assert [o.consistent for o in outcomes] == list(consistent)
            assert [o.res_wage for o in outcomes] == list(wages)
            assert {o.scenario for o in outcomes} == {scenario}
            texts = [_outcome_text(key) for key in keys.tolist()]
            assert texts == [outcome_text_by_format(key) for key in keys.tolist()]
            parsed = [_parse_row(2, ["X", "BROAD", *text.split(","), "male", "30", "5"])[0] for text in texts]
            assert parsed == keys.tolist()
            assert [_canonical_key(text) for text in texts] == keys.tolist()

    @pytest.mark.parametrize(
        "index, cell, message",
        [
            (5, "_", "expected 0 or 1, got '_'"),  # int() reads 0_1 as 01
            (12, " 1", "expected 0 or 1, got ' 1'"),  # and strips spaces
            (16, "+1", "expected 0 or 1, got '+1'"),  # and reads a sign
            (3, "-0", "expected 0 or 1, got '-0'"),
            (18, "_", "expected 0 or 1, got '_'"),  # the censored flag
            (19, " 1", "expected 0 or 1, got ' 1'"),  # the consistent flag
            (17, "2.250", None),  # the same wage, spelled otherwise
        ],
        ids=["underscore", "space", "plus", "minus", "censored-underscore", "consistent-space", "wage-2.250"],
    )
    def test_a_non_canonical_text_is_parsed_in_full(self, index, cell, message):
        text = _cells(S1_MID_SWITCH, index, cell)
        assert _canonical_key(text) is None and _canonical_key(S1_MID_SWITCH) is not None
        cells = ["X", "BROAD", *text.split(","), "male", "30", "5"]
        if message is None:
            assert _parse_row(2, cells)[0] == _canonical_key(S1_MID_SWITCH)
        else:
            with pytest.raises(DataFormatError) as exc:
                _parse_row(2, cells)
            assert str(exc.value) == f"line 2: {message}"

    @pytest.mark.parametrize("wage", ["1.0", "1.000", "1"])
    def test_other_wage_spelling_reads_as_its_canonical_twin(self, tmp_path, wage):
        twin = "S2," + ",".join("0" * 3 + "1" * 13) + ",1.00,0,1"
        text = twin.replace(",1.00,", f",{wage},")
        assert _canonical_key(text) is None and _canonical_key(twin) is not None
        other = "S1," + ",".join("0" * 16) + ",4.25,1,1"  # censored
        # the text is met new, then its twin, then the text again
        rows = [
            f"A,BROAD,{text},male,30,5",
            f"A,BROAD,{other},male,30,5",
            f"B,LOW,{twin},female,41,7",
            f"C,LOW,{text},female,41,7",
        ]
        path = tmp_path / "data.csv"
        path.write_text("\n".join([HEADER] + rows) + "\n")
        canonical = tmp_path / "canonical.csv"
        canonical.write_text("\n".join([HEADER] + [row.replace(text, twin) for row in rows]) + "\n")
        data = read_csv(str(path))
        assert data == read_csv(str(canonical))
        a, b, c = data.records
        assert a.outcomes[0] is b.outcomes[0] is c.outcomes[0]
        assert a.outcomes[0].res_wage == 1.0
        write_csv(data, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == canonical.read_bytes()


class TestByteOrderMark:
    MARK = b"\xef\xbb\xbf"

    def test_leading_mark_is_dropped(self, tmp_path):
        golden = (DATA / "golden_data.csv").read_bytes()
        path = tmp_path / "marked.csv"
        path.write_bytes(self.MARK + golden)
        assert read_csv(str(path)) == read_csv(str(DATA / "golden_data.csv"))
        write_csv(read_csv(str(path)), str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == golden  # written without a mark

    @pytest.mark.parametrize(
        "prefix, line",
        [(b"\n" + MARK, 2), (MARK + MARK, 1)],
        ids=["mark-after-a-blank-line", "second-mark"],
    )
    def test_mark_elsewhere_is_a_bad_header(self, tmp_path, prefix, line):
        path = tmp_path / "marked.csv"
        path.write_bytes(prefix + (DATA / "golden_data.csv").read_bytes())
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == f"line {line}: bad header, expected {HEADER}"

    @pytest.mark.parametrize("prefix", [b"", MARK], ids=["unmarked", "marked"])
    def test_non_utf8_byte_names_its_offset(self, tmp_path, prefix):
        golden = (DATA / "golden_data.csv").read_bytes()
        path = tmp_path / "bad.csv"
        path.write_bytes(prefix + golden[:500] + b"\xff" + golden[500:])
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == f"not UTF-8 text: byte {len(prefix) + 500} (invalid start byte)"


class TestObservations:
    """The columnar view is a cache: built once, read-only, invisible to ==, repr and replace."""

    def test_columns_follow_iter_observations(self):
        data = simulate_dataset(small_spec(seed=13, tremble=0.3))
        obs = data.observations
        rows = list(iter_observations(data, drop_inconsistent=False))
        assert [tuple(Treatment)[c] for c in obs.treatment] == [r.treatment for r, _ in rows]
        assert [tuple(Scenario)[c] for c in obs.scenario] == [o.scenario for _, o in rows]
        assert obs.res_wage.tolist() == [o.res_wage for _, o in rows]
        assert obs.consistent.tolist() == [o.consistent for _, o in rows]
        assert not obs.consistent.all()
        assert [c.dtype.name for c in (obs.treatment, obs.scenario, obs.res_wage, obs.consistent)] == [
            "int8", "int8", "float64", "bool",
        ]

    def test_built_once_and_read_only(self):
        data = simulate_dataset(small_spec())
        obs = data.observations
        assert data.observations is obs
        for column in (obs.treatment, obs.scenario, obs.res_wage, obs.consistent):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_cache_is_not_compared_or_printed(self):
        built = simulate_dataset(small_spec())
        fresh = simulate_dataset(small_spec())
        built.observations
        assert "observations" in vars(built) and "observations" not in vars(fresh)
        assert built == fresh
        assert repr(built) == repr(fresh)

    def test_replace_gets_a_fresh_view(self):
        data = simulate_dataset(small_spec())
        before = data.observations
        fewer = Dataset(data.records[:3])
        assert fewer.observations is not before
        assert fewer.observations.res_wage.size == sum(len(r.outcomes) for r in data.records[:3])

    def test_empty_dataset(self):
        obs = Dataset(()).observations
        assert obs.res_wage.size == obs.treatment.size == 0


def _outcome(scenario, code):
    """A fresh outcome whose row i is accepted iff bit i of code is set."""
    choices = tuple(bool(code >> i & 1) for i in range(16))
    consistent, wage = classify_consistency(choices)
    return ScenarioOutcome(scenario, choices, wage, not any(choices), consistent)


# censored, accepts every row, a monotone switch, non-monotone; or any pattern
ACCEPT_CODES = st.one_of(st.sampled_from([0, 0xFFFF, 0xFF00, 0x0001]), st.integers(0, 0xFFFF))


@st.composite
def record_tuples(draw):
    """Records with one or two outcomes each, drawn from small pools of
    outcomes and covariates; each use shares the pool's object or gets an
    equal fresh one."""
    outcomes = draw(st.lists(st.tuples(st.sampled_from(list(Scenario)), ACCEPT_CODES), min_size=1, max_size=5))
    people = draw(st.lists(st.tuples(st.booleans(), st.integers(18, 70), st.integers(1, 10)), min_size=1, max_size=3))
    shared_outcomes = [_outcome(*o) for o in outcomes]
    shared_people = [Covariates(*p) for p in people]
    records = []
    for j in range(draw(st.integers(0, 6))):
        uses = draw(st.lists(
            st.tuples(st.integers(0, len(outcomes) - 1), st.booleans()),
            min_size=1, max_size=2, unique_by=lambda use: outcomes[use[0]][0],  # no subject repeats a scenario
        ))
        k, share = draw(st.tuples(st.integers(0, len(people) - 1), st.booleans()))
        records.append(SubjectRecord(
            f"S-{j}",
            draw(st.sampled_from(list(Treatment))),
            tuple(shared_outcomes[i] if shared else _outcome(*outcomes[i]) for i, shared in uses),
            shared_people[k] if share else Covariates(*people[k]),
        ))
    return tuple(records)


def _walked_columns(records):
    """The observation columns by a walk over the records."""
    rows = [(r.treatment, o) for r in records for o in r.outcomes]
    return [
        np.array([list(Treatment).index(t) for t, _ in rows], np.int8),
        np.array([list(Scenario).index(o.scenario) for _, o in rows], np.int8),
        np.array([o.res_wage for _, o in rows], np.float64),
        np.array([o.consistent for _, o in rows], bool),
    ]


def _row_wise_level_counts(data, drop_inconsistent):
    """Rows counted by (treatment, scenario, level) from the observation columns, one row at a time."""
    obs = data.observations
    level = np.searchsorted(RECORDED_WAGE, obs.res_wage)
    assert RECORDED_WAGE[level].tolist() == obs.res_wage.tolist()
    counts = {}
    for t, s, k, consistent in zip(obs.treatment.tolist(), obs.scenario.tolist(), level.tolist(), obs.consistent):
        if consistent or not drop_inconsistent:
            counts[t, s, k] = counts.get((t, s, k), 0) + 1
    return counts


def _assert_level_counts_match(data):
    table = data._level_counts
    assert table.shape == (len(Treatment), len(Scenario), N_ROWS + 1, 2)
    for drop in (True, False):
        levels = table[..., 1] if drop else table.sum(axis=-1)
        assert {index: int(n) for index, n in np.ndenumerate(levels) if n} == _row_wise_level_counts(data, drop)
    obs = data.observations
    # the (treatment, scenario) marginal is each cell's N, and the last level its censored rows
    for t, s in np.ndindex(len(Treatment), len(Scenario)):
        rows = (obs.treatment == t) & (obs.scenario == s)
        assert table[t, s].sum() == rows.sum()
        assert table[t, s, N_ROWS].sum() == (rows & (obs.res_wage == CENSOR_CODE)).sum()


class TestLevelCounts:
    """The level-count table is a cache like observations: built once, read-only, invisible to ==, hash and repr."""

    def test_built_once_and_read_only(self):
        data = simulate_dataset(small_spec())
        table = data._level_counts
        assert data._level_counts is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1

    def test_cache_is_not_compared_hashed_or_printed(self):
        built = simulate_dataset(small_spec())
        fresh = simulate_dataset(small_spec())
        built._level_counts
        assert "_level_counts" in vars(built) and "_level_counts" not in vars(fresh)
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)

    def test_empty_dataset(self):
        table = Dataset(())._level_counts
        assert table.shape == (len(Treatment), len(Scenario), N_ROWS + 1, 2)
        assert not table.any()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        composition=st.one_of(
            st.floats(0, 1).map(MixtureComposition), st.floats(-0.5, 1.5).map(KappaComposition)
        ),
        tremble=st.floats(0, 1),
    )
    def test_marginals_are_the_row_wise_counts(self, seed, composition, tremble):
        counts = {Treatment.BROAD: 20, Treatment.NARROW: 20, Treatment.LOW: 20, Treatment.PARTIAL: 5}
        _assert_level_counts_match(
            simulate_dataset(PopulationSpec(counts=counts, seed=seed, composition=composition, tremble=tremble))
        )

    @settings(max_examples=60, deadline=None)
    @given(records=record_tuples())
    def test_marginals_of_any_records_are_the_row_wise_counts(self, records):
        # record_tuples gives some subjects one scenario only
        _assert_level_counts_match(Dataset(records))


class TestColumnStorage:
    """A column-backed dataset agrees with the one built from its records."""

    @staticmethod
    def assert_agree(columns, built, directory):
        assert len(columns) == len(built) == len(built.records)
        assert columns.records == built.records
        assert columns.records is columns.records
        for got, want, expected in zip(
            vars(columns.observations).values(), vars(built.observations).values(), _walked_columns(built.records)
        ):
            assert got.dtype == want.dtype == expected.dtype
            assert np.array_equal(got, expected) and np.array_equal(want, expected)
        # equal outcomes and equal covariates are one object
        outcomes = [o for r in columns.records for o in r.outcomes]
        people = [r.covariates for r in columns.records]
        assert len({id(o) for o in outcomes}) == len(set(outcomes))
        assert len({id(p) for p in people}) == len(set(people))
        write_csv(columns, str(directory / "columns.csv"))
        write_csv(built, str(directory / "built.csv"))
        assert (directory / "columns.csv").read_bytes() == (directory / "built.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(records=record_tuples())
    def test_read_csv(self, tmp_path_factory, records):
        built = Dataset(records)
        assert all(a is b for a, b in zip(built.records, records))
        directory = tmp_path_factory.mktemp("columns")
        write_csv(built, str(directory / "data.csv"))
        self.assert_agree(read_csv(str(directory / "data.csv")), built, directory)

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from(list(Treatment)), st.integers(0, 4), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        composition=st.one_of(
            st.builds(MixtureComposition, st.floats(0.0, 1.0)),
            st.builds(KappaComposition, st.floats(0.0, 1.0)),
        ),
        tremble=st.floats(0.0, 1.0),
    )
    def test_simulate_dataset(self, tmp_path_factory, counts, seed, composition, tremble):
        spec = PopulationSpec(
            counts=counts, seed=seed, composition=composition, tremble=tremble, gamma_bounds=(1.8, 2.2)
        )
        data = simulate_dataset(spec)
        built = Dataset(data.records)
        self.assert_agree(data, built, tmp_path_factory.mktemp("columns"))

    def test_equality_and_hash_build_no_objects(self, tmp_path, monkeypatch):
        data = simulate_dataset(small_spec(tremble=0.3))
        write_csv(data, str(tmp_path / "data.csv"))
        first, second = (read_csv(str(tmp_path / "data.csv")) for _ in range(2))
        built = []
        for cls in (SubjectRecord, ScenarioOutcome, Covariates):
            validate = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, validate=validate: built.append(self) or validate(self))
        assert first == second == data
        assert hash(first) == hash(second) == hash(data)
        assert built == []
        assert not any("records" in vars(dataset) for dataset in (first, second, data))

    def test_equal_datasets_with_reordered_outcome_tables(self):
        data = simulate_dataset(small_spec(tremble=0.3))
        built = Dataset(data.records[::-1])
        again = Dataset(built.records[::-1])
        assert data == again and hash(data) == hash(again)
        assert data != built

    @pytest.mark.parametrize(
        "change",
        ["subject_id", "treatment", "covariates", "code", "scenario", "split", None],
    )
    def test_equality_compares_every_field(self, change):
        def outcome(scenario, first_row):
            choices = (False,) * first_row + (True,) * (16 - first_row)
            return ScenarioOutcome(scenario, choices, 0.25 * (first_row + 1), False, True)

        def records(change=None):
            a1 = outcome(Scenario.S1, 10 + (change == "code"))
            a2 = outcome(Scenario.S2, 4)
            b1 = outcome(Scenario.S2 if change == "scenario" else Scenario.S1, 6)
            person = Covariates(True, 30 + (change == "covariates"), 5)
            treatment = Treatment.LOW if change == "treatment" else Treatment.BROAD
            a_id = "Z" if change == "subject_id" else "A"
            if change == "split":  # the same rows, cut into subjects differently
                return (SubjectRecord(a_id, treatment, (a1,), person), SubjectRecord("B", treatment, (a2, b1), person))
            return (SubjectRecord(a_id, treatment, (a1, a2), person), SubjectRecord("B", treatment, (b1,), person))

        base, changed = records(), records(change)
        assert (Dataset(base) == Dataset(changed)) == (base == changed) == (change is None)
        if change is None:
            assert hash(Dataset(base)) == hash(Dataset(changed))

    def test_covariate_columns_are_read_only_bool_int64_int8(self):
        data = simulate_dataset(small_spec())
        for dataset in (data, Dataset(data.records), Dataset(())):
            assert [c.dtype.name for c in dataset._covariates] == ["bool", "int64", "int8"]
            assert all(not c.flags.writeable and c.shape == (len(dataset),) for c in dataset._covariates)

    def test_columns_cannot_be_reassigned(self):
        data = simulate_dataset(small_spec())
        for name in ("records", "seed", "_keys"):
            with pytest.raises(AttributeError):
                setattr(data, name, ())

    def test_iter_observations_builds_each_record_once(self, tmp_path):
        data = simulate_dataset(small_spec(tremble=0.3))
        write_csv(data, str(tmp_path / "data.csv"))
        again = read_csv(str(tmp_path / "data.csv"))
        for dataset in (data, again):
            records = dataset.records
            for drop_inconsistent in (True, False):
                rows = list(iter_observations(dataset, drop_inconsistent))
                expected = [(r, o) for r in records for o in r.outcomes if o.consistent or not drop_inconsistent]
                assert len(rows) == len(expected)
                assert all(r is want_r and o is want_o for (r, o), (want_r, want_o) in zip(rows, expected))
            assert vars(dataset)["records"] is records  # built once, on the first walk

    def test_simulate_read_and_write_build_no_covariates(self, tmp_path, monkeypatch):
        built = []
        validate = Covariates.__post_init__
        monkeypatch.setattr(Covariates, "__post_init__", lambda self: built.append(self) or validate(self))
        data = simulate_dataset(small_spec(tremble=0.3))
        assert "records" not in vars(data)
        write_csv(data, str(tmp_path / "data.csv"))
        golden = read_csv(str(DATA / "golden_data.csv"))
        assert "records" not in vars(golden)
        write_csv(golden, str(tmp_path / "golden.csv"))
        assert built == []
        for dataset in (data, golden):
            assert "records" not in vars(dataset)
            people = [r.covariates for r in dataset.records]
            assert len({id(p) for p in people}) == len(set(people)) > 1  # one Covariates per distinct value


def constructed_records(dataset):
    """Dataset.records built by each object's constructor, whose __post_init__ checks it: the oracle for the fill."""
    keys, slots = np.unique(dataset._keys, return_inverse=True)
    outcomes = list(map(_outcomes(keys).__getitem__, slots.tolist()))
    values, people = dataset._distinct_covariates()
    people = map([Covariates(*value) for value in zip(*(column.tolist() for column in values))].__getitem__, people)
    offsets = dataset._offsets.tolist()
    arms = tuple(Treatment)
    return tuple(
        SubjectRecord(sid, arms[t], tuple(outcomes[lo:hi]), person)
        for sid, t, person, lo, hi in zip(dataset._subject_ids, dataset._treatment.tolist(), people, offsets, offsets[1:])
    )


def packed_distinct_covariates(dataset):
    """Dataset._distinct_covariates by packing each subject's age rank, tediousness and male into one
    int64 and taking np.unique of the packed keys (the oracle)."""
    male, age, tediousness = dataset._covariates
    age_rank = np.unique(age, return_inverse=True)[1]  # below len(dataset), so packed cannot overflow
    packed = (age_rank * (experiment._TEDIOUSNESS_WIDTH + 1) + tediousness) * 2 + male
    _, first, slots = np.unique(packed, return_index=True, return_inverse=True)
    return [column[first] for column in dataset._covariates], slots


# a few values of each dtype, its extremes among them, so that rows repeat
ALPHABETS = {
    np.bool_: [False, True],
    np.int8: [-128, 0, 1, 127],
    np.int64: [-(2**63), -1, 0, 2**63 - 1],
    np.uint64: [0, 1, 2**63, 2**64 - 1],
}


@st.composite
def small_alphabet_columns(draw):
    """1-4 columns of one length, 0-30, each of a dtype drawn from ALPHABETS and valued in its alphabet."""
    n = draw(st.integers(0, 30))
    dtypes = draw(st.lists(st.sampled_from(list(ALPHABETS)), min_size=1, max_size=4))
    return [np.array(draw(st.lists(st.sampled_from(ALPHABETS[t]), min_size=n, max_size=n)), t) for t in dtypes]


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(small_alphabet_columns())
    @example([np.array([], np.int8), np.array([], np.uint64)])
    @example([np.array([True]), np.array([2**64 - 1], np.uint64)])
    def test_groups_in_lexsort_order_by_first_occurrence(self, columns):
        first, inverse = _distinct_rows(columns)
        rows = list(zip(*(column.tolist() for column in columns))) if columns[0].size else []
        # the last column primary, as np.lexsort orders; the first index of each distinct row
        distinct = sorted(set(rows), key=lambda row: row[::-1])
        assert first.tolist() == [rows.index(row) for row in distinct]
        assert inverse.tolist() == [distinct.index(row) for row in rows]
        for column in columns:
            assert (column[first][inverse] == column).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from([0, 1, 17, 18, 2**63 - 1]), st.integers(1, 10)),
            min_size=0,
            max_size=30,
        )
    )
    def test_distinct_covariates_are_the_packed_oracles(self, people):
        data = simulate_dataset(small_spec(counts={Treatment.BROAD: 30}, tremble=0.3))
        ids, treatment, _, offsets, keys = _columns(data)
        n = len(people)
        covariates = list(zip(*people)) or ((), (), ())
        dataset = Dataset._from_columns(ids[:n], treatment[:n], covariates, offsets[: n + 1], keys[: offsets[n]])
        (values, slots), (want_values, want_slots) = dataset._distinct_covariates(), packed_distinct_covariates(dataset)
        assert [(v.dtype, v.tolist()) for v in values] == [(v.dtype, v.tolist()) for v in want_values]
        assert (slots.dtype, slots.tolist()) == (want_slots.dtype, want_slots.tolist())

    @pytest.mark.parametrize("path", ["golden", "simulated"])
    def test_distinct_covariates_are_the_packed_oracles_on_data(self, path):
        dataset = read_csv(str(DATA / "golden_data.csv")) if path == "golden" else simulate_dataset(small_spec())
        values, slots = dataset._distinct_covariates()
        want_values, want_slots = packed_distinct_covariates(dataset)
        assert [v.tobytes() for v in values] == [v.tobytes() for v in want_values]
        assert slots.tobytes() == want_slots.tobytes()


def _columns(dataset):
    """What Dataset._from_columns takes, read off a dataset."""
    return dataset._subject_ids, dataset._treatment, dataset._covariates, dataset._offsets, dataset._keys


def _field_types(obj):
    return [type(getattr(obj, f.name)) for f in fields(obj)]


class TestFilledRecords:
    """Records filled from the columns are the objects the constructors build, made without __init__."""

    @staticmethod
    def assert_constructed(dataset):
        assert "records" not in vars(dataset)
        got, want = dataset.records, constructed_records(dataset)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        for record, expected in zip(got, want, strict=True):
            assert record.treatment is expected.treatment
            assert all(o.scenario is e.scenario for o, e in zip(record.outcomes, expected.outcomes, strict=True))
            for obj, oracle in [(record, expected), (record.covariates, expected.covariates)]:
                assert _field_types(obj) == _field_types(oracle)
        # equal outcomes and equal covariates are one object
        people = [r.covariates for r in got]
        outcomes = [o for r in got for o in r.outcomes]
        assert len({id(p) for p in people}) == len(set(people))
        assert len({id(o) for o in outcomes}) == len(set(outcomes))

    @settings(max_examples=60, deadline=None)
    @given(records=record_tuples())
    def test_record_tuples(self, records):
        columns = Dataset._from_columns(*_columns(Dataset(records)))
        self.assert_constructed(columns)
        assert columns.records == records

    @pytest.mark.parametrize("tremble", [0.0, 0.3])
    def test_simulated(self, tremble):
        self.assert_constructed(simulate_dataset(small_spec(seed=11, tremble=tremble)))

    def test_read(self, tmp_path):
        self.assert_constructed(read_csv(str(DATA / "golden_data.csv")))
        write_csv(simulate_dataset(small_spec(seed=12, tremble=0.3)), str(tmp_path / "data.csv"))
        self.assert_constructed(read_csv(str(tmp_path / "data.csv")))

    @pytest.mark.parametrize("scenario", [0, 1], ids=["S1", "S2"])
    def test_one_row_subjects(self, scenario):
        data = simulate_dataset(small_spec(tremble=0.3))
        ids, treatment, covariates, _, keys = _columns(data)
        one = Dataset._from_columns(ids, treatment, covariates, np.arange(len(data) + 1), keys[scenario::2])
        self.assert_constructed(one)
        assert {len(r.outcomes) for r in one.records} == {1}

    def test_empty(self):
        self.assert_constructed(Dataset._from_columns((), (), ((), (), ()), [0], ()))

    @staticmethod
    def _objects():
        """A filled record, outcome and covariates, then the same built by their constructors."""
        record = simulate_dataset(small_spec(tremble=0.3)).records[0]
        built = constructed_records(Dataset._from_columns(*_columns(Dataset([record]))))[0]
        return [record, record.outcomes[0], record.covariates, built, built.outcomes[0], built.covariates]

    def test_pickle_and_copy_round_trips(self):
        for obj in self._objects():
            clones = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for clone in clones + [copy.copy(obj), copy.deepcopy(obj)]:
                assert type(clone) is type(obj)
                assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)

    def test_frozen_without_dict_or_weakrefs(self):
        for obj in self._objects():
            name = fields(obj)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
            assert not hasattr(obj, "__dict__")
            with pytest.raises(TypeError):
                weakref.ref(obj)

    @pytest.mark.parametrize(
        "tediousness, age, empty_subject, message",
        [
            (0, 30, False, "tediousness is a 1..10 scale"),
            (11, 30, False, "tediousness is a 1..10 scale"),
            (5, -1, False, "age must be nonnegative"),
            (0, -1, False, "tediousness is a 1..10 scale"),  # one value fails both checks
            (5, 30, True, "a record needs at least one scenario outcome"),
            (11, 30, True, "tediousness is a 1..10 scale"),  # the covariates are checked first
        ],
        ids=["tediousness-0", "tediousness-11", "negative-age", "both", "no-rows", "tediousness-and-no-rows"],
    )
    def test_rejected_columns(self, tediousness, age, empty_subject, message):
        # the columns are checked where they come in, with the exception and message
        # of the constructor that would have rejected the object
        data = simulate_dataset(small_spec(tremble=0.3))
        ids, treatment, covariates, offsets, keys = _columns(data)
        male, ages, tediousnesses = (column.copy() for column in covariates)
        tediousnesses[3], ages[3] = tediousness, age
        if empty_subject:  # subject 1 loses its rows
            offsets, keys = np.concatenate([offsets[:2], offsets[2:] - 2]), np.delete(keys, [2, 3])
        with pytest.raises(ValueError) as want:
            Covariates(bool(male[3]), age, tediousness)
            SubjectRecord(ids[1], tuple(Treatment)[0], (), Covariates(True, 30, 5))
        with pytest.raises(ValueError) as got:
            Dataset._from_columns(ids, treatment, (male, ages, tediousnesses), offsets, keys)
        assert str(got.value) == str(want.value) == message
        assert type(got.value) is type(want.value)

    def test_rejected_value_that_packs_like_a_valid_one(self, tmp_path):
        # (age rank 0, tediousness 12) and (age rank 1, tediousness 1) share a key under
        # packed_distinct_covariates; the valid value comes first, so only a check of the
        # whole columns sees the other, before records or write_csv group them
        with pytest.raises(ValueError, match=r"^tediousness is a 1\.\.10 scale$"):
            Dataset._from_columns(("B", "A"), [0, 0], ([True, True], [31, 30], [1, 12]), [0, 1, 2], [0, 0])


def read_outcome(read, *args):
    """What a reader gives: the dataset's subject ids and columns with their dtypes, or its DataFormatError text."""
    try:
        dataset = read(*args)
    except DataFormatError as exc:
        return str(exc)
    columns = (*dataset._covariates, dataset._treatment, dataset._offsets, dataset._keys)
    return [dataset._subject_ids] + [(column.dtype.str, column.tolist()) for column in columns]


def read_lines(text):
    """The per-line loop of read_csv, the reference for its columnar reader."""
    return experiment._read_lines(text.removeprefix("\ufeff").splitlines())


def _with_row(lines, row, respell):
    """The lines with data row `row` respelled."""
    return lines[: 1 + row] + [respell(lines[1 + row])] + lines[2 + row :]


def _with_cell(lines, row, column, respell):
    """The lines with one cell of data row `row` respelled."""

    def respelled(line):
        cells = line.split(",")
        cells[column] = respell(cells[column])
        return ",".join(cells)

    return _with_row(lines, row, respelled)


def _with_subject_cells(lines, row, respell):
    """The lines with the cells of every row of data row `row`'s subject respelled, so that the
    subject's rows still agree."""
    sid = lines[1 + row].partition(",")[0]
    return [",".join(respell(line.split(","))) if line.partition(",")[0] == sid else line for line in lines]


def _with_ids(lines, respell):
    return [lines[0]] + [f"{respell(sid)},{rest}" for sid, rest in (line.split(",", 1) for line in lines[1:])]


def _joined(lines):
    return "\n".join(lines) + "\n"


ARM, WAGE, CONSISTENT, AGE, FIRST_CHOICE = map(CSV_COLUMNS.index, ("treatment", "res_wage", "consistent", "age", "c01"))
ARMS = [t.value for t in Treatment]
# Perturbations of a file that write_csv wrote: each takes its lines and a row index and gives a text
PERTURBATIONS = {
    "crlf": lambda lines, row: "\r\n".join(lines) + "\r\n",
    "bom": lambda lines, row: "\ufeff" + _joined(lines),
    "leading-blank": lambda lines, row: "\n" + _joined(lines),
    "interior-blank": lambda lines, row: _joined(lines[: 1 + row] + [""] + lines[1 + row :]),
    "no-final-newline": lambda lines, row: "\n".join(lines),
    "header-only": lambda lines, row: _joined(lines[:1]),
    # "2.50" -> "2.5", "4.25" -> "4.250": the same value
    "wage-respelled": lambda lines, row: _joined(
        _with_cell(lines, row, WAGE, lambda w: w[:-1] if w.endswith("0") else w + "0")
    ),
    "age-respelled": lambda lines, row: _joined(_with_cell(lines, row, AGE, lambda age: "0" + age)),
    "extra-cell": lambda lines, row: _joined(_with_subject_cells(lines, row, lambda cells: cells + ["x"])),
    # the consistent and gender cells joined by an x: the outcome text is canonical up to the x
    "comma-dropped": lambda lines, row: _joined(
        _with_subject_cells(lines, row, lambda c: [*c[:CONSISTENT], "x".join(c[CONSISTENT:AGE]), *c[AGE:]])
    ),
    "cell-missing": lambda lines, row: _joined(_with_row(lines, row, lambda line: line.rsplit(",", 1)[0])),
    "id-16": lambda lines, row: _joined(_with_ids(lines, lambda sid: sid.rjust(16, "x"))),
    "id-17": lambda lines, row: _joined(_with_ids(lines, lambda sid: sid.rjust(17, "x"))),
    "id-40": lambda lines, row: _joined(_with_ids(lines, lambda sid: sid.rjust(40, "x"))),
    "non-ascii-id": lambda lines, row: _joined(
        _with_ids(lines, lambda sid: sid + "\u00e9" if sid == lines[1 + row].partition(",")[0] else sid)
    ),
    # the first subject's rows again at the end, or a row again right after itself
    "duplicate-subject": lambda lines, row: _joined(
        lines + [line for line in lines[1:] if line.partition(",")[0] == lines[1].partition(",")[0]]
    ),
    "repeated-scenario": lambda lines, row: _joined(lines[: 2 + row] + lines[1 + row :]),
    "bad-cell": lambda lines, row: _joined(_with_cell(lines, row, FIRST_CHOICE, lambda cell: "2")),
    "long-flag": lambda lines, row: _joined(_with_cell(lines, row, CONSISTENT, lambda flag: flag + "0")),
    "treatment-changed": lambda lines, row: _joined(
        _with_cell(lines, row, ARM, lambda arm: ARMS[(ARMS.index(arm) + 1) % len(ARMS)])
    ),
}


def _split_subjects(text):
    """The physical line numbers that start a block of _read_columns and repeat the line before's
    subject_id: where a block end cuts a subject's rows apart."""
    lines, a = text.splitlines(), len(experiment._HEADER)
    while a < len(text):
        a = text.rfind("\n", a, a + experiment._READ_BLOCK) + 1 or text.find("\n", a + experiment._READ_BLOCK) + 1
        no = text.count("\n", 0, a) + 1
        if no <= len(lines) and lines[no - 1].split(",")[0] == lines[no - 2].split(",")[0]:
            yield no


COLUMNAR = {"id-16", "id-17"}  # the perturbations that leave a file in write_csv's canonical form


class TestColumnarReader:
    """read_csv reads a canonical file by the columnar reader and anything else by the per-line loop,
    which is the reference: both give the same columns, dtypes and error messages."""

    @pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
    @settings(max_examples=12, deadline=None)
    @given(
        counts=st.dictionaries(st.sampled_from(list(Treatment)), st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        tremble=st.sampled_from([0.0, 0.3]),
        row=st.integers(0, 10**6),
    )
    def test_read_csv_is_the_loop(self, tmp_path_factory, perturbation, counts, seed, tremble, row):
        data = simulate_dataset(PopulationSpec(counts=counts, seed=seed, tremble=tremble, gamma_bounds=(1.8, 2.2)))
        directory = tmp_path_factory.mktemp("perturbed")
        write_csv(data, str(directory / "data.csv"))
        lines = (directory / "data.csv").read_text().splitlines()
        text = PERTURBATIONS[perturbation](lines, row % (len(lines) - 1))
        path = directory / "perturbed.csv"
        path.write_bytes(text.encode("utf-8"))
        oracle = read_outcome(read_lines, text)
        assert read_outcome(read_csv, str(path)) == oracle
        columns = experiment._read_columns(text.encode("utf-8"))
        if perturbation in COLUMNAR:
            assert read_outcome(lambda: columns) == oracle
        else:
            assert columns is None

    @pytest.mark.parametrize("width", [8, 16, 17])
    def test_write_csv_output_takes_the_columnar_path(self, tmp_path, monkeypatch, width):
        # ids of 17 characters share their first 16 with their neighbours'; the ids are decoded 7 at a time
        monkeypatch.setattr(experiment, "_DECODE_ROWS", 7)
        data = simulate_dataset(small_spec(counts={t: 40 for t in Treatment}, tremble=0.3))
        data = Dataset._from_columns([f"{j:0{width}d}" for j in range(len(data))], *_columns(data)[1:])
        assert set(data._treatment.tolist()) == set(range(len(Treatment)))
        path = tmp_path / "data.csv"
        write_csv(data, str(path))

        def fallback(lines):
            raise AssertionError("the loop read a canonical file")

        monkeypatch.setattr(experiment, "_read_lines", fallback)
        assert read_outcome(read_csv, str(path)) == read_outcome(lambda: data)

    def test_covariate_texts_that_share_their_first_word(self, tmp_path):
        # "female,18,1" and "female,18,10" share their first 8 bytes and differ in length; so do
        # "male,18,1" and "male,18,10", whose second words are "1" and "10"
        people = [(False, 18, 1), (False, 18, 10), (True, 18, 1), (True, 18, 10), (False, 181, 1), (False, 1, 8)]
        data = simulate_dataset(small_spec(counts={Treatment.BROAD: 2 * len(people)}, tremble=0.3))
        ids, treatment, _, offsets, keys = _columns(data)
        people = people + people[::-1]
        data = Dataset._from_columns(ids, treatment, list(zip(*people)), offsets, keys)
        path = tmp_path / "data.csv"
        write_csv(data, str(path))
        text = path.read_text()
        assert read_outcome(experiment._read_columns, text.encode()) == read_outcome(read_lines, text)
        assert read_outcome(read_lines, text) == read_outcome(lambda: data)

    def test_golden_data_takes_the_columnar_path(self):
        text = (DATA / "golden_data.csv").read_text()
        assert read_outcome(experiment._read_columns, text.encode()) == read_outcome(read_lines, text)

    def test_subjects_cut_by_a_block_end_read_as_the_loop_reads_them(self, tmp_path, monkeypatch):
        # blocks of about two lines, so that cuts fall between a subject's two rows
        monkeypatch.setattr(experiment, "_READ_BLOCK", 150)
        path = tmp_path / "data.csv"
        data = simulate_dataset(small_spec(counts={t: 20 for t in Treatment}, tremble=0.3))
        write_csv(data, str(path))
        for text in (path.read_text(), (DATA / "golden_data.csv").read_text()):
            assert any(_split_subjects(text))
            assert read_outcome(experiment._read_columns, text.encode()) == read_outcome(read_lines, text)

        # as many subjects as rows, where the reader's per-subject arrays fill up, and a single row
        ids, treatment, covariates, offsets, keys = _columns(data)
        for n in (len(data), 1):
            one_row = Dataset._from_columns(ids[:n], treatment[:n], [c[:n] for c in covariates], np.arange(n + 1),
                                            keys[offsets[:n]])
            write_csv(one_row, str(tmp_path / "one_row.csv"))
            text = (tmp_path / "one_row.csv").read_text()
            assert read_outcome(experiment._read_columns, text.encode()) == read_outcome(read_lines, text)
            assert read_outcome(read_lines, text) == read_outcome(lambda: one_row)

        # the first row of a block changes its subject's tediousness, which only the carried last row shows
        lines = path.read_text().splitlines()
        no = next(no for no in _split_subjects(path.read_text()) if len(lines[no - 1].split(",")[-1]) == 1)
        cells = lines[no - 1].split(",")
        cells[-1] = str(int(cells[-1]) % 9 + 1)  # one digit stays one digit, so the cuts stay where they are
        lines[no - 1] = ",".join(cells)
        path.write_text(_joined(lines))
        assert experiment._read_columns(path.read_bytes()) is None
        message = f"line {no}: subject {cells[0]} changes treatment or covariates"
        assert read_outcome(read_csv, str(path)) == read_outcome(read_lines, path.read_text()) == message

    def test_peak_memory_is_no_higher_than_the_loops(self, tmp_path, monkeypatch):
        arms = {Treatment.BROAD: 5000, Treatment.NARROW: 5000, Treatment.LOW: 5000}
        data = simulate_dataset(PopulationSpec(counts=arms, seed=0, composition=MixtureComposition(0.7), tremble=0.05))
        path = str(tmp_path / "data.csv")
        write_csv(data, path)
        peaks = []
        for reader in (experiment._read_columns, lambda text: None):
            monkeypatch.setattr(experiment, "_read_columns", reader)
            tracemalloc.start()
            try:
                assert read_csv(path) == data
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_a_pipe_is_read_whole_into_the_same_parser(self, tmp_path, monkeypatch):
        # a pipe cannot be mapped: read_csv reads it whole and hands its bytes to the parser that
        # a regular file reaches as a read-only map
        handed = []
        read_columns = experiment._read_columns
        monkeypatch.setattr(experiment, "_read_columns", lambda data: handed.append(type(data)) or read_columns(data))
        golden = DATA / "golden_data.csv"
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(golden.read_bytes(),))
        writer.start()
        try:
            from_pipe = read_outcome(read_csv, str(fifo))
        finally:
            if writer.is_alive():  # should read_csv fail before it opens the pipe, the writer's open returns
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert from_pipe == read_outcome(read_csv, str(golden))
        assert handed == [bytes, mmap.mmap]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_the_map_is_gone_once_read_csv_returns_or_raises(self, tmp_path, monkeypatch):
        path = os.path.realpath(tmp_path / "data.csv")

        def mapped():
            with open("/proc/self/maps") as fh:
                return any(line.rstrip("\n").endswith(" " + path) for line in fh)

        seen = []
        read_columns = experiment._read_columns
        monkeypatch.setattr(experiment, "_read_columns", lambda data: seen.append(mapped()) or read_columns(data))
        golden = (DATA / "golden_data.csv").read_bytes()
        files = {
            "canonical": (golden, None),
            "crlf": (golden.replace(b"\n", b"\r\n"), None),
            "bad-treatment": (golden.replace(b",BROAD,", b",BRAOD,", 1), "line 2: "),
            "not-utf-8": (golden + b"\xff\n", "not UTF-8 text: "),
        }
        for name, (data, error) in files.items():
            Path(path).write_bytes(data)
            try:
                dataset = read_csv(path)
            except DataFormatError as exc:  # its traceback still holds read_csv's frame
                assert seen.pop() and not mapped(), name
                assert error is not None and str(exc).startswith(error), name
            else:
                assert seen.pop() and not mapped(), name
                assert error is None and dataset == read_csv(str(DATA / "golden_data.csv")), name

    def test_an_unmappable_file_costs_its_size_in_traced_memory(self, tmp_path, monkeypatch):
        arms = {Treatment.BROAD: 5000, Treatment.NARROW: 5000, Treatment.LOW: 5000}
        data = simulate_dataset(PopulationSpec(counts=arms, seed=0, composition=MixtureComposition(0.7), tremble=0.05))
        path = tmp_path / "data.csv"
        write_csv(data, str(path))

        def peak():
            tracemalloc.start()
            try:
                assert read_csv(str(path)) == data
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def unmappable(*args, **kwargs):
            raise OSError("no map")

        mapped = peak()
        monkeypatch.setattr(mmap, "mmap", unmappable)
        assert peak() - mapped >= 0.9 * path.stat().st_size


UNWRITABLE = {
    "comma": ",", "LF": "\n", "CR": "\r", "VT": "\x0b", "FF": "\x0c", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
    "NEL": "\x85", "LS": "\u2028", "PS": "\u2029",
}


@pytest.mark.parametrize("char", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_write_csv_refuses_an_id_read_csv_could_not_read_back(tmp_path, char):
    records = list(read_csv(str(DATA / "golden_data.csv")).records)
    for i in (1, 3):
        records[i] = replace(records[i], subject_id=f"S{i}{char}x")
    path = tmp_path / "data.csv"
    with pytest.raises(ValueError) as exc:
        write_csv(Dataset(records), str(path))
    assert str(exc.value) == f"subject_id {f'S1{char}x'!r} holds a comma or a line break, which a CSV row cannot hold"
    assert not path.exists()
