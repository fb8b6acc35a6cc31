"""Design table, subject simulation, dataset determinism, CSV round-trips."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracketlab.agents import Agent, Broad, Narrow, reservation_wage_exact, snap_to_list
from bracketlab.design import Scenario, Treatment, price_list, treatment_spec
from bracketlab.experiment import (
    CSV_COLUMNS,
    Covariates,
    DataFormatError,
    Dataset,
    KappaComposition,
    MixtureComposition,
    PopulationSpec,
    ScenarioOutcome,
    classify_consistency,
    iter_observations,
    read_csv,
    simulate_dataset,
    simulate_subject,
    subject_stream,
    write_csv,
    _draw_subject,
    _stream_states,
)
from bracketlab.preferences import Bundle, QuasiLinearPowerCost

QL = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)

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


class TestSimulateDataset:
    def test_deterministic(self):
        assert simulate_dataset(small_spec()) == simulate_dataset(small_spec())

    def test_worker_invariant(self):
        assert simulate_dataset(small_spec(), workers=1) == simulate_dataset(small_spec(), workers=4)

    def test_counts_and_ids(self):
        data = simulate_dataset(small_spec())
        assert len(data) == 24
        assert data.records[0].subject_id == "BROAD-0000"
        treatments = [r.treatment for r in data.records]
        assert treatments == sorted(treatments, key=lambda t: list(Treatment).index(t))

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
        with pytest.raises(ValueError):
            small_spec(tremble=1.5)
        with pytest.raises(ValueError):
            small_spec(counts={Treatment.BROAD: -1})
        with pytest.raises(ValueError):
            small_spec(gamma_bounds=(0.5, 4.0))
        with pytest.raises(ValueError):
            MixtureComposition(1.2)


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
        states = _stream_states(seed, count)
        assert len(states) == count
        rng = np.random.Generator(np.random.PCG64(0))
        for j in {0, count - 1} | {p % count for p in picks}:
            reference = subject_stream(seed, j)
            assert states[j] == reference.bit_generator.state
            rng.bit_generator.state = states[j]
            assert rng.random(3).tolist() == reference.random(3).tolist()
            assert rng.integers(0, 100) == reference.integers(0, 100)

    @pytest.mark.parametrize("seed", [0, 3, 7, 2**31 + 5, 2**40 + 17, 2**97 + 3])
    def test_every_stream_of_a_block(self, seed):
        states = _stream_states(seed, 2500)
        assert states == [subject_stream(seed, j).bit_generator.state for j in range(2500)]

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

    def test_consistent_requires_matching_wage(self):
        with pytest.raises(ValueError):
            ScenarioOutcome(Scenario.S1, (False,) * 8 + (True,) * 8, 2.5, False, True)

    def test_censor_flag_must_match(self):
        with pytest.raises(ValueError):
            ScenarioOutcome(Scenario.S1, (False,) * 16, 4.25, False, True)

    def test_duplicate_subject_ids_rejected(self):
        record = simulate_subject(
            subject_stream(0, 0), Agent(QL, Broad()), Treatment.BROAD, Covariates(True, 30, 5),
            subject_id="X-0000",
        )
        with pytest.raises(ValueError):
            Dataset((record, record))


class TestCsvRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        data = simulate_dataset(small_spec(tremble=0.3))
        path = str(tmp_path / "data.csv")
        write_csv(data, path)
        assert read_csv(path) == data

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


class TestMalformedCsv:
    """Each bad row follows valid rows that hold every one of its other parts."""

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"C,BROAD,S1,{S1_SWITCH[5:]},male,30,5", "expected 25 fields, got 24"),
            (f"C,BROAD,S1,0,{S1_SWITCH[3:]},male,30,5", "expected 25 fields, got 26"),
            (f"C,BROAD,{_cells(S1_SWITCH, 5, '2')},male,30,5", "expected 0 or 1, got '2'"),
            (f"C,BROAD,{_cells(S1_SWITCH, 0, 'S9')},male,30,5", "'S9' is not a valid Scenario"),
            (f"C,MIDDLE,{S1_SWITCH},male,30,5", "'MIDDLE' is not a valid Treatment"),
            (f"C,BROAD,{S1_SWITCH},x,30,5", "gender must be male or female, got 'x'"),
            (f"C,BROAD,{S1_SWITCH},male,-1,5", "age must be nonnegative"),
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
                f"C,BROAD,{_cells(_cells(S1_NON_MONOTONE, 17, '9.99'), 18, '1')},male,30,5",
                "res_wage 9.99 does not match switch point 0.25",
            ),
            (
                f"C,BROAD,{_cells(S1_NON_MONOTONE, 18, '1')},male,30,5",
                "censored flag contradicts the choice rows",
            ),
            (f"B,BROAD,{S1_SWITCH},female,41,7", "subject B changes treatment or covariates"),
            (f"B,NARROW,{S1_SWITCH},male,30,5", "subject B changes treatment or covariates"),
        ],
        ids=[
            "24-fields", "26-fields", "choice-flag", "scenario", "treatment", "gender", "age",
            "tediousness", "switch-point", "nan-wage", "inconsistent-wage", "inconsistent-censored",
            "changes-treatment", "changes-covariates",
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([HEADER] + VALID_ROWS + [row, VALID_ROWS[0].replace("A,", "D,", 1)]) + "\n")
        with pytest.raises(DataFormatError) as exc:
            read_csv(str(path))
        assert str(exc.value) == f"line 6: {message}"

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

    def test_each_outcome_text_validated_once(self, tmp_path, monkeypatch):
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
        assert read_csv(str(path)) == data
        assert len(built) == len(outcome_texts)


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
        fewer = dataclasses.replace(data, records=data.records[:3])
        assert fewer.observations is not before
        assert fewer.observations.res_wage.size == sum(len(r.outcomes) for r in data.records[:3])

    def test_empty_dataset(self):
        obs = Dataset(()).observations
        assert obs.res_wage.size == obs.treatment.size == 0
