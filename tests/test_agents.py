"""Framed evaluation, reservation wages, and grid snapping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracketlab.agents import (
    Agent,
    Broad,
    CENSOR_CODE,
    ConvexKappa,
    ModeUnsupported,
    Narrow,
    NoIndifference,
    Partial,
    evaluate_option,
    population_wages,
    reservation_wage_exact,
    snap_to_list,
)
from bracketlab.design import Scenario, Treatment, treatment_spec
from bracketlab.preferences import (
    Bundle,
    CaraMoneyPowerCost,
    LinearMetric,
    QuasiLinearPowerCost,
    _stack_columns,
)

TOL = 1e-8

QL = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)
QL_LINEAR = QuasiLinearPowerCost(alpha=0.004, gamma=1.0)


def cost(model, tasks):
    return model.alpha * tasks**model.gamma


class TestEvaluateOption:
    PRESENTED = Bundle(15, 4.0)
    ENDOW = Bundle(15, 2.0)

    def test_broad_sees_totals(self):
        v = evaluate_option(Agent(QL, Broad()), self.PRESENTED, self.ENDOW)
        assert v == pytest.approx(2.4)  # u(30, 6)

    def test_narrow_sees_presented_only(self):
        v = evaluate_option(Agent(QL, Narrow()), self.PRESENTED, self.ENDOW)
        assert v == pytest.approx(3.1)  # u(15, 4)

    def test_partial_counts_tasks_not_money(self):
        v = evaluate_option(Agent(QL, Partial()), self.PRESENTED, self.ENDOW)
        assert v == pytest.approx(QL.value(30, 4.0))

    def test_empty_endowment_collapses_frames(self):
        zero = Bundle(0, 0.0)
        vals = {
            mode.__class__.__name__: evaluate_option(Agent(QL, mode), self.PRESENTED, zero)
            for mode in (Broad(), Narrow(), Partial())
        }
        assert len(set(vals.values())) == 1

    def test_convex_kappa_has_no_utility_level(self):
        with pytest.raises(ModeUnsupported):
            evaluate_option(Agent(QL, ConvexKappa(0.5)), self.PRESENTED, self.ENDOW)


class TestReservationWage:
    def test_broad_s1_closed_form(self):
        spec = treatment_spec(Treatment.BROAD, Scenario.S1)
        r = reservation_wage_exact(Agent(QL, Broad()), spec)
        assert r == pytest.approx(cost(QL, 30) - cost(QL, 15), abs=TOL)  # 2.7

    def test_broad_s2_closed_form(self):
        spec = treatment_spec(Treatment.BROAD, Scenario.S2)
        r = reservation_wage_exact(Agent(QL, Broad()), spec)
        assert r == pytest.approx(4.5, abs=TOL)  # c(45) - c(30)

    def test_narrow_agent_on_narrow_s1(self):
        spec = treatment_spec(Treatment.NARROW, Scenario.S1)
        r = reservation_wage_exact(Agent(QL, Narrow()), spec)
        assert r == pytest.approx(0.9, abs=TOL)  # c(15) - c(0)

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize(
        "treatment",
        [Treatment.NARROW, Treatment.PARTIAL, Treatment.BEFORE, Treatment.AFTER],
    )
    def test_broad_agent_ignores_the_split(self, treatment, scenario):
        # equal full outcomes, equal broad reservation wage
        agent = Agent(QL, Broad())
        r_ref = reservation_wage_exact(agent, treatment_spec(Treatment.BROAD, scenario))
        r = reservation_wage_exact(agent, treatment_spec(treatment, scenario))
        assert r == pytest.approx(r_ref, abs=TOL)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_narrow_agent_ignores_endowment(self, scenario):
        # NARROW and LOW present identical options
        agent = Agent(QL, Narrow())
        r_narrow = reservation_wage_exact(agent, treatment_spec(Treatment.NARROW, scenario))
        r_low = reservation_wage_exact(agent, treatment_spec(Treatment.LOW, scenario))
        assert r_narrow == pytest.approx(r_low, abs=TOL)

    def test_convex_costs_separate_the_frames(self):
        spec = treatment_spec(Treatment.NARROW, Scenario.S1)
        r_broad = reservation_wage_exact(Agent(QL, Broad()), spec)
        r_narrow = reservation_wage_exact(Agent(QL, Narrow()), spec)
        assert r_broad > r_narrow + 0.1

    def test_linear_costs_do_not(self):
        spec = treatment_spec(Treatment.NARROW, Scenario.S1)
        r_broad = reservation_wage_exact(Agent(QL_LINEAR, Broad()), spec)
        r_narrow = reservation_wage_exact(Agent(QL_LINEAR, Narrow()), spec)
        assert r_broad == pytest.approx(r_narrow, abs=TOL)

    def test_kappa_endpoints(self):
        spec = treatment_spec(Treatment.NARROW, Scenario.S2)
        assert reservation_wage_exact(Agent(QL, ConvexKappa(0.0)), spec) == pytest.approx(
            reservation_wage_exact(Agent(QL, Broad()), spec), abs=TOL
        )
        assert reservation_wage_exact(Agent(QL, ConvexKappa(1.0)), spec) == pytest.approx(
            reservation_wage_exact(Agent(QL, Narrow()), spec), abs=TOL
        )

    def test_kappa_is_affine(self):
        spec = treatment_spec(Treatment.NARROW, Scenario.S1)
        r = {k: reservation_wage_exact(Agent(QL, ConvexKappa(k)), spec) for k in (-0.5, 0.5, 1.5)}
        # equally spaced kappas: midpoint value is the average of the ends
        assert r[0.5] == pytest.approx(0.5 * (r[-0.5] + r[1.5]), abs=TOL)
        r_b = reservation_wage_exact(Agent(QL, Broad()), spec)
        r_n = reservation_wage_exact(Agent(QL, Narrow()), spec)
        assert r[1.5] - r[0.5] == pytest.approx(r_n - r_b, abs=TOL)

    def test_framing_shift_applies_only_before_after(self):
        agent = Agent(QL, Narrow(), framing_shift=0.3)
        r_plain = reservation_wage_exact(agent, treatment_spec(Treatment.NARROW, Scenario.S1))
        r_before = reservation_wage_exact(agent, treatment_spec(Treatment.BEFORE, Scenario.S1))
        r_after = reservation_wage_exact(agent, treatment_spec(Treatment.AFTER, Scenario.S1))
        assert r_plain == pytest.approx(0.9, abs=TOL)
        assert r_before == pytest.approx(1.2, abs=TOL)
        assert r_after == pytest.approx(1.2, abs=TOL)

    def test_framing_shift_skips_broad_component(self):
        broad = Agent(QL, Broad(), framing_shift=0.3)
        spec = treatment_spec(Treatment.BEFORE, Scenario.S1)
        assert reservation_wage_exact(broad, spec) == pytest.approx(2.7, abs=TOL)
        mixed = Agent(QL, ConvexKappa(0.5), framing_shift=0.3)
        assert reservation_wage_exact(mixed, spec) == pytest.approx(
            0.5 * 2.7 + 0.5 * (0.9 + 0.3), abs=TOL
        )

    def test_no_indifference_when_tasks_are_goods(self):
        # strong taste for work: option B dominates at every bracket wage
        eager = Agent(LinearMetric(10.0, 1.0), Narrow())
        with pytest.raises(NoIndifference):
            reservation_wage_exact(eager, treatment_spec(Treatment.NARROW, Scenario.S1))


class TestAboveTheBracket:
    # subject 2302 of population seed 38: its Broad wage in S2 is about 130
    STEEP = QuasiLinearPowerCost(alpha=0.0076, gamma=2.67)

    def test_wage_above_the_bracket_is_inf_and_censored(self):
        r = reservation_wage_exact(Agent(self.STEEP, Broad()), treatment_spec(Treatment.BROAD, Scenario.S2))
        assert r == math.inf
        assert snap_to_list(r) == (CENSOR_CODE, True)

    def test_bounded_cara_utility_is_censored(self):
        # CARA utility is bounded by 1/rho: at rho = 0.5 no bracket wage pays for 15 more tasks
        agent = Agent(CaraMoneyPowerCost(0.5, 0.004, 2.0), Broad())
        assert reservation_wage_exact(agent, treatment_spec(Treatment.BROAD, Scenario.S1)) == math.inf

    def test_zero_weight_frame_is_not_priced(self):
        # under NARROW S2 the Broad frame is above the bracket, the Narrow frame is not
        spec = treatment_spec(Treatment.NARROW, Scenario.S2)
        r_narrow = reservation_wage_exact(Agent(self.STEEP, Narrow()), spec)
        assert r_narrow == pytest.approx(cost(self.STEEP, 30) - cost(self.STEEP, 15), abs=TOL)
        assert reservation_wage_exact(Agent(self.STEEP, ConvexKappa(1.0)), spec) == r_narrow
        assert reservation_wage_exact(Agent(self.STEEP, ConvexKappa(0.0)), spec) == math.inf
        assert reservation_wage_exact(Agent(self.STEEP, ConvexKappa(0.5)), spec) == math.inf

    def test_wage_above_the_bracket_under_a_negative_weight_has_no_indifference(self):
        # (1 - kappa) * inf would be -inf, a wage below the grid: the sign of
        # a censored frame wage flips, so the combined wage is unknown
        spec = treatment_spec(Treatment.NARROW, Scenario.S2)
        with pytest.raises(NoIndifference):
            reservation_wage_exact(Agent(self.STEEP, ConvexKappa(1.2)), spec)
        # kappa < 0 puts the negative weight on the Narrow frame, which for
        # STEEP has a switch, so only a steeper cost makes it fail
        assert reservation_wage_exact(Agent(self.STEEP, ConvexKappa(-0.5)), spec) == math.inf
        steeper = QuasiLinearPowerCost(alpha=0.05, gamma=2.67)
        assert reservation_wage_exact(Agent(steeper, Narrow()), spec) == math.inf
        for kappa in (1.2, -0.5):
            with pytest.raises(NoIndifference):
                reservation_wage_exact(Agent(steeper, ConvexKappa(kappa)), spec)
        assert reservation_wage_exact(Agent(steeper, ConvexKappa(0.5)), spec) == math.inf

    def test_nan_utility_has_no_indifference_and_no_warning(self):
        # exp(1000 m) overflows: both utilities are inf and their gap is NaN
        model = _stack_columns(
            CaraMoneyPowerCost, rho=np.array([-0.01, -1000.0]), alpha=np.full(2, 0.004), gamma=np.full(2, 2.0)
        )
        cells = [(treatment_spec(Treatment.BROAD, Scenario.S1), 2)]
        with pytest.raises(NoIndifference) as exc:
            population_wages(model, (Broad(),), np.zeros(2, np.intp), 0.0, cells)
        assert exc.value.index == 1


def closed_form_wage(alpha, gamma, rho, frame, spec):
    """Extra wage equating options A and B in one pure frame, solved by hand.

    Quasi-linear: the cost difference. CARA: the log of the
    exponential money utility, inverted.
    """
    at, am = spec.option_a.tasks, spec.option_a.money
    bt, et, em = spec.option_b_tasks, spec.endowment.tasks, spec.endowment.money
    if frame is Broad:
        tasks_a, tasks_b, money = at + et, bt + et, am + em
    elif frame is Narrow:
        tasks_a, tasks_b, money = at, bt, am
    else:
        tasks_a, tasks_b, money = at + et, bt + et, am
    cost_gap = alpha * (tasks_b**gamma - tasks_a**gamma)
    if rho is None:
        return cost_gap
    return -math.log(math.exp(-rho * money) - rho * cost_gap) / rho - money


def closed_form_agent_wage(alpha, gamma, rho, mode, shift, spec):
    shift = shift if spec.treatment in (Treatment.BEFORE, Treatment.AFTER) else 0.0
    if isinstance(mode, ConvexKappa):
        r_broad = closed_form_wage(alpha, gamma, rho, Broad, spec)
        r_narrow = closed_form_wage(alpha, gamma, rho, Narrow, spec) + shift
        return (1.0 - mode.kappa) * r_broad + mode.kappa * r_narrow
    r = closed_form_wage(alpha, gamma, rho, type(mode), spec)
    return r + shift if isinstance(mode, Narrow) else r


# parameter ranges keep every cell's wage inside the +-100 search bracket
MEMBERS = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=0.008),
        st.floats(min_value=1.0, max_value=2.2),
        st.one_of(
            st.sampled_from([Broad(), Narrow(), Partial()]),
            st.floats(min_value=-0.5, max_value=1.5).map(ConvexKappa),
        ),
    ),
    min_size=1,
    max_size=8,
)
RHO = st.one_of(
    st.none(),
    st.floats(min_value=0.001, max_value=0.02),
    st.floats(min_value=-0.02, max_value=-0.001),
)


class TestPopulationWages:
    @settings(max_examples=40, deadline=None)
    @given(members=MEMBERS, rho=RHO, shift=st.floats(min_value=-0.5, max_value=0.5))
    def test_block_matches_closed_forms_and_single_agents(self, members, rho, shift):
        def model(alpha, gamma):
            if rho is None:
                return QuasiLinearPowerCost(alpha, gamma)
            return CaraMoneyPowerCost(rho, alpha, gamma)

        alphas, gammas, member_modes = zip(*members)
        columns = {"alpha": np.array(alphas), "gamma": np.array(gammas)}
        if rho is None:
            stack = _stack_columns(QuasiLinearPowerCost, **columns)
        else:
            stack = _stack_columns(CaraMoneyPowerCost, rho=np.full(len(members), rho), **columns)
        modes = list(dict.fromkeys(member_modes))
        mode_index = np.array([modes.index(mode) for mode in member_modes])
        # all 12 cells in one call: cells posing one problem share its roots
        specs = [treatment_spec(treatment, scenario) for treatment in Treatment for scenario in Scenario]
        blocks = population_wages(stack, modes, mode_index, shift, [(spec, len(members)) for spec in specs])
        for spec, block in zip(specs, blocks):
            for (alpha, gamma, mode), r in zip(members, block):
                expected = closed_form_agent_wage(alpha, gamma, rho, mode, shift, spec)
                assert r == pytest.approx(expected, abs=1e-9)
                # batching invariance: alone, the agent gets the same bits
                assert reservation_wage_exact(Agent(model(alpha, gamma), mode, shift), spec) == r

    def test_no_indifference_names_the_first_failing_member(self):
        # members 1 and 3 like work: option B dominates at every bracket wage
        stack = _stack_columns(LinearMetric, lambda_tasks=np.array([-0.1, 10.0, -0.1, 10.0]), lambda_money=np.ones(4))
        narrow = treatment_spec(Treatment.NARROW, Scenario.S1)
        cells = [(treatment_spec(Treatment.BROAD, Scenario.S1), 1), (narrow, 4)]
        with pytest.raises(NoIndifference) as exc:
            population_wages(stack, (Narrow(), Broad()), np.array([0, 0, 1, 0]), 0.0, cells)
        assert exc.value.index == 1
        assert exc.value.spec == narrow


class TestSnapToList:
    @pytest.mark.parametrize(
        "r,expected",
        [
            (2.7, (2.75, False)),
            (4.5, (4.25, True)),
            (0.25, (0.25, False)),
            (-1.0, (0.25, False)),
            (4.0, (4.0, False)),
            (4.0000000001, (4.0, False)),
            (2.75, (2.75, False)),
        ],
    )
    def test_examples(self, r, expected):
        assert snap_to_list(r) == expected

    def test_censor_code_constant(self):
        assert CENSOR_CODE == 4.25

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
    def test_monotone(self, a, b):
        # the censor code sits above the whole grid, so recorded wages
        # stay ordered even across the censoring boundary
        lo, hi = sorted((a, b))
        assert snap_to_list(lo)[0] <= snap_to_list(hi)[0]

    @given(st.integers(min_value=1, max_value=16))
    def test_idempotent_on_grid(self, k):
        wage = 0.25 * k
        assert snap_to_list(wage) == (wage, False)
