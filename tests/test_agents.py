"""Framed evaluation, reservation wages, and grid snapping."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bracketlab import agents
from bracketlab.agents import (
    Agent,
    Broad,
    ConvexKappa,
    ModeUnsupported,
    Narrow,
    NoIndifference,
    Partial,
    WAGE_BRACKET,
    population_wages,
    reservation_wage_exact,
    snap_rows,
    snap_to_list,
)
from bracketlab.design import CENSOR_CODE, Scenario, Treatment, price_list, treatment_spec
from bracketlab.preferences import (
    ROOT_TOL,
    Bundle,
    CaraMoneyPowerCost,
    LinearMetric,
    QuasiLinearPowerCost,
)

TOL = 1e-8

QL = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)
QL_LINEAR = QuasiLinearPowerCost(alpha=0.004, gamma=1.0)


def cost(model, tasks):
    return model.alpha * tasks**model.gamma


def evaluate_option(agent, presented, endowment):
    """Utility of a presented option as seen through the agent's frame: one option at a time, as population_wages frames a cell."""
    tasks, money = agents._counted_endowment(type(agent.mode), endowment)
    return agent.model.value(presented.tasks + tasks, presented.money + money)


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
        model = CaraMoneyPowerCost(rho=np.array([-0.01, -1000.0]), alpha=0.004, gamma=2.0)
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
        stack = model(np.array(alphas), np.array(gammas))
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

    @pytest.mark.parametrize("kappa", [0.7, 0.3, 1.4, -0.3])
    def test_convex_weights_obey_the_kappa_relation_per_subject(self, kappa):
        # nls_kappa's model on continuous wages: mid (NARROW) = (1 - kappa)
        # * broad anchor (BROAD) + kappa * narrow anchor (LOW), subject by
        # subject, under quasi-linear money; CARA breaks it, as LOW's broad
        # frame counts the endowed money
        rng, n = np.random.default_rng(0), 300
        alpha, gamma = np.exp(rng.normal(math.log(0.004), 0.35, n)), rng.uniform(1.0, 2.2, n)
        anchors = (Treatment.BROAD, Treatment.LOW, Treatment.NARROW)
        models = ((QuasiLinearPowerCost(alpha, gamma), True), (CaraMoneyPowerCost(0.02, alpha, gamma), False))
        for model, holds in models:
            for scenario in Scenario:
                cells = [(treatment_spec(t, scenario), n) for t in anchors]
                broad, narrow, mid = population_wages(model, (ConvexKappa(kappa),), np.zeros(n, np.intp), 0.0, cells)
                gap = np.abs(mid - ((1.0 - kappa) * broad + kappa * narrow)).max()
                assert gap < 1e-12 if holds else gap > 0.01, (scenario, gap)

    def test_no_indifference_names_the_first_failing_member(self):
        # members 1 and 3 like work: option B dominates at every bracket wage
        stack = LinearMetric(lambda_tasks=np.array([-0.1, 10.0, -0.1, 10.0]), lambda_money=1.0)
        narrow = treatment_spec(Treatment.NARROW, Scenario.S1)
        cells = [(treatment_spec(Treatment.BROAD, Scenario.S1), 1), (narrow, 4)]
        with pytest.raises(NoIndifference) as exc:
            population_wages(stack, (Narrow(), Broad()), np.array([0, 0, 1, 0]), 0.0, cells)
        assert exc.value.index == 1
        assert exc.value.spec == narrow


def bisect_wages_by_brackets(model, tasks_a, tasks_b, money_base):
    """Wages by bisection on [-WAGE_BRACKET, WAGE_BRACKET]: a lo and a hi per element, each halved only while that element's bracket is open."""
    target = model.value(tasks_a, money_base)

    def gap(r):
        return model.value(tasks_b, money_base + r) - target

    lo = np.full(len(money_base), -WAGE_BRACKET)
    hi = np.full(len(money_base), WAGE_BRACKET)
    gap_lo, gap_hi = gap(lo), gap(hi)
    switches = (gap_lo <= 0.0) & (gap_hi >= 0.0)
    roots = np.where((gap_lo <= 0.0) & (gap_hi < 0.0), np.inf, np.nan)
    open_ = switches
    while open_.any():
        mid = 0.5 * (lo + hi)
        below = gap(mid) < 0.0
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
        open_ = switches & (hi - lo > ROOT_TOL)
    roots[switches] = 0.5 * (lo[switches] + hi[switches])
    return roots


# (alpha, gamma, rho, tasks_a, tasks_b, money_base); a large cost gap puts
# the wage above the bracket (+inf) or, with tasks_b below tasks_a, gives B
# the edge already at its bottom (NaN), and CARA's rho = -1000 makes the gap NaN
BISECTION_MEMBERS = st.lists(
    st.tuples(
        st.floats(min_value=0.0005, max_value=0.6),
        st.floats(min_value=1.0, max_value=3.0),
        st.one_of(st.just(-1000.0), st.floats(min_value=0.001, max_value=0.5), st.floats(min_value=-0.05, max_value=-0.001)),
        st.sampled_from([0.0, 15.0, 30.0, 45.0, 60.0]),
        st.sampled_from([0.0, 15.0, 30.0, 45.0, 60.0]),
        st.floats(min_value=-10.0, max_value=10.0),
    ),
    min_size=1,
    max_size=12,
)
ABOVE, NONE, INSIDE = (0.6, 3.0, 0.01, 30.0, 45.0, 4.0), (0.6, 3.0, -1000.0, 45.0, 30.0, 4.0), (0.004, 2.0, 0.01, 0.0, 15.0, 4.0)
FLAT = (0.2, 2.0, -1000.0, 60.0, 60.0, -5.0)  # see one_root_near


def member_problems(members, cara):
    """A stack of the members' models and their problems, one per member: np.full in _frame_wages takes arrays."""
    alpha, gamma, rho, tasks_a, tasks_b, money_base = map(np.array, zip(*members))
    model = CaraMoneyPowerCost(rho, alpha, gamma) if cara else QuasiLinearPowerCost(alpha, gamma)
    return model, (tasks_a, tasks_b, money_base)


def wages_both_ways(model, problem):
    """(bisected, inverted) wages of each member's problem."""
    with np.errstate(invalid="ignore"):  # inf - inf in the bisection's NaN gap
        return bisect_wages_by_brackets(model, *problem), agents._frame_wages(model, problem, len(problem[0]))


def one_root_near(model, problem, r):
    """Whether the bisection's gap changes sign within 1e-9 (relative) of r, per member.

    Where utility is flat in money at float precision, every wage on the
    flat stretch is a root, and the two methods may return different ones:
    CARA at rho = -1000 and money below zero, where exp(1000 m) underflows,
    is flat at its bound -1 / 1000 (less the cost), and the bisection
    returns the bottom of the bracket.
    """
    tasks_a, tasks_b, money_base = problem
    target, delta = model.value(tasks_a, money_base), 1e-9 * np.maximum(1.0, np.abs(r))
    with np.errstate(invalid="ignore"):  # inf - inf where r is +inf
        below = model.value(tasks_b, money_base + r - delta) < target
        return below & (model.value(tasks_b, money_base + r + delta) > target)


class TestWageInversion:
    @settings(max_examples=80, deadline=None)
    @given(members=BISECTION_MEMBERS, cara=st.booleans())
    @example(members=[ABOVE, NONE, INSIDE], cara=False)
    @example(members=[ABOVE, NONE, INSIDE], cara=True)
    @example(members=[FLAT, INSIDE], cara=True)
    def test_agrees_with_a_bracket_per_element(self, members, cara):
        model, problem = member_problems(members, cara)
        bisected, inverted = wages_both_ways(model, problem)
        finite = np.isfinite(bisected)
        np.testing.assert_array_equal(inverted[~finite], bisected[~finite])  # +inf and NaN alike
        compared = finite & one_root_near(model, problem, bisected)
        assert np.isfinite(inverted[compared]).all()
        np.testing.assert_allclose(inverted[compared], bisected[compared], rtol=1e-9, atol=1e-9)
        # the recorded row, but where the wage is within 1e-9 of a snap boundary
        off_boundary = compared & (snap_rows(bisected - 1e-9) == snap_rows(bisected + 1e-9))
        np.testing.assert_array_equal(snap_rows(inverted)[off_boundary], snap_rows(bisected)[off_boundary])

    def test_the_examples_reach_every_outcome(self):
        # the explicit examples above hold a wage above the bracket, none, and one inside it
        for cara in (False, True):
            model, problem = member_problems([ABOVE, NONE, INSIDE], cara)
            bisected, inverted = wages_both_ways(model, problem)
            for wages in (bisected, inverted):
                np.testing.assert_array_equal(wages[:2], [np.inf, np.nan])
                assert np.isfinite(wages[2])
            assert one_root_near(model, problem, bisected).tolist() == [False, False, True]

    def test_a_flat_utility_has_no_one_root(self):
        # exp(1000 m) is 0 from the bracket's bottom to near zero money, so the
        # true wage, 0, is one of many: the bisection returns the bottom, the
        # inverse a wage near -m, where the cost's rounding leaves the log
        model, problem = member_problems([FLAT], cara=True)
        bisected, inverted = wages_both_ways(model, problem)
        assert bisected[0] == pytest.approx(-WAGE_BRACKET) and inverted[0] == pytest.approx(5.0, abs=0.1)
        assert not one_root_near(model, problem, bisected)[0]

    def test_every_bracket_end_is_exact(self):
        # the oracle's brackets all share one width, exactly, only while every
        # end, midpoint and sum of two ends on the way down to ROOT_TOL is
        # exact: integer multiples k of the final width with |k| <=
        # 2**halvings, each a float iff k times the odd part of the width's
        # numerator fits in 53 bits
        width, halvings = 2.0 * WAGE_BRACKET, 0
        while width > ROOT_TOL:
            width, halvings = 0.5 * width, halvings + 1
        assert Fraction(width) * 2**halvings == 2 * Fraction(WAGE_BRACKET)
        odd = Fraction(width).numerator
        while odd % 2 == 0:
            odd //= 2
        assert odd << halvings <= 2**53


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

    def test_nan_wage_is_rejected(self):
        # a NaN is above no grid wage, so it must not be recorded as censored
        with pytest.raises(ValueError, match="NaN"):
            snap_to_list(math.nan)


GRID = price_list().extra_wages
# finite wages, grid points, their neighbours at the snap slack (1e-7) and
# just beyond it, and the infinities
WAGES = st.one_of(
    st.floats(min_value=-10, max_value=10),
    st.builds(lambda w, step: w + step, st.sampled_from(GRID), st.sampled_from([0.0, -1e-7, 1e-7, -2e-7, 2e-7])),
    st.sampled_from([-math.inf, math.inf]),
)


def _snap_by_definition(r):
    """The smallest grid wage w with w >= r - 1e-7, else the censor code."""
    return next(((w, False) for w in GRID if w >= r - 1e-7), (CENSOR_CODE, True))


class TestSnapAgreement:
    @given(st.lists(WAGES, max_size=20))
    def test_array_snap_is_elementwise_snap(self, wages):
        rows = snap_rows(np.array(wages, dtype=float))
        assert rows.tolist() == [int(snap_rows(r)) for r in wages]

    @given(WAGES)
    def test_snap_to_list_is_the_scalar_definition(self, r):
        assert snap_to_list(r) == _snap_by_definition(r)
