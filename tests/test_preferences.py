"""Bundle/lottery algebra and the money metric against closed forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracketlab.agents import Agent, Broad, Narrow
from bracketlab.preferences import (
    Bundle,
    CaraMoneyPowerCost,
    CrraMoney,
    LinearMetric,
    Lottery,
    NonMonotoneModel,
    QuasiLinearPowerCost,
    ZERO_BUNDLE,
    certainty_equivalent,
    expected_utility,
    money_metric,
    utility,
)

TOL = 1e-8  # root tolerance is 1e-9; allow one spare digit

QL = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)
CARA = CaraMoneyPowerCost(rho=1.0, alpha=0.0, gamma=1.0)
COIN = Lottery.over_money([(0.0, 0.5), (1.0, 0.5)])


class TestBundle:
    def test_add_is_componentwise(self):
        assert Bundle(15, 2.0) + Bundle(15, 4.0) == Bundle(30, 6.0)

    def test_negative_tasks_rejected(self):
        with pytest.raises(ValueError):
            Bundle(-1, 0.0)

    def test_less_money(self):
        assert Bundle(5, 3.0).less_money(1.25) == Bundle(5, 1.75)


class TestLottery:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Lottery(((ZERO_BUNDLE, 0.5), (Bundle(1, 0.0), 0.4)))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Lottery(((ZERO_BUNDLE, 1.2), (Bundle(1, 0.0), -0.2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Lottery(())

    def test_mixed_with_zero(self):
        mixed = COIN.mixed_with_zero(0.5)
        assert expected_utility(LinearMetric(0.0, 1.0), mixed) == pytest.approx(0.25)

    def test_independent_sum_probabilities(self):
        product = Lottery.independent_sum(COIN, COIN)
        assert sum(p for _, p in product.outcomes) == pytest.approx(1.0)
        assert expected_utility(LinearMetric(0.0, 1.0), product) == pytest.approx(1.0)


class TestUtility:
    def test_quasilinear_level(self):
        # 6 - 0.004 * 15**2 = 5.1
        assert utility(QL, Bundle(15, 6.0)) == pytest.approx(5.1)

    def test_cara_expected_utility_of_coin(self):
        # 0.5 * (1 - e**-1) = 0.31606027941427883
        assert expected_utility(CARA, COIN) == pytest.approx(0.31606027941427883, abs=1e-12)

    def test_linear_metric(self):
        assert utility(LinearMetric(-0.1, 1.0), Bundle(10, 3.0)) == pytest.approx(2.0)

    def test_crra_ignores_tasks(self):
        m = CrraMoney(eta=2.0)
        assert utility(m, Bundle(0, 2.0)) == utility(m, Bundle(40, 2.0))

    def test_crra_nonpositive_money_is_minus_inf(self):
        assert utility(CrraMoney(eta=2.0), Bundle(0, 0.0)) == -math.inf

    @pytest.mark.parametrize(
        "model",
        [QL, CARA, LinearMetric(-0.1, 1.0), CaraMoneyPowerCost(0.5, 0.01, 2.0)],
    )
    def test_increasing_in_money(self, model):
        lo = [utility(model, Bundle(3, m)) for m in (0.0, 0.5, 1.0, 2.0)]
        assert lo == sorted(lo)


    @pytest.mark.parametrize(
        "model",
        [QL, CARA, LinearMetric(-0.1, 1.0), CrraMoney(2.0), CrraMoney(0.5), CaraMoneyPowerCost(800.0, 0.01, 2.0)],
    )
    def test_value_broadcasts_over_money(self, model):
        money = [-2.0, 0.0, 0.5, 3.0, 40.0]
        expected = [model.value(15, m) for m in money]
        np.testing.assert_allclose(model.value(15, np.array(money)), expected, rtol=1e-14)

    def test_stacked_models_evaluate_elementwise(self):
        members = [QuasiLinearPowerCost(0.004, 2.0), QuasiLinearPowerCost(0.002, 1.7)]
        stacked = QuasiLinearPowerCost(alpha=np.array([0.004, 0.002]), gamma=np.array([2.0, 1.7]))
        money = np.array([1.0, 2.0])
        expected = [members[0].value(30, 1.0), members[1].value(30, 2.0)]
        # numpy's pow on the stack may miss the scalar pow by an ulp
        np.testing.assert_allclose(stacked.value(30, money), expected, rtol=1e-15)

    @pytest.mark.parametrize(
        "model_type,params,message",
        [
            (QuasiLinearPowerCost, {"alpha": [0.004, 0.0], "gamma": 2.0}, "alpha must be positive"),
            (QuasiLinearPowerCost, {"alpha": 0.004, "gamma": [2.0, 0.9]}, "gamma must be at least 1"),
            (CaraMoneyPowerCost, {"rho": [0.01, 0.0], "alpha": 0.004, "gamma": 2.0}, "rho must be nonzero"),
            (CaraMoneyPowerCost, {"rho": 0.01, "alpha": [0.0, -1e-3], "gamma": 2.0}, "alpha must be nonnegative"),
            (CaraMoneyPowerCost, {"rho": 0.01, "alpha": 0.004, "gamma": [1.0, 0.5]}, "gamma must be at least 1"),
            (LinearMetric, {"lambda_tasks": -0.1, "lambda_money": [1.0, -1.0]}, "lambda_money must be positive"),
            (CrraMoney, {"eta": [2.0, 1.0]}, "eta must be positive and different from 1"),
            (CrraMoney, {"eta": [0.5, -0.5]}, "eta must be positive and different from 1"),
        ],
    )
    def test_stack_constructor_checks_every_member(self, model_type, params, message):
        with pytest.raises(ValueError, match=message):
            model_type(**{name: np.asarray(value) for name, value in params.items()})
        valid = {name: np.atleast_1d(value)[:1] for name, value in params.items()}
        assert model_type(**valid).value(0, np.zeros(1)).shape == (1,)


# each model that inverts in money: its parameters, and the summed sizes of
# the terms value adds up (t tasks, m money), which bound its rounding error
# (a subnormal keeps too few digits for any relative bound)
INVERTIBLE = {
    QuasiLinearPowerCost: (
        st.tuples(st.floats(0.0005, 0.6), st.floats(1.0, 3.0)),
        lambda alpha, gamma, t, m: np.abs(m) + alpha * t**gamma,
    ),
    CaraMoneyPowerCost: (
        st.tuples(st.one_of(st.floats(0.001, 2.0), st.floats(-2.0, -0.001)), st.floats(0.0, 0.6), st.floats(1.0, 3.0)),
        lambda rho, alpha, gamma, t, m: (1.0 + np.exp(-rho * m)) / np.abs(rho) + alpha * t**gamma,
    ),
    LinearMetric: (
        st.tuples(st.floats(-1.0, 1.0, allow_subnormal=False), st.floats(0.01, 10.0)),
        lambda lambda_tasks, lambda_money, t, m: np.abs(lambda_tasks * t) + lambda_money * np.abs(m),
    ),
}


class TestMoneyFor:
    @settings(max_examples=60, deadline=None)
    @given(model_type=st.sampled_from(list(INVERTIBLE)), stacked=st.booleans(), data=st.data())
    def test_value_inverts_money_for(self, model_type, stacked, data):
        params, term_sizes = INVERTIBLE[model_type]
        member = st.tuples(params, st.sampled_from([0.0, 15.0, 30.0, 45.0, 60.0]), st.floats(-200.0, 200.0, allow_subnormal=False))
        members, tasks, utility = zip(*data.draw(st.lists(member, min_size=1, max_size=8)))
        columns, tasks, utility = [np.array(c) for c in zip(*members)], np.array(tasks), np.array(utility)
        if stacked:
            model = model_type(*columns)
            money = model.money_for(tasks, utility)
            back = model.value(tasks, money)
        else:
            models = [model_type(*p) for p in members]
            money = np.array([m.money_for(t, u) for m, t, u in zip(models, tasks, utility)])
            back = np.array([m.value(t, x) for m, t, x in zip(models, tasks, money)])
        # CARA's money is infinite past its utility's bound 1 / rho, on that bound's side
        finite = np.isfinite(money)
        if model_type is CaraMoneyPowerCost:
            rho = columns[0]
            assert (money[~finite] == np.where(rho > 0, np.inf, -np.inf)[~finite]).all()
        else:
            assert finite.all()
        with np.errstate(over="ignore"):  # exp(-rho m) where money is infinite
            scale = term_sizes(*columns, tasks, money)
        assert (np.abs(back - utility) <= 1e-12 * scale)[finite].all()


class TestHashing:
    """Scalar models, and Agents holding them, are values; a stack is neither hashable nor comparable."""

    def test_scalar_models_and_agents_hash_and_compare_by_value(self):
        twin = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)
        assert twin is not QL and twin == QL and hash(twin) == hash(QL)
        assert QL != QuasiLinearPowerCost(alpha=0.004, gamma=2.1)
        assert Agent(twin, Broad()) == Agent(QL, Broad()) and hash(Agent(twin, Broad())) == hash(Agent(QL, Broad()))
        assert Agent(QL, Broad()) != Agent(QL, Narrow())
        assert len({CARA, CaraMoneyPowerCost(rho=1.0, alpha=0.0, gamma=1.0), QL, twin}) == 2

    def test_hashing_a_stack_raises(self):
        stack = QuasiLinearPowerCost(alpha=np.array([0.004, 0.002]), gamma=np.array([2.0, 1.7]))
        for value in (stack, Agent(stack, Broad())):
            with pytest.raises(TypeError):
                hash(value)


class TestMoneyMetric:
    def test_quasilinear_matches_closed_form(self):
        # M = m - alpha * e**gamma = 0 - 0.004 * 225 = -0.9
        assert money_metric(QL, Bundle(15, 0.0)) == pytest.approx(-0.9, abs=TOL)

    @pytest.mark.parametrize("tasks", [0, 5, 15, 30, 45])
    @pytest.mark.parametrize("money", [-2.0, 0.0, 2.0, 6.0])
    def test_quasilinear_grid(self, tasks, money):
        expected = money - 0.004 * tasks**2
        assert money_metric(QL, Bundle(tasks, money)) == pytest.approx(expected, abs=TOL)

    def test_linear_metric_value(self):
        assert money_metric(LinearMetric(-0.1, 1.0), Bundle(10, 3.0)) == pytest.approx(2.0, abs=TOL)

    def test_zero_bundle_maps_to_zero(self):
        for model in (QL, CARA, LinearMetric(-0.1, 1.0)):
            assert money_metric(model, ZERO_BUNDLE) == pytest.approx(0.0, abs=TOL)

    def test_cara_with_cost_matches_closed_form(self):
        # M = m + log(1 - rho*alpha*e**gamma) / rho, valid while the log
        # argument stays positive
        model = CaraMoneyPowerCost(rho=0.5, alpha=0.01, gamma=2.0)
        b = Bundle(4, 1.0)
        expected = 1.0 + math.log(1.0 - 0.5 * 0.01 * 16.0) / 0.5
        assert money_metric(model, b) == pytest.approx(expected, abs=TOL)

    def test_crra_zero_target_not_finite(self):
        with pytest.raises(NonMonotoneModel):
            money_metric(CrraMoney(eta=2.0), Bundle(0, 5.0))


class TestCertaintyEquivalent:
    def test_cara_coin_matches_closed_form(self):
        # -ln(0.5 + 0.5 * e**-1) = 0.3798854930417225
        ce = certainty_equivalent(CARA, COIN, wealth=0.0)
        assert ce == pytest.approx(0.3798854930417225, abs=TOL)

    def test_cara_is_wealth_invariant(self):
        a = certainty_equivalent(CARA, COIN, wealth=0.0)
        b = certainty_equivalent(CARA, COIN, wealth=7.0)
        assert a == pytest.approx(b, abs=TOL)

    def test_cara_mixture_with_zero(self):
        # -ln(0.5 + 0.5 * E e**-X) for the half-coin mixture
        ce = certainty_equivalent(CARA, COIN.mixed_with_zero(0.5), wealth=0.0)
        assert ce == pytest.approx(0.17201106075713024, abs=TOL)

    def test_crra_depends_on_wealth(self):
        model = CrraMoney(eta=2.0)
        coin = Lottery.over_money([(1.0, 0.5), (2.0, 0.5)])
        at_1 = certainty_equivalent(model, coin, wealth=1.0)
        at_10 = certainty_equivalent(model, coin, wealth=10.0)
        # harmonic-mean closed forms: 1.4 and 34/23
        assert at_1 == pytest.approx(1.4, abs=TOL)
        assert at_10 == pytest.approx(34.0 / 23.0, abs=TOL)
        assert at_10 - at_1 == pytest.approx(0.07826086956521738, abs=1e-7)

    def test_degenerate_lottery_is_its_payoff(self):
        lot = Lottery.degenerate(Bundle(0, 3.25))
        assert certainty_equivalent(QL, lot, wealth=0.0) == pytest.approx(3.25, abs=TOL)

    def test_risk_aversion_orders_ce_below_mean(self):
        ce = certainty_equivalent(CARA, COIN, wealth=0.0)
        assert ce < 0.5
