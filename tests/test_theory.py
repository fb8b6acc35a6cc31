"""Identification probes: additivity, menu separation, invariances, WARP."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bracketlab.preferences import (
    Bundle,
    CaraMoneyPowerCost,
    CrraMoney,
    LinearMetric,
    Lottery,
    NonMonotoneModel,
    QuasiLinearPowerCost,
    UtilityModel,
    ZERO_BUNDLE,
    money_metric,
)
from bracketlab.theory import (
    PROPOSITION_TOL,
    ChoiceTrace,
    ChosenNotInMenu,
    MenuPair,
    TieDetected,
    ViolationReport,
    additivity_residual,
    cara_shift_invariance,
    epsilon_menu_pair,
    maximizer_choices,
    mixture_linearity,
    model_zoo,
    trace_pair,
    Violation,
    _bundles_differ,
    unidentifiability_probe,
    warp_scan,
)

COIN = Lottery(((Bundle(0, 0.0), 0.5), (Bundle(0, 1.0), 0.5)))
POSITIVE_COIN = Lottery(((Bundle(0, 1.0), 0.5), (Bundle(0, 2.0), 0.5)))


def assert_bundle(bundle, tasks, money, tol=1e-9):
    # priced options come out of bisection, so compare componentwise
    assert bundle.tasks == tasks
    assert bundle.money == pytest.approx(money, abs=tol)


def generic_pair():
    menu_x = (ZERO_BUNDLE, Bundle(5, 1.0), Bundle(10, 2.0))
    menu_y = (ZERO_BUNDLE, Bundle(3, 0.5), Bundle(8, 2.5))
    return MenuPair(menu_x, menu_y)


class SqrtCostModel(UtilityModel):
    """Concave effort cost, so the money metric is superadditive."""

    def value(self, tasks, money):
        return money - math.sqrt(tasks)


# ---------------------------------------------------------------- additivity


def test_linear_metric_is_additive():
    grid = [Bundle(t, m) for t in (0, 5, 15) for m in (0.0, 2.0)]
    assert additivity_residual(LinearMetric(-0.1, 1.0), grid) < 1e-9


def test_linear_cost_is_additive():
    grid = [Bundle(t, m) for t in (0, 5, 15) for m in (0.0, 2.0)]
    assert additivity_residual(QuasiLinearPowerCost(0.004, 1.0), grid) < 1e-9


def test_convex_cost_residual_on_documented_pair():
    # closed form: alpha * 2 * 15 * 15 = 1.8
    res = additivity_residual(QuasiLinearPowerCost(0.004, 2.0), [Bundle(15, 0.0)])
    assert res == pytest.approx(1.8, abs=1e-6)


def test_cara_with_cost_residual_on_documented_pair():
    # closed form: |ln(1 - 0.32)/0.5 - 2 ln(1 - 0.08)/0.5|
    res = additivity_residual(CaraMoneyPowerCost(0.5, 0.01, 2.0), [Bundle(4, 0.0)])
    assert res == pytest.approx(0.4377985258677655, abs=1e-7)


def test_pure_cara_money_is_additive():
    grid = [Bundle(0, m) for m in (0.0, 0.5, 2.0, 5.0)]
    assert additivity_residual(CaraMoneyPowerCost(1.0, 0.0, 1.0), grid) < 1e-9


def test_metric_undefined_at_zero_propagates():
    with pytest.raises(NonMonotoneModel):
        additivity_residual(CrraMoney(2.0), [Bundle(0, 1.0)])


# ------------------------------------------------------------- probe / menus


def test_menu_pair_validation():
    with pytest.raises(ValueError):
        MenuPair((), (ZERO_BUNDLE,))
    with pytest.raises(ValueError):
        MenuPair(tuple(Bundle(t, 0.0) for t in range(17)), (ZERO_BUNDLE,))


def test_aggregate_menu_deduplicates():
    pair = MenuPair((ZERO_BUNDLE, Bundle(15, 1.4)), (ZERO_BUNDLE, Bundle(15, 1.4)))
    agg = pair.aggregate()
    assert len(agg) == 3
    assert Bundle(30, 2.8) in agg


def test_choice_trace_invariant():
    with pytest.raises(ValueError):
        ChoiceTrace(ZERO_BUNDLE, ZERO_BUNDLE, Bundle(5, 1.0), ZERO_BUNDLE, ZERO_BUNDLE)


def test_additive_model_probe_is_empty():
    report = unidentifiability_probe(QuasiLinearPowerCost(0.004, 1.0), [generic_pair()])
    assert not report
    assert len(report) == 0


def test_trace_on_additive_model():
    trace = trace_pair(QuasiLinearPowerCost(0.004, 1.0), generic_pair())
    assert trace.f_sep == Bundle(10, 2.0)
    assert trace.s_sep == Bundle(8, 2.5)
    assert trace.o_agg == Bundle(18, 4.5)
    assert trace.f_agg == trace.f_sep and trace.s_agg == trace.s_sep


def test_tie_detected_on_duplicate_options():
    pair = MenuPair((Bundle(5, 1.0), Bundle(5, 1.0)), (ZERO_BUNDLE,))
    with pytest.raises(TieDetected):
        trace_pair(QuasiLinearPowerCost(0.004, 1.0), pair)


def test_epsilon_menu_separates_subadditive_pair():
    model = QuasiLinearPowerCost(0.004, 2.0)
    a = Bundle(15, 0.0)
    pair = epsilon_menu_pair(model, a, a, 0.5)
    assert pair.menu_x[0] == ZERO_BUNDLE
    assert_bundle(pair.menu_x[1], 15, 1.4)
    report = unidentifiability_probe(model, [pair])
    names = {v.name for v in report.entries}
    assert "total" in names
    # separately each menu picks the sweetened option; their sum is not
    # the aggregate choice
    trace = trace_pair(model, pair)
    assert_bundle(trace.f_sep, 15, 1.4)
    assert_bundle(trace.o_agg, 15, 1.4)
    assert_bundle(trace.f_sep + trace.s_sep, 30, 2.8)


def test_epsilon_menu_decomposition_prefers_sorted_pair():
    model = QuasiLinearPowerCost(0.004, 2.0)
    pair = epsilon_menu_pair(model, Bundle(15, 0.0), Bundle(15, 0.0), 0.5)
    trace = trace_pair(model, pair)
    # aggregate winner (15, 1.4) decomposes ambiguously; the rule picks
    # the lexicographically first split
    assert trace.f_agg == ZERO_BUNDLE
    assert_bundle(trace.s_agg, 15, 1.4)


def test_epsilon_menu_separates_superadditive_pair():
    model = SqrtCostModel()
    a = Bundle(9, 0.0)
    gap = money_metric(model, a + a) - 2 * money_metric(model, a)
    assert gap > 0
    pair = epsilon_menu_pair(model, a, a, 0.5)
    trace = trace_pair(model, pair)
    assert trace.f_sep == ZERO_BUNDLE
    assert_bundle(trace.o_agg, 18, 5.0)
    report = unidentifiability_probe(model, [pair])
    assert {v.name for v in report.entries} == {"first", "second", "total"}


def test_epsilon_menu_bounds():
    model = QuasiLinearPowerCost(0.004, 2.0)
    a = Bundle(15, 0.0)
    with pytest.raises(ValueError):
        epsilon_menu_pair(model, a, a, 1.9)  # gap is -1.8
    with pytest.raises(ValueError):
        epsilon_menu_pair(model, a, a, 0.0)
    with pytest.raises(ValueError):
        epsilon_menu_pair(QuasiLinearPowerCost(0.004, 1.0), a, a, 0.5)
    sup = SqrtCostModel()
    b = Bundle(9, 0.0)
    with pytest.raises(ValueError):
        epsilon_menu_pair(sup, b, b, 1.0)  # gap/2 is about 0.879


def test_probe_empty_iff_additive_across_zoo():
    for entry in model_zoo():
        if entry.expect_additive is None:
            continue
        residual = additivity_residual(entry.model, entry.grid)
        if entry.expect_additive:
            assert residual < 1e-9, entry.name
            assert not unidentifiability_probe(entry.model, [generic_pair()]), entry.name
        else:
            assert residual > 1e-3, entry.name
            a, b = entry.witness
            gap = abs(
                money_metric(entry.model, a + b)
                - money_metric(entry.model, a)
                - money_metric(entry.model, b)
            )
            pair = epsilon_menu_pair(entry.model, a, b, gap / 4.0)
            assert unidentifiability_probe(entry.model, [pair]), entry.name


# ------------------------------------------------------------- invariances


def test_cara_certainty_equivalent_is_wealth_invariant():
    # wealth grid keeps rho * wealth moderate; beyond that the utility
    # saturates to machine precision and the probe reads bisection noise
    for rho in (0.1, 0.5, 1.0, 2.0):
        model = CaraMoneyPowerCost(rho, 0.0, 1.0)
        assert cara_shift_invariance(model, COIN, (0.0, 1.0, 2.5, 5.0)) < 1e-9


def test_money_linear_models_are_shift_invariant():
    assert cara_shift_invariance(LinearMetric(-0.1, 1.0), COIN, (0.0, 4.0)) < 1e-9
    assert cara_shift_invariance(QuasiLinearPowerCost(0.004, 2.0), COIN, (0.0, 4.0)) < 1e-9


def test_crra_shift_gap_pinned_value():
    # eta = 2 on a 50/50 {1, 2} lottery: CE moves from 1.4 at wealth 1
    # to 34/23 at wealth 10
    gap = cara_shift_invariance(CrraMoney(2.0), POSITIVE_COIN, (1.0, 10.0))
    assert gap == pytest.approx(0.07826086956521738, abs=1e-7)


def test_crra_is_not_shift_invariant():
    for eta in (0.5, 2.0, 3.0):
        gap = cara_shift_invariance(CrraMoney(eta), POSITIVE_COIN, (1.0, 10.0))
        assert gap > 1e-4, eta


def test_shift_invariance_rejects_task_lotteries():
    lottery = Lottery(((Bundle(5, 0.0), 0.5), (Bundle(0, 1.0), 0.5)))
    with pytest.raises(ValueError):
        cara_shift_invariance(LinearMetric(-0.1, 1.0), lottery, (0.0, 1.0))


def test_degenerate_lottery_is_invariant_for_any_model():
    sure = Lottery(((Bundle(0, 2.0), 1.0),))
    for model in (CaraMoneyPowerCost(1.0, 0.0, 1.0), CrraMoney(2.0), LinearMetric(-0.1, 1.0)):
        assert cara_shift_invariance(model, sure, (1.0, 3.0, 9.0)) < 1e-9


def test_mixture_linearity_of_risk_neutral_models():
    grid = [k / 10 for k in range(1, 10)]
    assert mixture_linearity(LinearMetric(-0.1, 1.0), COIN, grid) < 1e-9
    assert mixture_linearity(QuasiLinearPowerCost(0.004, 2.0), COIN, grid) < 1e-9


def test_cara_mixture_gap_pinned_value():
    # rho = 1 on the 50/50 {0, 1} coin, worst over the decile grid sits
    # at p = 0.5
    grid = [k / 10 for k in range(1, 10)]
    gap = mixture_linearity(CaraMoneyPowerCost(1.0, 0.0, 1.0), COIN, grid)
    assert gap == pytest.approx(0.017931685763730998, abs=1e-7)
    at_half = mixture_linearity(CaraMoneyPowerCost(1.0, 0.0, 1.0), COIN, [0.5])
    assert gap == pytest.approx(at_half, abs=1e-12)


def test_cara_mixture_gap_clears_demo_tolerance():
    gap = mixture_linearity(CaraMoneyPowerCost(0.5, 0.01, 2.0), COIN, [0.5])
    assert gap > 1e-3


# --------------------------------------------------------------------- warp


def test_warp_textbook_violation():
    a, b, c = Bundle(0, 1.0), Bundle(5, 2.0), Bundle(10, 3.0)
    choices = [((a, b), a), ((a, b, c), b)]
    report = warp_scan(choices)
    assert len(report) == 1
    assert report.entries[0].name == "warp"
    assert math.isinf(report.entries[0].gap)


def test_warp_requires_chosen_in_menu():
    a, b = Bundle(0, 1.0), Bundle(5, 2.0)
    with pytest.raises(ChosenNotInMenu):
        warp_scan([((a,), b)])


def test_warp_consistent_choices_are_clean():
    a, b, c = Bundle(0, 1.0), Bundle(5, 2.0), Bundle(10, 3.0)
    choices = [((a, b), b), ((a, b, c), c), ((a, c), c)]
    assert not warp_scan(choices)


def warp_loop(choices):
    """The pairwise scan warp_scan once ran, kept as the oracle for its matrix form."""

    def contains(menu, bundle):
        return any(not _bundles_differ(b, bundle) for b in menu)

    for menu, chosen in choices:
        if not contains(menu, chosen):
            raise ChosenNotInMenu(f"{chosen} missing from its menu")
    entries = []
    for i in range(len(choices)):
        menu_i, x = choices[i]
        for j in range(i + 1, len(choices)):
            menu_j, y = choices[j]
            if _bundles_differ(x, y) and contains(menu_j, x) and contains(menu_i, y):
                entries.append(Violation("warp", f"menus {i},{j}", x, y, math.inf))
    return ViolationReport(tuple(entries))


def scan_result(scan, choices):
    try:
        return scan(choices)
    except ChosenNotInMenu as exc:
        return f"ChosenNotInMenu: {exc}"


# money values at, within and beyond PROPOSITION_TOL of each other, and a NaN
WARP_MONEY = [0.0, 1.0, 1.0 + PROPOSITION_TOL / 2, 1.0 + 2 * PROPOSITION_TOL, 2.5, -1.0, math.nan]


@st.composite
def shared_pool_choices(draw):
    """Menus drawn from a small shared pool of bundles, each with a random pick.

    The pick is usually from its own menu, and now and then a menu is
    empty or its pick comes from the pool, so both WARP violations and
    ChosenNotInMenu occur.
    """
    pool = draw(st.lists(st.builds(Bundle, st.integers(0, 3), st.sampled_from(WARP_MONEY)), min_size=1, max_size=5))
    rng = draw(st.randoms(use_true_random=True))
    choices = []
    for _ in range(draw(st.integers(0, 10))):
        menu = tuple(rng.choices(pool, k=rng.randint(1, 4))) if rng.random() > 0.02 else ()
        choices.append((menu, rng.choice(menu if menu and rng.random() > 0.02 else pool)))
    return choices


@settings(max_examples=400, deadline=None)
@given(choices=shared_pool_choices())
def test_warp_scan_matches_the_pairwise_loop(choices):
    assert scan_result(warp_scan, choices) == scan_result(warp_loop, choices)


def test_random_picks_from_a_shared_pool_violate_warp():
    rng = np.random.default_rng(11)
    pool = [Bundle(int(t), float(m)) for t, m in zip(rng.integers(0, 4, 6), rng.uniform(0.0, 3.0, 6))]
    found = 0
    for _ in range(50):
        menus = [tuple(pool[k] for k in rng.choice(6, size=rng.integers(1, 5), replace=False)) for _ in range(10)]
        choices = [(menu, menu[rng.integers(len(menu))]) for menu in menus]
        report = warp_scan(choices)
        assert report == warp_loop(choices)
        found += len(report)
    assert found > 0


def random_menus(rng, n_menus):
    menus = []
    for _ in range(n_menus):
        size = int(rng.integers(2, 6))
        menus.append(
            tuple(
                Bundle(int(rng.integers(0, 21)), float(rng.uniform(0.5, 8.0)))
                for _ in range(size)
            )
        )
    return menus


def test_maximizer_choices_satisfy_warp_across_zoo():
    menus = random_menus(np.random.default_rng(7), 100)
    for entry in model_zoo():
        choices = maximizer_choices(entry.model, menus)
        assert not warp_scan(choices), entry.name


def test_violation_report_is_boolable():
    report = ViolationReport(())
    assert not report and len(report) == 0


def test_suites_name_the_order_verify_rows_emits():
    from bracketlab.theory import SUITES, verify_rows

    emitted = tuple(dict.fromkeys(r.suite for r in verify_rows("all")))
    assert SUITES == (*emitted, "all")
