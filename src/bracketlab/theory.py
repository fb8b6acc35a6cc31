"""Numerical probes of the identification propositions.

Additivity of the money metric is what makes separate and aggregate
presentations indistinguishable, so the probes come in matched pairs:
measure the additivity residual on a bundle grid, and exhibit (or fail
to exhibit) a menu pair on which a maximizer chooses differently under
the two presentations. Shift invariance, probability-mixture
linearity, and WARP scans cover the remaining propositions. The verify
suites run these probes over the model zoo and judge each result
against the outcome the zoo entry expects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .preferences import (
    Bundle,
    CaraMoneyPowerCost,
    CrraMoney,
    LinearMetric,
    Lottery,
    QuasiLinearPowerCost,
    UtilityModel,
    ZERO_BUNDLE,
    certainty_equivalent,
    money_metric,
    utility,
)

__all__ = [
    "PROPOSITION_TOL",
    "DEMO_TOL",
    "TIE_TOL",
    "MenuPair",
    "ChoiceTrace",
    "Violation",
    "ViolationReport",
    "TieDetected",
    "ChosenNotInMenu",
    "additivity_residual",
    "trace_pair",
    "unidentifiability_probe",
    "epsilon_menu_pair",
    "cara_shift_invariance",
    "mixture_linearity",
    "warp_scan",
    "maximizer_choices",
    "ZooEntry",
    "model_zoo",
    "VerifyRow",
    "SUITES",
    "verify_rows",
]

PROPOSITION_TOL = 1e-6
"""Equalities asserted by the propositions are judged at this gap."""

DEMO_TOL = 1e-3
"""A violation must clear this gap to count as a meaningful failure."""

TIE_TOL = 1e-9
"""Score differences below this are ties; probes require generic inputs."""

MAX_MENU = 16


class TieDetected(Exception):
    """A menu has no unique maximizer at the working tolerance."""


class ChosenNotInMenu(Exception):
    """A recorded choice does not belong to its own menu."""


@dataclass(frozen=True)
class MenuPair:
    """Two finite menus to be offered separately or as one sum menu."""

    menu_x: tuple[Bundle, ...]
    menu_y: tuple[Bundle, ...]

    def __post_init__(self) -> None:
        for menu in (self.menu_x, self.menu_y):
            if not 1 <= len(menu) <= MAX_MENU:
                raise ValueError(f"menus must have 1..{MAX_MENU} options")

    def aggregate(self) -> tuple[Bundle, ...]:
        """All pairwise sums, deduplicated, in first-seen order."""
        seen: dict[Bundle, None] = {}
        for x in self.menu_x:
            for y in self.menu_y:
                seen.setdefault(x + y, None)
        return tuple(seen)


@dataclass(frozen=True)
class ChoiceTrace:
    """What was chosen separately versus inside the aggregate menu."""

    f_sep: Bundle
    s_sep: Bundle
    f_agg: Bundle
    s_agg: Bundle
    o_agg: Bundle

    def __post_init__(self) -> None:
        if self.f_agg + self.s_agg != self.o_agg:
            raise ValueError("aggregate decomposition must sum to the total")


@dataclass(frozen=True)
class Violation:
    name: str
    context: str
    left: Bundle
    right: Bundle
    gap: float


@dataclass(frozen=True)
class ViolationReport:
    entries: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


Scorer = Callable[[UtilityModel, Bundle], float]


def additivity_residual(model: UtilityModel, grid: Sequence[Bundle]) -> float:
    """Worst |M(a+b) - M(a) - M(b)| over unordered grid pairs."""
    cache: dict[Bundle, float] = {}

    def metric(b: Bundle) -> float:
        if b not in cache:
            cache[b] = money_metric(model, b)
        return cache[b]

    worst = 0.0
    bundles = list(grid)
    for i, a in enumerate(bundles):
        for b in bundles[i:]:
            gap = abs(metric(a + b) - metric(a) - metric(b))
            worst = max(worst, gap)
    return worst


def _argmax(model: UtilityModel, menu: Sequence[Bundle], score: Scorer) -> Bundle:
    scored = [(score(model, b), b) for b in menu]
    best = max(s for s, _ in scored)
    top = [b for s, b in scored if s >= best - TIE_TOL]
    if len(top) > 1:
        raise TieDetected(f"menu has {len(top)} maximizers within {TIE_TOL:g}")
    return top[0]


def trace_pair(model: UtilityModel, pair: MenuPair) -> ChoiceTrace:
    """Choices under separate and aggregate presentation of one pair.

    The aggregate choice is decomposed back into menu components; when
    several decompositions produce the same total, the separate choices
    are preferred, then the lexicographically first pair, so traces are
    deterministic without rejecting benign ambiguity.
    """
    f_sep = _argmax(model, pair.menu_x, money_metric)
    s_sep = _argmax(model, pair.menu_y, money_metric)
    o_agg = _argmax(model, pair.aggregate(), money_metric)
    candidates = [
        (x, y) for x in pair.menu_x for y in pair.menu_y if x + y == o_agg
    ]
    if (f_sep, s_sep) in candidates:
        f_agg, s_agg = f_sep, s_sep
    else:
        f_agg, s_agg = min(
            candidates, key=lambda xy: (xy[0].tasks, xy[0].money, xy[1].tasks, xy[1].money)
        )
    return ChoiceTrace(f_sep, s_sep, f_agg, s_agg, o_agg)


def _bundles_differ(a: Bundle, b: Bundle) -> float:
    """Return a positive gap when the bundles differ beyond PROPOSITION_TOL, else 0."""
    gap = max(abs(a.tasks - b.tasks), abs(a.money - b.money))
    return gap if gap > PROPOSITION_TOL else 0.0


def unidentifiability_probe(model: UtilityModel, menu_pairs: Sequence[MenuPair]) -> ViolationReport:
    """Check the separate-equals-aggregate equalities on each menu pair.

    For an additive money metric every equality holds and the report is
    empty; any listed entry is a behavioral difference between the two
    presentations.
    """
    entries = []
    for i, pair in enumerate(menu_pairs):
        trace = trace_pair(model, pair)
        o_sep = trace.f_sep + trace.s_sep
        checks = (
            ("first", trace.f_agg, trace.f_sep),
            ("second", trace.s_agg, trace.s_sep),
            ("total", o_sep, trace.o_agg),
        )
        for name, left, right in checks:
            gap = _bundles_differ(left, right)
            if gap:
                entries.append(Violation(name, f"pair {i}", left, right, gap))
    return ViolationReport(tuple(entries))


def epsilon_menu_pair(
    model: UtilityModel, a: Bundle, b: Bundle, epsilon: float
) -> MenuPair:
    """Menus that must separate the presentations on a non-additive pair.

    Each menu offers the zero bundle against one component priced just
    off its money-metric value. On a subadditive pair the components
    are sweetened by epsilon (any 0 < epsilon < |gap| works); on a
    superadditive pair they are soured (needs epsilon < gap/2).
    """
    m_a = money_metric(model, a)
    m_b = money_metric(model, b)
    gap = money_metric(model, a + b) - m_a - m_b
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if abs(gap) <= PROPOSITION_TOL:
        raise ValueError("pair is additive at the working tolerance; no violation exists")
    if gap < 0:
        if epsilon >= -gap:
            raise ValueError(f"need epsilon < {-gap:g} on a subadditive pair")
        sign = 1.0
    else:
        if epsilon >= gap / 2.0:
            raise ValueError(f"need epsilon < {gap / 2.0:g} on a superadditive pair")
        sign = -1.0
    priced_a = Bundle(a.tasks, a.money - m_a + sign * epsilon)
    priced_b = Bundle(b.tasks, b.money - m_b + sign * epsilon)
    return MenuPair((ZERO_BUNDLE, priced_a), (ZERO_BUNDLE, priced_b))


def cara_shift_invariance(
    model: UtilityModel, lottery: Lottery, wealth_grid: Sequence[float]
) -> float:
    """Worst certainty-equivalent change across background wealth levels."""
    if any(b.tasks != 0 for b, _ in lottery.outcomes):
        raise ValueError("shift invariance is about money-only lotteries")
    ces = [certainty_equivalent(model, lottery, w) for w in wealth_grid]
    return max(ces) - min(ces) if ces else 0.0


def mixture_linearity(model: UtilityModel, lottery: Lottery, p_grid: Sequence[float]) -> float:
    """Worst |M(p mixed with zero) - p * M| over the probability grid."""
    base = certainty_equivalent(model, lottery, 0.0)
    worst = 0.0
    for p in p_grid:
        mixed = certainty_equivalent(model, lottery.mixed_with_zero(p), 0.0)
        worst = max(worst, abs(mixed - p * base))
    return worst


def warp_scan(choices: Sequence[tuple[Sequence[Bundle], Bundle]]) -> ViolationReport:
    """Flag menu pairs revealing contradictory strict preferences.

    A violation is two menus that both contain the two distinct chosen
    bundles: each choice reveals its bundle strictly better than the
    other one. Bundles are equal when their max-abs gap over (tasks,
    money) is within PROPOSITION_TOL. The scan builds two matrices over
    the n choices: contains[i, j], chosen bundle i equals some bundle of
    menu j, and differ[i, j], chosen bundles i and j are not equal. A
    false contains[i, i] raises ChosenNotInMenu for the first such i;
    otherwise the violations are the pairs i < j of
    differ & contains & contains.T, listed in row-major order.
    """
    n = len(choices)
    chosen = np.array([(c.tasks, c.money) for _, c in choices], float).reshape(n, 2)
    sizes = np.array([len(menu) for menu, _ in choices], np.intp)
    offered = np.array([(b.tasks, b.money) for menu, _ in choices for b in menu], float).reshape(-1, 2)

    def gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # fmax ignores a NaN money gap as max(tasks gap, money gap) does; a
        # two-array maximum is also several times faster than .max(axis=-1)
        return np.fmax(np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1]))

    near = ~(gaps(chosen, offered) > PROPOSITION_TOL)  # "not differ", as _bundles_differ reads a NaN gap
    contains = np.zeros((n, n), bool)
    filled = sizes > 0
    if filled.any():
        # a menu's bundles are a run of offered's columns; empty menus contain nothing
        starts = np.cumsum(sizes) - sizes
        contains[:, filled] = np.logical_or.reduceat(near, starts[filled], axis=1)
    missing = np.flatnonzero(~contains.diagonal())
    if missing.size:
        raise ChosenNotInMenu(f"{choices[missing[0]][1]} missing from its menu")
    differ = gaps(chosen, chosen) > PROPOSITION_TOL
    pairs = np.nonzero(np.triu(differ & contains & contains.T, 1))
    return ViolationReport(tuple(
        Violation("warp", f"menus {i},{j}", choices[i][1], choices[j][1], math.inf)
        for i, j in zip(*(p.tolist() for p in pairs))
    ))


def maximizer_choices(
    model: UtilityModel, menus: Sequence[Sequence[Bundle]]
) -> list[tuple[Sequence[Bundle], Bundle]]:
    """Choice data generated by maximizing utility over each menu."""
    return [(menu, _argmax(model, menu, utility)) for menu in menus]


@dataclass(frozen=True)
class ZooEntry:
    """One model in the verification zoo with its expected outcomes.

    None means the probe is skipped (for example the money metric at
    zero wealth is undefined for the power-money counterexample). A
    False expectation marks a deliberate expect-fail entry: the suite
    passes when the violation shows up.
    """

    name: str
    model: UtilityModel
    expect_additive: bool | None
    expect_cara: bool | None
    expect_mixture: bool | None
    grid: tuple[Bundle, ...] = ()
    witness: tuple[Bundle, Bundle] | None = None
    positive_money_only: bool = False


_STD_GRID = tuple(
    Bundle(t, m) for t in (0, 5, 10, 15) for m in (0.0, 1.5)
)
_SMALL_GRID = tuple(
    Bundle(t, m) for t in (0, 2, 4, 6) for m in (0.0, 0.75)
)


def model_zoo() -> tuple[ZooEntry, ...]:
    """The shipped models the verification suites run over."""
    return (
        ZooEntry(
            "linear-metric",
            LinearMetric(-0.1, 1.0),
            expect_additive=True,
            expect_cara=True,
            expect_mixture=True,
            grid=_STD_GRID,
        ),
        ZooEntry(
            "power-cost-linear",
            QuasiLinearPowerCost(0.004, 1.0),
            expect_additive=True,
            expect_cara=True,
            expect_mixture=True,
            grid=_STD_GRID,
        ),
        ZooEntry(
            "power-cost-convex",
            QuasiLinearPowerCost(0.004, 2.0),
            expect_additive=False,
            expect_cara=True,
            expect_mixture=True,
            grid=_STD_GRID,
            witness=(Bundle(15, 0.0), Bundle(15, 0.0)),
        ),
        ZooEntry(
            "cara-money",
            CaraMoneyPowerCost(1.0, 0.0, 1.0),
            expect_additive=True,
            expect_cara=True,
            expect_mixture=False,
            grid=_STD_GRID,
        ),
        ZooEntry(
            "cara-convex-cost",
            CaraMoneyPowerCost(0.5, 0.01, 2.0),
            expect_additive=False,
            expect_cara=True,
            expect_mixture=False,
            grid=_SMALL_GRID,
            witness=(Bundle(4, 0.0), Bundle(4, 0.0)),
        ),
        ZooEntry(
            "power-money",
            CrraMoney(2.0),
            expect_additive=None,
            expect_cara=False,
            expect_mixture=None,
            positive_money_only=True,
        ),
    )


# ------------------------------------------------------------ verify suites


@dataclass(frozen=True)
class VerifyRow:
    """One model under one suite with its observed and expected outcome."""

    suite: str
    model: str
    metric: str
    value: str
    expected: str
    status: str  # "pass", "expected violation", or "FAIL"

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"


_PASS_TOL = 1e-9
_COIN = Lottery(((Bundle(0, 0.0), 0.5), (Bundle(0, 1.0), 0.5)))
_POSITIVE_COIN = Lottery(((Bundle(0, 1.0), 0.5), (Bundle(0, 2.0), 0.5)))
_WEALTH_GRID = (0.0, 1.0, 2.5)
_POSITIVE_WEALTH_GRID = (1.0, 10.0)
_P_GRID = tuple(k / 10.0 for k in range(1, 10))
_WARP_MENUS = 100  # random menus in the warp suite's battery
_WARP_SEED = 7


def _status(observed_clean: bool, expect_clean: bool) -> str:
    if observed_clean == expect_clean:
        return "pass" if expect_clean else "expected violation"
    return "FAIL"


def _gap_check(gap: float, expect_clean: bool) -> tuple[str, str]:
    """(expected, status) for a gap that must vanish, or clear DEMO_TOL on an expect-fail entry."""
    if expect_clean:
        return "< 1e-09", _status(gap < _PASS_TOL, True)
    return "> 0.001", _status(gap <= DEMO_TOL, False)


def _generic_battery() -> list[MenuPair]:
    zero = Bundle(0, 0.0)
    return [
        MenuPair((zero, Bundle(5, 1.0), Bundle(10, 2.0)), (zero, Bundle(3, 0.5), Bundle(8, 2.5))),
        MenuPair((zero, Bundle(7, 1.25)), (zero, Bundle(2, 0.75))),
    ]


def _random_menu_battery():
    rng = np.random.default_rng(_WARP_SEED)
    menus = []
    for _ in range(_WARP_MENUS):
        size = int(rng.integers(2, 6))
        menus.append(
            tuple(
                Bundle(int(rng.integers(0, 21)), float(rng.uniform(0.5, 8.0)))
                for _ in range(size)
            )
        )
    return menus


def _witness_gap(entry: ZooEntry) -> float:
    """|M(a+b) - M(a) - M(b)| at an expect-fail zoo entry's witness pair (a, b)."""
    model, (a, b) = entry.model, entry.witness
    return abs(money_metric(model, a + b) - money_metric(model, a) - money_metric(model, b))


# Each runner yields (model, metric, value, expected, status) per zoo entry it covers.


def _additivity_rows():
    for entry in model_zoo():
        if entry.expect_additive is None:
            continue
        if entry.expect_additive:
            residual = additivity_residual(entry.model, entry.grid)
            yield entry.name, "grid residual", f"{residual:.3e}", *_gap_check(residual, True)
        else:
            witness = _witness_gap(entry)
            yield entry.name, "witness residual", f"{witness:.4f}", *_gap_check(witness, False)


def _unidentifiability_rows():
    for entry in model_zoo():
        if entry.expect_additive is None:
            continue
        if entry.expect_additive:
            pairs = _generic_battery()
        else:
            pairs = [epsilon_menu_pair(entry.model, *entry.witness, _witness_gap(entry) / 4.0)]
        found = len(unidentifiability_probe(entry.model, pairs))
        expected = "0" if entry.expect_additive else "> 0"
        yield entry.name, "menu violations", str(found), expected, _status(found == 0, entry.expect_additive)


def _cara_rows():
    for entry in model_zoo():
        if entry.expect_cara is None:
            continue
        if entry.positive_money_only:
            gap = cara_shift_invariance(entry.model, _POSITIVE_COIN, _POSITIVE_WEALTH_GRID)
        else:
            gap = cara_shift_invariance(entry.model, _COIN, _WEALTH_GRID)
        yield entry.name, "max CE shift", f"{gap:.3e}", *_gap_check(gap, entry.expect_cara)


def _mixture_rows():
    for entry in model_zoo():
        if entry.expect_mixture is None:
            continue
        gap = mixture_linearity(entry.model, _COIN, _P_GRID)
        value = f"{gap:.4f}" if gap >= DEMO_TOL else f"{gap:.3e}"
        yield entry.name, "max linearity gap", value, *_gap_check(gap, entry.expect_mixture)


def _warp_rows():
    menus = _random_menu_battery()
    for entry in model_zoo():
        found = len(warp_scan(maximizer_choices(entry.model, menus)))
        yield entry.name, f"violations in {_WARP_MENUS} menus", str(found), "0", _status(found == 0, True)


_SUITE_RUNNERS = {
    "additivity": _additivity_rows,
    "unidentifiability": _unidentifiability_rows,
    "cara": _cara_rows,
    "mixture": _mixture_rows,
    "warp": _warp_rows,
}

SUITES = (*_SUITE_RUNNERS, "all")
"""Suite names verify_rows accepts, in the order "all" runs them."""


def verify_rows(suite: str = "all") -> list[VerifyRow]:
    """All VerifyRow results for one suite name (or every suite)."""
    names = _SUITE_RUNNERS if suite == "all" else (suite,)
    return [VerifyRow(name, *row) for name in names for row in _SUITE_RUNNERS[name]()]
