"""Preferences over work/money bundles and the money metric they induce.

A Bundle is a (task count, dollar amount) pair. A utility model ranks
bundles and finite lotteries over them; the money metric M(b) is the
payment that makes the decision maker indifferent between receiving b
and paying M(b), and staying at the zero bundle. ``money_metric`` and
``certainty_equivalent`` share the scalar bisection ``_bisect_increasing``;
simulated reservation wages use the array bisection ``agents._bisect_wages``.
Closed forms appear only in the test suite as oracles.

``value`` also evaluates elementwise over a money array, and over
parameter arrays when a population of one model type is stacked with
``_stack_columns``; the simulator runs its root finding on such arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Bundle",
    "ZERO_BUNDLE",
    "Lottery",
    "UtilityModel",
    "QuasiLinearPowerCost",
    "CaraMoneyPowerCost",
    "LinearMetric",
    "CrraMoney",
    "NonMonotoneModel",
    "utility",
    "expected_utility",
    "money_metric",
    "certainty_equivalent",
]

ROOT_TOL = 1e-12
"""Bisection stops when the bracket is narrower than this many dollars.

Tight enough that sums of three metric evaluations stay below the 1e-9
residual budget the identification probes are judged against.
"""

MAX_DOUBLINGS = 200
"""Bracket expansion attempts before the search is declared hopeless."""

_EXP_CAP = 709.0  # math.exp overflows just above this


class NonMonotoneModel(Exception):
    """No money bracket straddles the target utility level."""


@dataclass(frozen=True)
class Bundle:
    """An outcome: ``tasks`` decoding sequences and ``money`` dollars.

    Task counts are nonnegative; money may be negative (payments).
    Addition is componentwise.
    """

    tasks: int
    money: float

    def __post_init__(self) -> None:
        if self.tasks < 0:
            raise ValueError(f"tasks must be nonnegative, got {self.tasks}")

    def __add__(self, other: Bundle) -> Bundle:
        return Bundle(self.tasks + other.tasks, self.money + other.money)

    def less_money(self, amount: float) -> Bundle:
        """The same bundle after paying ``amount`` dollars."""
        return Bundle(self.tasks, self.money - amount)


ZERO_BUNDLE = Bundle(0, 0.0)


@dataclass(frozen=True)
class Lottery:
    """A finite lottery: tuple of (Bundle, probability) outcome pairs."""

    outcomes: tuple[tuple[Bundle, float], ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("a lottery needs at least one outcome")
        total = 0.0
        for _, p in self.outcomes:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"outcome probability {p} outside [0, 1]")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @staticmethod
    def degenerate(b: Bundle) -> Lottery:
        return Lottery(((b, 1.0),))

    @staticmethod
    def over_money(pairs: list[tuple[float, float]]) -> Lottery:
        """Money-only lottery from (dollars, probability) pairs."""
        return Lottery(tuple((Bundle(0, m), p) for m, p in pairs))

    def shifted(self, wealth: float) -> Lottery:
        """Add ``wealth`` dollars to every outcome."""
        return Lottery(tuple((Bundle(b.tasks, b.money + wealth), p) for b, p in self.outcomes))

    def mixed_with_zero(self, p: float) -> Lottery:
        """Keep this lottery with probability ``p``, else the zero bundle."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixture weight {p} outside [0, 1]")
        if p == 1.0:
            return self
        scaled = tuple((b, p * q) for b, q in self.outcomes)
        return Lottery(scaled + ((ZERO_BUNDLE, 1.0 - p),))

    @staticmethod
    def independent_sum(a: Lottery, b: Lottery) -> Lottery:
        """Product-measure lottery over componentwise sums of outcomes."""
        outcomes = tuple(
            (xa + xb, pa * pb) for xa, pa in a.outcomes for xb, pb in b.outcomes
        )
        return Lottery(outcomes)


def _safe_exp(x):
    """exp(x), and inf from _EXP_CAP up; a clipped np.exp on arrays."""
    if isinstance(x, np.ndarray):
        return np.where(x < _EXP_CAP, np.exp(np.minimum(x, _EXP_CAP)), np.inf)
    return math.exp(x) if x < _EXP_CAP else math.inf


def _power(base, exponent):
    """base ** exponent, elementwise when either is an array.

    Python's ** calls the C library's pow, which numpy's vectorised pow
    misses by one ulp on a few percent of inputs.
    """
    if isinstance(base, np.ndarray) or isinstance(exponent, np.ndarray):
        bases, exponents = (a.tolist() for a in np.broadcast_arrays(base, exponent))
        return np.array([b**e for b, e in zip(bases, exponents)], dtype=float)
    return base**exponent


class UtilityModel:
    """Base for the model variants; subclasses implement ``value``.

    ``value`` must broadcast over a money array (and over parameter
    arrays, see ``_stack_columns``).
    """

    def value(self, tasks: float, money: float) -> float:
        raise NotImplementedError

    def at_tasks(self, tasks: float) -> Callable:
        """u(tasks, .) as a function of money alone.

        Root finding over money evaluates it many times at one task
        count (or one count per member of a stack, as an array). The
        power-cost models override it to compute the task term once,
        with the C library's pow even on arrays, so a stacked population
        gets its members' values bit for bit; their ``value`` keeps
        numpy's pow on parameter arrays.
        """
        return lambda money: self.value(tasks, money)


@dataclass(frozen=True)
class QuasiLinearPowerCost(UtilityModel):
    """u(e, m) = m - alpha * e**gamma."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")

    def value(self, tasks: float, money: float) -> float:
        return money - self.alpha * tasks**self.gamma

    def at_tasks(self, tasks: float) -> Callable:
        cost = self.alpha * _power(tasks, self.gamma)
        return lambda money: money - cost


@dataclass(frozen=True)
class CaraMoneyPowerCost(UtilityModel):
    """u(e, m) = (1 - exp(-rho * m)) / rho - alpha * e**gamma."""

    rho: float
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if self.rho == 0:
            raise ValueError("rho must be nonzero")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")

    def value(self, tasks: float, money: float) -> float:
        return (1.0 - _safe_exp(-self.rho * money)) / self.rho - self.alpha * tasks**self.gamma

    def at_tasks(self, tasks: float) -> Callable:
        cost = self.alpha * _power(tasks, self.gamma)
        return lambda money: (1.0 - _safe_exp(-self.rho * money)) / self.rho - cost


@dataclass(frozen=True)
class LinearMetric(UtilityModel):
    """u(e, m) = lambda_tasks * e + lambda_money * m."""

    lambda_tasks: float
    lambda_money: float

    def __post_init__(self) -> None:
        if self.lambda_money <= 0:
            raise ValueError("lambda_money must be positive")

    def value(self, tasks: float, money: float) -> float:
        return self.lambda_tasks * tasks + self.lambda_money * money


@dataclass(frozen=True)
class CrraMoney(UtilityModel):
    """u(m) = m**(1 - eta) / (1 - eta); tasks are ignored.

    Counterexample model: certainty equivalents depend on wealth. Only
    defined for positive money; the utility is -inf at and below zero
    when eta > 1, which keeps bisection sign logic monotone.
    """

    eta: float

    def __post_init__(self) -> None:
        if self.eta <= 0 or self.eta == 1:
            raise ValueError("eta must be positive and different from 1")

    def value(self, tasks: float, money: float) -> float:
        if isinstance(money, np.ndarray):
            positive = np.where(money > 0, money, 1.0) ** (1.0 - self.eta) / (1.0 - self.eta)
            edge = np.where((money == 0) & (self.eta < 1), 0.0, -np.inf)
            return np.where(money > 0, positive, edge)
        if money <= 0:
            return 0.0 if (self.eta < 1 and money == 0) else -math.inf
        return money ** (1.0 - self.eta) / (1.0 - self.eta)


def _stack_columns(model_type: type, **columns: np.ndarray) -> UtilityModel:
    """A stack of model_type members whose parameters are the given columns.

    Its ``value`` evaluates member i at the i-th entry of every column,
    so a whole population shares one array computation. No member object
    is ever built: the caller vouches that each row passes model_type's
    validation, which is skipped.
    """
    stacked = object.__new__(model_type)
    for name, column in columns.items():
        object.__setattr__(stacked, name, column)
    return stacked


def utility(model: UtilityModel, b: Bundle) -> float:
    """Utility of a sure bundle."""
    return model.value(b.tasks, b.money)


def expected_utility(model: UtilityModel, lottery: Lottery) -> float:
    """Probability-weighted utility over a finite lottery."""
    return sum(p * model.value(b.tasks, b.money) for b, p in lottery.outcomes)


def _bisect_increasing(g, lo: float = -1.0, hi: float = 1.0) -> float:
    """Root of an increasing function, expanding the bracket geometrically.

    Raises NonMonotoneModel when no sign change appears within
    MAX_DOUBLINGS doublings (non-monotone or unattainable target).
    """
    for _ in range(MAX_DOUBLINGS):
        v = g(lo)
        if not math.isnan(v) and v <= 0.0:
            break
        lo *= 2.0
    else:
        raise NonMonotoneModel("no lower bracket: target never undershot")
    for _ in range(MAX_DOUBLINGS):
        v = g(hi)
        if not math.isnan(v) and v >= 0.0:
            break
        hi *= 2.0
    else:
        raise NonMonotoneModel("no upper bracket: target never overshot")
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def money_metric(model: UtilityModel, b: Bundle) -> float:
    """Payment M with (b minus M dollars) indifferent to the zero bundle.

    Solves utility(model, (b.tasks, b.money - M)) = utility(model, (0, 0))
    by bracketing bisection to ROOT_TOL.
    """
    target = model.value(0, 0.0)
    if not math.isfinite(target):
        raise NonMonotoneModel("utility at the zero bundle is not finite")
    tasks, money = b.tasks, b.money
    # u is increasing in money, hence decreasing in the payment M
    return _bisect_increasing(lambda m: target - model.value(tasks, money - m))


def certainty_equivalent(model: UtilityModel, lottery: Lottery, wealth: float) -> float:
    """Sure payment at ``wealth`` matching the wealth-shifted lottery.

    Solves utility(model, (0, wealth + CE)) = E[u] of the lottery with
    ``wealth`` added to every money outcome.
    """
    target = expected_utility(model, lottery.shifted(wealth))
    if not math.isfinite(target):
        raise NonMonotoneModel("expected utility of the shifted lottery is not finite")
    return _bisect_increasing(lambda ce: model.value(0, wealth + ce) - target)
