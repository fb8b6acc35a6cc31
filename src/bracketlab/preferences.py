"""Preferences over work/money bundles and the money metric they induce.

A Bundle is a (task count, dollar amount) pair. A utility model ranks
bundles and finite lotteries over them; the money metric M(b) is the
payment that makes the decision maker indifferent between receiving b
and paying M(b), and staying at the zero bundle. ``money_metric`` and
``certainty_equivalent`` share the scalar bisection ``_bisect_increasing``.
Simulated reservation wages invert utility in money instead: the
simulator's models give ``money_for``, the money at which a task count
reaches a utility level, in closed form.

``value`` and ``money_for`` also evaluate elementwise over a money or
utility array, and over parameter arrays: a model built with array
parameters, such as
``QuasiLinearPowerCost(alpha=alphas, gamma=gammas)``, is a stack whose
member i has the i-th entry of every parameter, and its constructor
checks every member. The simulator prices its wages on such stacks.
Only scalar models are hashable and comparable: the models are frozen
dataclasses, so hashing a stack raises TypeError, and == between stacks
of two or more members raises ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ROOT_TOL",
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

_INITIAL_BRACKET = (-1.0, 1.0)  # dollars; each end doubles until it brackets the root

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


class UtilityModel:
    """Base for the model variants; subclasses implement ``value``.

    ``value`` must broadcast over a money array and over parameter
    arrays (a stack, see the module docstring), and so must
    ``money_for`` where a model has it. Only a model with scalar
    parameters is hashable and comparable by value.
    """

    def value(self, tasks: float, money: float) -> float:
        raise NotImplementedError

    def money_for(self, tasks: float, utility: float) -> float:
        """The money m with value(tasks, m) == utility: the inverse of value in money."""
        raise NotImplementedError


@dataclass(frozen=True)
class QuasiLinearPowerCost(UtilityModel):
    """u(e, m) = m - alpha * e**gamma."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if np.any(self.alpha <= 0):
            raise ValueError("alpha must be positive")
        if np.any(self.gamma < 1):
            raise ValueError("gamma must be at least 1")

    def value(self, tasks: float, money: float) -> float:
        return money - self.alpha * tasks**self.gamma

    def money_for(self, tasks: float, utility: float) -> float:
        return utility + self.alpha * tasks**self.gamma


@dataclass(frozen=True)
class CaraMoneyPowerCost(UtilityModel):
    """u(e, m) = (1 - exp(-rho * m)) / rho - alpha * e**gamma."""

    rho: float
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if np.any(self.rho == 0):
            raise ValueError("rho must be nonzero")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")
        if np.any(self.gamma < 1):
            raise ValueError("gamma must be at least 1")

    def value(self, tasks: float, money: float) -> float:
        return (1.0 - _safe_exp(-self.rho * money)) / self.rho - self.alpha * tasks**self.gamma

    def money_for(self, tasks: float, utility: float) -> float:
        """-log(1 - rho (utility + cost)) / rho, and the infinity on its side past the utility's bound 1 / rho."""
        with np.errstate(divide="ignore"):  # log(0) past the bound
            return -np.log(np.maximum(1.0 - self.rho * (utility + self.alpha * tasks**self.gamma), 0.0)) / self.rho


@dataclass(frozen=True)
class LinearMetric(UtilityModel):
    """u(e, m) = lambda_tasks * e + lambda_money * m."""

    lambda_tasks: float
    lambda_money: float

    def __post_init__(self) -> None:
        if np.any(self.lambda_money <= 0):
            raise ValueError("lambda_money must be positive")

    def value(self, tasks: float, money: float) -> float:
        return self.lambda_tasks * tasks + self.lambda_money * money

    def money_for(self, tasks: float, utility: float) -> float:
        return (utility - self.lambda_tasks * tasks) / self.lambda_money


@dataclass(frozen=True)
class CrraMoney(UtilityModel):
    """u(m) = m**(1 - eta) / (1 - eta); tasks are ignored.

    Counterexample model: certainty equivalents depend on wealth. Only
    defined for positive money; the utility is -inf at and below zero
    when eta > 1, which keeps bisection sign logic monotone.
    """

    eta: float

    def __post_init__(self) -> None:
        if np.any((self.eta <= 0) | (self.eta == 1)):
            raise ValueError("eta must be positive and different from 1")

    def value(self, tasks: float, money: float) -> float:
        if isinstance(money, np.ndarray):
            positive = np.where(money > 0, money, 1.0) ** (1.0 - self.eta) / (1.0 - self.eta)
            edge = np.where((money == 0) & (self.eta < 1), 0.0, -np.inf)
            return np.where(money > 0, positive, edge)
        if money <= 0:
            return 0.0 if (self.eta < 1 and money == 0) else -math.inf
        return money ** (1.0 - self.eta) / (1.0 - self.eta)


def utility(model: UtilityModel, b: Bundle) -> float:
    """Utility of a sure bundle."""
    return model.value(b.tasks, b.money)


def expected_utility(model: UtilityModel, lottery: Lottery) -> float:
    """Probability-weighted utility over a finite lottery."""
    return sum(p * model.value(b.tasks, b.money) for b, p in lottery.outcomes)


def _bisect_increasing(g) -> float:
    """Root of an increasing function, expanding _INITIAL_BRACKET geometrically.

    Raises NonMonotoneModel when no sign change appears within
    MAX_DOUBLINGS doublings (non-monotone or unattainable target).
    """
    lo, hi = _INITIAL_BRACKET
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
