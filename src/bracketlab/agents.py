"""Bracketing modes: how an agent frames a presented choice.

A Broad agent evaluates presented options together with the endowment,
a Narrow agent evaluates the presented options alone, and a Partial
agent counts endowed tasks but not endowed money. ConvexKappa is a
reduced form defined directly on reservation wages, r(kappa) =
(1 - kappa) * r_broad + kappa * r_narrow, the quantity the kappa
estimator targets; it has no utility-level counterpart here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import Treatment, TreatmentSpec, price_list
from .preferences import ROOT_TOL, Bundle, UtilityModel, stack_models

__all__ = [
    "Broad",
    "Narrow",
    "Partial",
    "ConvexKappa",
    "BracketingMode",
    "Agent",
    "ModeUnsupported",
    "NoIndifference",
    "CENSOR_CODE",
    "WAGE_BRACKET",
    "evaluate_option",
    "reservation_wage_exact",
    "reservation_wages",
    "snap_rows",
    "snap_to_list",
]

CENSOR_CODE = 4.25
"""Recorded wage when option B is rejected on every list row."""

WAGE_BRACKET = 100.0
"""Reservation wages are searched for on [-WAGE_BRACKET, WAGE_BRACKET]."""

_SNAP_SLACK = 1e-7  # absorbs root-finding error when r sits on a grid point


class ModeUnsupported(Exception):
    """The operation is not defined for this bracketing mode."""


class NoIndifference(Exception):
    """No wage in the search bracket makes the agent indifferent.

    index is the position of the first such agent in a block, if known.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Broad:
    pass


@dataclass(frozen=True)
class Narrow:
    pass


@dataclass(frozen=True)
class Partial:
    pass


@dataclass(frozen=True)
class ConvexKappa:
    """Reservation-wage mixture weight on the narrow frame.

    Values outside [0, 1] are allowed; empirical estimates can exceed 1.
    """

    kappa: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


BracketingMode = Broad | Narrow | Partial | ConvexKappa


@dataclass(frozen=True)
class Agent:
    """A preference model plus the frame it is applied through.

    framing_shift (dollars) moves the narrow-frame reservation wage,
    and only in the BEFORE and AFTER treatments; it models attention
    effects of announcing endowed work early or late.
    """

    model: UtilityModel
    mode: BracketingMode
    framing_shift: float = 0.0


def _counted_endowment(frame: type, endowment: Bundle) -> tuple[int, float]:
    """The (tasks, money) of the endowment a pure frame adds to what is presented."""
    if frame is Broad:
        return endowment.tasks, endowment.money
    if frame is Narrow:
        return 0, 0.0
    if frame is Partial:
        return endowment.tasks, 0.0
    raise ModeUnsupported(f"{frame.__name__} has no utility-level evaluation")


def evaluate_option(agent: Agent, presented: Bundle, endowment: Bundle) -> float:
    """Utility of a presented option as seen through the agent's frame."""
    tasks, money = _counted_endowment(type(agent.mode), endowment)
    return agent.model.value(presented.tasks + tasks, presented.money + money)


_FRAMES = (Broad, Narrow, Partial)


def _frame_weights(mode: BracketingMode) -> dict[type, float]:
    """The pure frames a mode's wage is built from, with their weights."""
    if isinstance(mode, ConvexKappa):
        return {Broad: 1.0 - mode.kappa, Narrow: mode.kappa}
    for frame in _FRAMES:
        if isinstance(mode, frame):
            return {frame: 1.0}
    raise ModeUnsupported(f"{type(mode).__name__} is not a pure frame")


def _frame_wages(model: UtilityModel, frame: type, spec: TreatmentSpec, n: int) -> np.ndarray:
    """Extra wages equating the framed values of options A and B.

    Bisects n wages at once; model may be a stack of n models (see
    stack_models). Each element halves its own bracket until it is
    narrower than ROOT_TOL, exactly as a lone bisection would.
    """
    counted_tasks, counted_money = _counted_endowment(frame, spec.endowment)
    tasks_a = spec.option_a.tasks + counted_tasks
    tasks_b = spec.option_b_tasks + counted_tasks
    money_base = spec.option_a.money + counted_money
    # option A on an array too, so one agent alone takes the same (numpy) path as in a block
    target = model.at_tasks(tasks_a)(np.full(n, money_base))
    utility_b = model.at_tasks(tasks_b)

    def gap(r: np.ndarray) -> np.ndarray:
        return utility_b(money_base + r) - target

    lo = np.full(n, -WAGE_BRACKET)
    hi = np.full(n, WAGE_BRACKET)
    switches = (gap(lo) <= 0.0) & (gap(hi) >= 0.0)  # also false on NaN
    if not switches.all():
        raise NoIndifference(_no_switch(spec), index=int(np.argmin(switches)))
    while True:
        open_ = hi - lo > ROOT_TOL
        if not open_.any():
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        below = gap(mid) < 0.0
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)


def _no_switch(spec: TreatmentSpec) -> str:
    return f"no switch on [-{WAGE_BRACKET:g}, {WAGE_BRACKET:g}] for {spec.treatment.value} {spec.scenario.value}"


def reservation_wages(agents: Sequence[Agent], spec: TreatmentSpec) -> np.ndarray:
    """Continuous extra wages at which each agent switches to option B.

    Agents are grouped by pure frame and model type, and each group is
    solved by one array bisection. ConvexKappa agents get the affine
    combination of their Broad and Narrow wages. The framing shift
    enters through the narrow component and only under BEFORE or AFTER.
    NoIndifference.index is the position of the first agent without a
    switch.
    """
    weights = [_frame_weights(agent.mode) for agent in agents]
    groups: dict[tuple[type, type], list[int]] = {}
    for i, (agent, parts) in enumerate(zip(agents, weights)):
        for frame in parts:
            groups.setdefault((frame, type(agent.model)), []).append(i)
    shifted = spec.treatment in (Treatment.BEFORE, Treatment.AFTER)
    wages = np.zeros(len(agents))
    failed = []
    # Broad before Narrow, so a ConvexKappa wage adds up in the same order as its formula
    for (frame, _), idx in sorted(groups.items(), key=lambda item: _FRAMES.index(item[0][0])):
        try:
            r = _frame_wages(stack_models([agents[i].model for i in idx]), frame, spec, len(idx))
        except NoIndifference as exc:
            failed.append(idx[exc.index])
            continue
        if frame is Narrow and shifted:
            r = r + np.array([agents[i].framing_shift for i in idx])
        wages[idx] += np.array([weights[i][frame] for i in idx]) * r
    if failed:
        raise NoIndifference(_no_switch(spec), index=min(failed))
    return wages


def reservation_wage_exact(agent: Agent, spec: TreatmentSpec) -> float:
    """Continuous extra wage at which the agent switches to option B.

    The one-agent case of reservation_wages.
    """
    return float(reservation_wages((agent,), spec)[0])


def snap_rows(r) -> np.ndarray:
    """Index of the grid row each continuous wage is recorded at.

    The agent accepts at indifference, so that is the smallest grid
    wage at or above r; an index equal to the grid length means the
    wage lies above the grid (censored).
    """
    return np.searchsorted(price_list().extra_wages, np.asarray(r) - _SNAP_SLACK)


def snap_to_list(r: float) -> tuple[float, bool]:
    """Record a continuous wage on the grid: (recorded wage, censored).

    The recorded wage is the grid wage at snap_rows(r); above the grid
    the record is CENSOR_CODE with the censored flag set.
    """
    wages = price_list().extra_wages
    k = int(snap_rows(r))
    if k < len(wages):
        return wages[k], False
    return CENSOR_CODE, True
