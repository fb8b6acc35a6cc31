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

from .design import N_ROWS, RECORDED_WAGE, Treatment, TreatmentSpec, snap_rows
from .preferences import Bundle, UtilityModel

__all__ = [
    "Broad",
    "Narrow",
    "Partial",
    "ConvexKappa",
    "BracketingMode",
    "Agent",
    "ModeUnsupported",
    "NoIndifference",
    "WAGE_BRACKET",
    "population_wages",
    "reservation_wage_exact",
    "snap_to_list",
]

WAGE_BRACKET = 100.0
"""The cut on a frame's wage: above WAGE_BRACKET it is censored (+inf), below -WAGE_BRACKET it has no answer."""


class ModeUnsupported(Exception):
    """The operation is not defined for this bracketing mode."""


class NoIndifference(Exception):
    """A member has no reservation wage.

    In a frame it weighs, no wage from -WAGE_BRACKET up makes it
    indifferent (option A's utility may be NaN or infinite), or a wage
    above WAGE_BRACKET enters with a negative weight.

    index is the position of the first such member of a population, and
    spec the treatment cell, if known.
    """

    def __init__(self, message: str, index: int | None = None, spec: TreatmentSpec | None = None) -> None:
        super().__init__(message)
        self.index = index
        self.spec = spec


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


_FRAMES = (Broad, Narrow, Partial)


def _frame_weights(mode: BracketingMode) -> tuple[float, ...]:
    """A mode's weight on each pure frame, in _FRAMES order."""
    if isinstance(mode, ConvexKappa):
        return 1.0 - mode.kappa, mode.kappa, 0.0
    if isinstance(mode, _FRAMES):
        return tuple(float(isinstance(mode, frame)) for frame in _FRAMES)
    raise ModeUnsupported(f"{type(mode).__name__} is not a pure frame")


def _frame_problem(frame: type, spec: TreatmentSpec) -> tuple[int, int, float]:
    """(tasks_a, tasks_b, money_base): what a pure frame prices in one cell.

    The frame compares (tasks_a, money_base) with (tasks_b, money_base + r).
    Different cells can pose one problem: the Broad frame under NARROW S1
    is BROAD S1.
    """
    counted_tasks, counted_money = _counted_endowment(frame, spec.endowment)
    return (
        spec.option_a.tasks + counted_tasks,
        spec.option_b_tasks + counted_tasks,
        spec.option_a.money + counted_money,
    )


def _frame_wages(model: UtilityModel, problem: tuple[int, int, float], size: int) -> np.ndarray:
    """The extra wage of a frame problem (see _frame_problem) for each of size members.

    Member i of model (a stack, see preferences) prices (tasks_a,
    money_base) against (tasks_b, money_base + r) as r =
    money_for(tasks_b, value(tasks_a, money_base)) - money_base: the
    money that gives option B option A's utility, elementwise, on
    arrays whatever the model (numpy's pow can miss Python's by an ulp).
    A wage above WAGE_BRACKET is +inf. One below -WAGE_BRACKET (option B
    better even then), or one from a NaN or infinite utility of option A,
    has no answer: NaN.
    """
    tasks_a, tasks_b, money_base = (np.full(size, x, dtype=float) for x in problem)
    target = model.value(tasks_a, money_base)
    r = model.money_for(tasks_b, np.where(np.isfinite(target), target, np.nan)) - money_base
    return np.where(r < -WAGE_BRACKET, np.nan, np.where(r > WAGE_BRACKET, np.inf, r))


def _no_switch(spec: TreatmentSpec) -> str:
    return f"no switch on [-{WAGE_BRACKET:g}, {WAGE_BRACKET:g}] for {spec.treatment.value} {spec.scenario.value}"


def population_wages(
    model: UtilityModel,
    modes: Sequence[BracketingMode],
    mode_index: np.ndarray,
    framing_shift: float,
    cells: Sequence[tuple[TreatmentSpec, int]],
) -> list[np.ndarray]:
    """Continuous extra wages of a population's first n members in each (cell, n).

    model stacks the population's preferences (see preferences), or is
    one model every member shares; member j brackets with
    modes[mode_index[j]], and every member has framing_shift. weights
    (frame x member) holds each member's weight on each pure frame (see
    _frame_weights). Each pure frame of each cell poses one problem (see
    _frame_problem), and each distinct problem is priced once for every
    member by _frame_wages. A member's wage adds its frames in the order
    0.0 + w_broad * r_broad + w_narrow * (r_narrow + shift) + w_partial *
    r_partial, a zero weight adding 0.0 (so ConvexKappa(0) and
    ConvexKappa(1) never read the frame they ignore, where 0 * inf would
    be NaN) and the shift entering only under BEFORE or AFTER. A frame
    wage above the bracket is +inf, and so is the member's wage when that
    frame's weight is positive.

    Raises NoIndifference for the first cell, in the given order, with a
    member that has no answer in a frame it weighs, or a wage above the
    bracket in a frame of negative weight (ConvexKappa with kappa outside
    [0, 1]); its index is the first such member and its spec the cell.
    """
    size = len(mode_index)
    weights = np.array([_frame_weights(mode) for mode in modes]).reshape(-1, len(_FRAMES))[mode_index].T
    problems = [[_frame_problem(f, spec) for f in _FRAMES] for spec, _ in cells]
    with np.errstate(invalid="ignore"):  # a NaN target passes through money_for and the comparisons
        priced = {problem: _frame_wages(model, problem, size) for problem in {p for cell in problems for p in cell}}

    out = []
    for (spec, n), cell in zip(cells, problems):
        w, r = weights[:, :n], np.stack([priced[problem][:n] for problem in cell])
        if spec.treatment in (Treatment.BEFORE, Treatment.AFTER):
            r[1] += framing_shift  # the Narrow row
        used = w != 0.0
        # a wage above the bracket is censored only where it raises the
        # combined wage: under a negative weight its sign flips
        failed = (used & (np.isnan(r) | (np.isinf(r) & (w < 0.0)))).any(axis=0)
        if failed.any():
            raise NoIndifference(_no_switch(spec), index=int(np.argmax(failed)), spec=spec)
        with np.errstate(invalid="ignore"):  # 0 * inf, only where unused
            t = np.where(used, w * r, 0.0)
        out.append(0.0 + t[0] + t[1] + t[2])
    return out


def reservation_wage_exact(agent: Agent, spec: TreatmentSpec) -> float:
    """Continuous extra wage at which the agent switches to option B.

    A population of one priced by population_wages; +inf when the wage
    lies above WAGE_BRACKET (snap_to_list records it as censored).
    """
    (wage,) = population_wages(agent.model, (agent.mode,), np.zeros(1, np.intp), agent.framing_shift, [(spec, 1)])
    return float(wage[0])


def snap_to_list(r: float) -> tuple[float, bool]:
    """Record a continuous wage: (RECORDED_WAGE at snap_rows(r), whether r is above the grid); NaN raises ValueError."""
    if math.isnan(r):
        raise ValueError("a NaN wage has no row on the price list")
    k = int(snap_rows(r))
    return float(RECORDED_WAGE[k]), k == N_ROWS
