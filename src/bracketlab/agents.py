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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .design import CENSOR_CODE, N_ROWS, RECORDED_WAGE, Treatment, TreatmentSpec, snap_rows
from .preferences import ROOT_TOL, Bundle, UtilityModel

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
    "population_wages",
    "reservation_wage_exact",
    "snap_rows",
    "snap_to_list",
]

WAGE_BRACKET = 100.0
"""Reservation wages are searched for on [-WAGE_BRACKET, WAGE_BRACKET]."""


class ModeUnsupported(Exception):
    """The operation is not defined for this bracketing mode."""


class NoIndifference(Exception):
    """No wage in the search bracket makes the agent indifferent.

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


def evaluate_option(agent: Agent, presented: Bundle, endowment: Bundle) -> float:
    """Utility of a presented option as seen through the agent's frame."""
    tasks, money = _counted_endowment(type(agent.mode), endowment)
    return agent.model.value(presented.tasks + tasks, presented.money + money)


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


def _bisect_wages(model: UtilityModel, tasks_a: np.ndarray, tasks_b: np.ndarray, money_base: np.ndarray) -> np.ndarray:
    """Extra wage r equating (tasks_a, money_base) and (tasks_b, money_base + r), per element.

    Element i is priced by member i of model (a stack, see preferences)
    and halves its own bracket until it is narrower than ROOT_TOL, exactly
    as a lone bisection would, so its bits do not depend on the batch. An
    element whose option B is still worse at the top of the bracket has a
    wage above it: +inf. One with B better already at the bottom, or with
    a NaN gap, has no answer: NaN.

    Every bracket starts as [-WAGE_BRACKET, WAGE_BRACKET]. Each end,
    midpoint and sum of ends met on the way down to ROOT_TOL is an integer
    multiple of the final width, at most 2 * WAGE_BRACKET in magnitude,
    and a float holds each such multiple exactly. So all brackets share
    one width, and lo + width / 2 is 0.5 * (lo + hi) bit for bit. The
    elements that do not switch halve with the rest and are never read.
    """
    target = model.at_tasks(tasks_a)(money_base)
    utility_b = model.at_tasks(tasks_b)

    def gap(r: np.ndarray) -> np.ndarray:
        return utility_b(money_base + r) - target

    lo, width = np.full(len(money_base), -WAGE_BRACKET), 2.0 * WAGE_BRACKET
    gap_lo, gap_hi = gap(lo), gap(lo + width)
    switches = (gap_lo <= 0.0) & (gap_hi >= 0.0)  # also false on NaN
    roots = np.where((gap_lo <= 0.0) & (gap_hi < 0.0), np.inf, np.nan)
    while width > ROOT_TOL:
        width *= 0.5
        mid = lo + width
        lo = np.where(gap(mid) < 0.0, mid, lo)
    roots[switches] = lo[switches] + 0.5 * width
    return roots


def _no_switch(spec: TreatmentSpec) -> str:
    return f"no switch on [-{WAGE_BRACKET:g}, {WAGE_BRACKET:g}] for {spec.treatment.value} {spec.scenario.value}"


def _members(model: UtilityModel, rows: np.ndarray, size: int) -> UtilityModel:
    """The given rows of a population of size members, as a stack; a scalar parameter is every member's."""
    return type(model)(**{f.name: np.broadcast_to(getattr(model, f.name), size)[rows] for f in fields(model)})


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
    modes[mode_index[j]], and every member has framing_shift. The wages
    come from two matrices. weights (frame x member) holds each member's
    weight on each pure frame (see _frame_weights). Each pure frame of
    each cell poses one problem (see _frame_problem), and roots (distinct
    problem x member) holds its wage wherever a member needs it, from one
    array bisection over all of them, and NaN elsewhere. A member needs a
    frame only at a nonzero weight, so ConvexKappa(0) and ConvexKappa(1)
    never price the frame they ignore (0 * inf would be NaN). A member's
    wage then adds its frames in the order 0.0 + w_broad * r_broad +
    w_narrow * (r_narrow + shift) + w_partial * r_partial, a zero weight
    adding 0.0 and the shift entering only under BEFORE or AFTER. A frame
    wage above the bracket is +inf, and so is the member's wage when that
    frame's weight is positive.

    Raises NoIndifference for the first cell, in the given order, with a
    member that has no switch and no wage above the bracket in some
    frame, or a wage above it in a frame of negative weight (ConvexKappa
    with kappa outside [0, 1]); its index is the first such member and
    its spec the cell.
    """
    weights = np.array([_frame_weights(mode) for mode in modes]).reshape(-1, len(_FRAMES))[mode_index].T
    problems: dict[tuple[int, int, float], int] = {}  # distinct problem -> row
    slots = [[problems.setdefault(_frame_problem(f, spec), len(problems)) for f in _FRAMES] for spec, _ in cells]
    needed = np.zeros((len(problems), len(mode_index)), dtype=bool)
    for (_, n), slot in zip(cells, slots):
        for f, row in enumerate(slot):  # one at a time: frames of a cell can share a row
            needed[row, :n] |= weights[f, :n] != 0.0
    rows, members = np.nonzero(needed)
    tasks_a, tasks_b, money_base = np.array(list(problems), dtype=float).reshape(-1, 3)[rows].T
    roots = np.full(needed.shape, np.nan)
    with np.errstate(invalid="ignore"):
        roots[needed] = _bisect_wages(_members(model, members, len(mode_index)), tasks_a, tasks_b, money_base)

    out = []
    for (spec, n), slot in zip(cells, slots):
        w, r = weights[:, :n], roots[slot, :n]  # r is a copy: cells share rows
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
    lies above the search bracket (snap_to_list records it as censored).
    """
    (wage,) = population_wages(agent.model, (agent.mode,), np.zeros(1, np.intp), agent.framing_shift, [(spec, 1)])
    return float(wage[0])


def snap_to_list(r: float) -> tuple[float, bool]:
    """Record a continuous wage: (RECORDED_WAGE at snap_rows(r), whether r is above the grid); NaN raises ValueError."""
    if math.isnan(r):
        raise ValueError("a NaN wage has no row on the price list")
    k = int(snap_rows(r))
    return float(RECORDED_WAGE[k]), k == N_ROWS
