"""The experimental design: treatments, scenarios, and the price list.

Every treatment offers a choice between a lighter option A and a
heavier option B (15 extra decoding tasks) whose pay rises down a
16-row price list. Treatments differ only in how the same total
outcomes are split between the presented choice and an endowment
granted outside it; LOW is the exception, dropping the endowed work
entirely so that narrow and broad evaluations can be told apart.

It also owns how a row pattern is read: its accept code has bit i set
iff row i is accepted, it records the grid wage of its first accepted
row (CENSOR_CODE if none is), and it is consistent iff those form a suffix.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .preferences import Bundle

__all__ = [
    "Treatment",
    "Scenario",
    "TreatmentSpec",
    "PriceList",
    "CENSOR_CODE",
    "N_ROWS",
    "treatment_spec",
    "price_list",
    "snap_rows",
]


class Treatment(enum.Enum):
    """A treatment arm.

    Members hash by identity, in C: each is a singleton equal only to
    itself, and Enum's own hash (of the name) is salted per process, so
    no output can depend on the hash value.
    """

    BROAD = "BROAD"
    NARROW = "NARROW"
    LOW = "LOW"
    PARTIAL = "PARTIAL"
    BEFORE = "BEFORE"
    AFTER = "AFTER"

    __hash__ = object.__hash__


class Scenario(enum.Enum):
    """A scenario of the price list; members hash by identity, as Treatment's do."""

    S1 = "S1"
    S2 = "S2"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class TreatmentSpec:
    """One treatment x scenario cell: presented options plus endowment."""

    treatment: Treatment
    scenario: Scenario
    option_a: Bundle
    option_b_tasks: int
    endowment: Bundle


@dataclass(frozen=True)
class PriceList:
    """Ascending extra-wage grid; the shipped design has 16 rows."""

    extra_wages: tuple[float, ...]

    def __post_init__(self) -> None:
        if list(self.extra_wages) != sorted(self.extra_wages):
            raise ValueError("extra_wages must be ascending")


# (a_tasks, a_money, b_tasks, endow_tasks, endow_money); BEFORE and
# AFTER share NARROW's outcome structure by construction
_NARROW_ROWS = {
    Scenario.S1: (0, 4.0, 15, 15, 2.0),
    Scenario.S2: (15, 4.0, 30, 15, 2.0),
}
_TABLE: dict[tuple[Treatment, Scenario], tuple[int, float, int, int, float]] = {
    (Treatment.BROAD, Scenario.S1): (15, 6.0, 30, 0, 0.0),
    (Treatment.NARROW, Scenario.S1): _NARROW_ROWS[Scenario.S1],
    (Treatment.LOW, Scenario.S1): (0, 4.0, 15, 0, 2.0),
    (Treatment.PARTIAL, Scenario.S1): (15, 4.0, 30, 0, 2.0),
    (Treatment.BEFORE, Scenario.S1): _NARROW_ROWS[Scenario.S1],
    (Treatment.AFTER, Scenario.S1): _NARROW_ROWS[Scenario.S1],
    (Treatment.BROAD, Scenario.S2): (30, 6.0, 45, 0, 0.0),
    (Treatment.NARROW, Scenario.S2): _NARROW_ROWS[Scenario.S2],
    (Treatment.LOW, Scenario.S2): (15, 4.0, 30, 0, 2.0),
    (Treatment.PARTIAL, Scenario.S2): (30, 4.0, 45, 0, 2.0),
    (Treatment.BEFORE, Scenario.S2): _NARROW_ROWS[Scenario.S2],
    (Treatment.AFTER, Scenario.S2): _NARROW_ROWS[Scenario.S2],
}


def treatment_spec(t: Treatment, s: Scenario) -> TreatmentSpec:
    """The design-table row for one treatment x scenario cell."""
    a_tasks, a_money, b_tasks, e_tasks, e_money = _TABLE[(t, s)]
    return TreatmentSpec(
        treatment=t,
        scenario=s,
        option_a=Bundle(a_tasks, a_money),
        option_b_tasks=b_tasks,
        endowment=Bundle(e_tasks, e_money),
    )


_PRICE_LIST = PriceList(tuple(0.25 * k for k in range(1, 17)))


def price_list() -> PriceList:
    """The 16-row extra-wage grid: 0.25 to 4.00 in 0.25 steps."""
    return _PRICE_LIST


N_ROWS = len(_PRICE_LIST.extra_wages)
"""Rows of the price list, so an accept code has N_ROWS bits."""

CENSOR_CODE = 4.25
"""Recorded wage when option B is rejected on every list row."""

RECORDED_WAGE = np.array(_PRICE_LIST.extra_wages + (CENSOR_CODE,))
"""The recorded wage when row i is the first accepted one; row N_ROWS means none is."""


SUFFIX_CODE = (1 << N_ROWS) - (1 << np.arange(N_ROWS + 1))
"""The accept code of the suffix from row i: every row from i on is accepted; row N_ROWS gives code 0."""


def _code_tables() -> tuple[np.ndarray, np.ndarray]:
    """Every accept code's first accepted row (its lowest set bit, N_ROWS for code 0) and consistency flag."""
    first_row = np.full(1 << N_ROWS, N_ROWS, np.uint8)
    for row in range(N_ROWS):
        first_row[1 << row :: 1 << row + 1] = row  # the codes whose lowest set bit is row
    consistent = np.zeros(1 << N_ROWS, bool)
    consistent[SUFFIX_CODE] = True  # code 0 among them
    return first_row, consistent


CODE_FIRST_ROW, CODE_CONSISTENT = _code_tables()
for _table in (RECORDED_WAGE, SUFFIX_CODE, CODE_FIRST_ROW, CODE_CONSISTENT):
    _table.flags.writeable = False  # every dataset reads them

_SNAP_SLACK = 1e-7  # absorbs root-finding error when r sits on a grid point


def snap_rows(r) -> np.ndarray:
    """Index of the grid row each continuous wage is recorded at: RECORDED_WAGE's index.

    The agent accepts at indifference, so that is the smallest grid wage
    at or above r; N_ROWS means the wage lies above the grid (censored).
    """
    return np.searchsorted(RECORDED_WAGE[:N_ROWS], np.asarray(r) - _SNAP_SLACK)
