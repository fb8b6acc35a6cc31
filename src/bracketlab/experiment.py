"""Simulated price-list sessions over heterogeneous populations.

Each synthetic subject draws covariates and preference parameters from
a population specification, goes through both scenarios of one
treatment, and leaves a 16-row accept/reject record per scenario. The
random stream for subject j is derived from (master seed, j) alone, so
subject j faces the same preference draw in every treatment (common
random numbers). The simulator seeds and steps every subject's stream
in array passes, draws each subject index once into columns, reuses
those draws in every treatment, and prices the reservation wages of all
(treatment, scenario) cells in closed form (see agents.population_wages).
"""
from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._normal import log_ndtr, ndtr, ndtri
from ._ziggurat import KI_DOUBLE, WI_DOUBLE
from .agents import Agent, Broad, ConvexKappa, Narrow, NoIndifference, population_wages
from .design import (
    CODE_CONSISTENT,
    CODE_FIRST_ROW,
    N_ROWS,
    RECORDED_WAGE,
    SUFFIX_CODE,
    Scenario,
    Treatment,
    snap_rows,
    treatment_spec,
)
from .preferences import CaraMoneyPowerCost, QuasiLinearPowerCost, UtilityModel

__all__ = [
    "Covariates",
    "ScenarioOutcome",
    "SubjectRecord",
    "Dataset",
    "Observations",
    "MixtureComposition",
    "KappaComposition",
    "PopulationSpec",
    "simulate_subject",
    "simulate_dataset",
    "subject_stream",
    "population_digest",
    "iter_observations",
    "write_csv",
    "read_csv",
    "DataFormatError",
    "CSV_COLUMNS",
]

_TEDIOUSNESS_WIDTH = 10  # tediousness is drawn on a 1..10 scale
_TEDIOUSNESS_CENTER = 5.5  # its midpoint


@dataclass(frozen=True, slots=True)
class Covariates:
    male: bool
    age: int
    tediousness: int

    def __post_init__(self) -> None:
        _check_covariates(self.male, self.age, self.tediousness)


def _check_covariates(male: bool, age: int, tediousness: int) -> None:
    """Reject what a Dataset's bool male, int64 age and int8 tediousness columns cannot hold, non-integers included."""
    if not isinstance(male, (bool, np.bool_)):
        raise TypeError(f"male must be a bool, got {male!r}")
    if not 1 <= operator.index(tediousness) <= _TEDIOUSNESS_WIDTH:
        raise ValueError(f"tediousness is a 1..{_TEDIOUSNESS_WIDTH} scale")
    if operator.index(age) < 0:
        raise ValueError("age must be nonnegative")
    if age >= 2**63:
        raise ValueError("age must be below 2**63")


def _check_covariate_columns(male: np.ndarray, age: np.ndarray, tediousness: np.ndarray) -> None:
    """_check_covariates over bool, int64 and int8 columns; the first rejected subject raises its message."""
    rejected = np.flatnonzero((tediousness < 1) | (tediousness > _TEDIOUSNESS_WIDTH) | (age < 0))
    if rejected.size:
        _check_covariates(*(column[rejected[0]].item() for column in (male, age, tediousness)))


@dataclass(frozen=True, slots=True)
class ScenarioOutcome:
    """One price list worth of behavior from one subject."""

    scenario: Scenario
    choices: tuple[bool, ...]
    res_wage: float
    censored: bool
    consistent: bool

    def __post_init__(self) -> None:
        _check_fields(_accept_code(self.choices), self.res_wage, self.censored, self.consistent)


_NO_OUTCOMES = "a record needs at least one scenario outcome"


@dataclass(frozen=True, slots=True)
class SubjectRecord:
    subject_id: str
    treatment: Treatment
    outcomes: tuple[ScenarioOutcome, ...]
    covariates: Covariates

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError(_NO_OUTCOMES)


_TREATMENT_CODE = {t: i for i, t in enumerate(Treatment)}
_SCENARIO_CODE = {s: i for i, s in enumerate(Scenario)}
_SCENARIOS = tuple(Scenario)

_ROW_BITS = 1 << np.arange(N_ROWS)
_ROW_SCENARIO = np.arange(len(Scenario))  # the scenario code of each column of a block's accept codes
_CODE_MASK = (1 << N_ROWS) - 1  # a row key's accept code; the bits above it hold the scenario code


def _accept_code(choices: Sequence[bool]) -> int:
    """The accept code of a price list's choices: bit i set iff row i is accepted."""
    if len(choices) != N_ROWS:
        raise ValueError(f"expected {N_ROWS} choices, got {len(choices)}")
    return sum(1 << i for i, accepted in enumerate(choices) if accepted)


def _check_fields(code: int, res_wage: float, censored: bool, consistent: bool) -> None:
    """Reject a recorded flag or wage that the accept code contradicts."""
    if consistent != bool(CODE_CONSISTENT[code]):
        claim = "consistent record with non-monotone" if consistent else "inconsistent record with monotone"
        raise ValueError(f"{claim} choices")
    # every row, consistent or not, records its smallest accepted wage
    expected = float(RECORDED_WAGE[CODE_FIRST_ROW[code]])
    if res_wage != expected:
        raise ValueError(f"res_wage {res_wage} does not match switch point {expected}")
    if censored != (code == 0):
        raise ValueError("censored flag contradicts the choice rows")


def _outcomes(keys: np.ndarray) -> list[ScenarioOutcome]:
    """One ScenarioOutcome per row key."""
    codes = keys & _CODE_MASK
    flags = (codes[:, None] & _ROW_BITS) != 0
    wages = RECORDED_WAGE[CODE_FIRST_ROW[codes]]
    columns = (flags.tolist(), wages.tolist(), (codes == 0).tolist(), CODE_CONSISTENT[codes].tolist())
    return [
        ScenarioOutcome(_SCENARIOS[s], tuple(f), wage, censored, consistent)
        for s, f, wage, censored, consistent in zip((keys >> N_ROWS).tolist(), *columns)
    ]


def _gather(objects: list, index: np.ndarray) -> list:
    """objects[i] for each i in index, gathered by numpy so that no Python int is made per item."""
    table = np.empty(len(objects), dtype=object)
    table[:] = objects
    return table[index].tolist()


def _distinct_rows(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of equal-length columns, and each row's index into them.

    Exact: the rows are put in np.lexsort order (the last column primary),
    and a group starts where a row differs from the one before. The groups
    come in that order, each with its first occurrence, as the sort is stable.
    """
    order = np.lexsort(columns)
    new = np.zeros(len(order), bool)
    new[:1] = True
    for column in columns:
        column = column[order]
        new[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(order), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _instances(cls: type, n: int, *columns) -> list:
    """n instances of a slotted dataclass made without __init__, field i of each set from columns[i].

    Every slot is filled by mapping its descriptor's __set__ over its
    column, so no Python frame runs per object; the caller has checked
    the columns as __post_init__ would check each object.
    """
    objects = list(map(object.__new__, itertools.repeat(cls, n)))
    for field, column in zip(fields(cls), columns, strict=True):
        collections.deque(map(vars(cls)[field.name].__set__, objects, column), maxlen=0)  # consume at C speed
    return objects


_SCENARIO_NAMES = tuple(s.value for s in Scenario)
# the choice cells of each value of an accept code's low and high byte (c01 is bit 0),
# and each row's recorded wage as write_csv renders it
_LOW_BYTE_CELLS, _HIGH_BYTE_CELLS = (
    tuple(",".join(f"{b:0{width}b}"[::-1]) for b in range(1 << width))
    for width in (min(8, N_ROWS - row) for row in range(0, N_ROWS, 8))
)
_WAGE_TEXT = tuple(f"{w:.2f}" for w in RECORDED_WAGE.tolist())
_FIRST_ROW, _CONSISTENT = memoryview(CODE_FIRST_ROW), memoryview(CODE_CONSISTENT)  # Python ints and bools


def _outcome_text(key: int) -> str:
    """The scenario, choice, res_wage, censored and consistent cells of a row key, from text tables."""
    code = key & _CODE_MASK
    return (
        f"{_SCENARIO_NAMES[key >> N_ROWS]},{_LOW_BYTE_CELLS[code & 0xFF]},{_HIGH_BYTE_CELLS[code >> 8]},"
        f"{_WAGE_TEXT[_FIRST_ROW[code]]},{'0' if code else '1'},{'1' if _CONSISTENT[code] else '0'}"
    )


@dataclass(frozen=True, eq=False)
class Observations:
    """Read-only columns of a dataset's scenario rows, in iter_observations order.

    treatment and scenario are int8 indices into tuple(Treatment) and
    tuple(Scenario); inconsistent rows are included and flagged.
    """

    treatment: np.ndarray
    scenario: np.ndarray
    res_wage: np.ndarray
    consistent: np.ndarray


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class Dataset:
    """Subjects plus provenance, stored as columns; provenance is not compared.

    The columns are the subject ids, each subject's treatment code (an
    index into tuple(Treatment)), male (bool), age (int64) and
    tediousness (int8), each subject's row offsets (subject i owns
    scenario rows offsets[i]:offsets[i + 1]), and one int32 row key per
    scenario row: the scenario code (an index into tuple(Scenario)) above
    the accept code, from which design's tables give every other field.
    read_csv and simulate_dataset fill the columns directly and build no
    ScenarioOutcome, SubjectRecord or Covariates; Dataset(records)
    derives the columns from the records, keying each distinct outcome
    object once and checking each distinct covariates object as
    Covariates checks it. Every way in checks the covariate columns and
    the row offsets once per column, as Covariates and SubjectRecord
    check each object. records and observations are built from the
    columns on first use and cached: records builds one ScenarioOutcome
    per distinct key, then fills one Covariates per distinct value and
    one SubjectRecord per subject from the columns (all three classes
    are slotted), and every record shares the outcomes and covariates.
    Equality and hashing compare the columns' bytes and build neither.
    No subject repeats a scenario.
    """

    def __init__(
        self, records: Sequence[SubjectRecord], seed: int | None = None, spec_digest: str | None = None
    ) -> None:
        records = tuple(records)
        for covariates in {id(r.covariates): r.covariates for r in records}.values():
            _check_covariates(covariates.male, covariates.age, covariates.tediousness)
        memo: dict[int, int] = {}
        keys = []
        for record in records:
            for outcome in record.outcomes:
                # keyed by identity: the records keep every keyed object alive
                key = memo.get(id(outcome))
                if key is None:
                    key = memo[id(outcome)] = _SCENARIO_CODE[outcome.scenario] << N_ROWS | _accept_code(outcome.choices)
                keys.append(key)
        self._fill(
            [r.subject_id for r in records],
            [_TREATMENT_CODE[r.treatment] for r in records],
            [[getattr(r.covariates, name) for r in records] for name in ("male", "age", "tediousness")],
            np.cumsum([0] + [len(r.outcomes) for r in records]),
            keys,
            seed,
            spec_digest,
        )
        self.__dict__["records"] = records

    @classmethod
    def _from_columns(cls, *columns, seed: int | None = None, spec_digest: str | None = None) -> Dataset:
        """A dataset from (subject_ids, treatment codes, (male, age, tediousness) columns, offsets, row keys)."""
        dataset = cls.__new__(cls)
        dataset._fill(*columns, seed, spec_digest)
        return dataset

    def _fill(self, subject_ids, treatment, covariates, offsets, keys, seed, spec_digest) -> None:
        if len(set(subject_ids)) != len(subject_ids):
            raise ValueError("subject_ids must be unique")
        covariates = tuple(map(_read_only, map(np.asarray, covariates, (bool, np.int64, np.int8))))
        _check_covariate_columns(*covariates)
        offsets, keys = np.asarray(offsets, np.intp), np.asarray(keys, np.int32)
        counts = np.diff(offsets)
        if not counts.all():
            raise ValueError(_NO_OUTCOMES)
        # of two scenarios, a subject repeats one iff it has more than two rows or two rows of one scenario
        repeats = counts > len(_SCENARIOS)
        pair = counts == 2
        first = offsets[:-1][pair]
        repeats[pair] = (keys[first] ^ keys[first + 1]) >> N_ROWS == 0
        if repeats.any():
            j = int(repeats.argmax())
            uses = np.bincount(keys[offsets[j] : offsets[j + 1]] >> N_ROWS)
            s = int(np.flatnonzero(uses > 1)[0])
            raise ValueError(f"subject {subject_ids[j]} repeats scenario {_SCENARIOS[s].value}")
        self.__dict__.update(
            seed=seed,
            spec_digest=spec_digest,
            _subject_ids=tuple(subject_ids),
            _treatment=_read_only(np.asarray(treatment, np.int8)),
            _covariates=covariates,
            _offsets=_read_only(offsets),
            _keys=_read_only(keys),
        )

    def __setattr__(self, name: str, value: object) -> None:
        # the cached records and observations must never disagree with the columns
        raise AttributeError(f"cannot assign to {name!r}: a Dataset is immutable")

    def __len__(self) -> int:
        return len(self._subject_ids)

    def _value_key(self) -> tuple:
        """What equality compares: the subject columns, then the row keys, which fix every outcome field."""
        columns = (*self._covariates, self._treatment, self._offsets, self._keys)
        return (self._subject_ids, *(column.tobytes() for column in columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self) -> int:
        return hash(self._value_key())

    def __repr__(self) -> str:
        return f"Dataset(records={self.records!r}, seed={self.seed!r}, spec_digest={self.spec_digest!r})"

    @functools.cached_property
    def records(self) -> tuple[SubjectRecord, ...]:
        """One SubjectRecord per subject, filled from the columns on first use.

        Each distinct row key gets one ScenarioOutcome from its
        constructor. The Covariates (one per distinct value) and the
        records are filled from the columns, which _fill checked as
        Covariates and SubjectRecord check each object, without an
        __init__ call (see _instances).
        """
        keys, slots = np.unique(self._keys, return_inverse=True)
        outcomes = tuple(_gather(_outcomes(keys), slots))
        values, people = self._distinct_covariates()
        offsets = self._offsets.tolist()
        persons = _instances(Covariates, len(values[0]), *(column.tolist() for column in values))
        arms = tuple(Treatment)
        return tuple(_instances(
            SubjectRecord,
            len(self),
            self._subject_ids,
            map(arms.__getitem__, self._treatment.tolist()),
            map(outcomes.__getitem__, map(slice, offsets, offsets[1:])),
            _gather(persons, people),
        ))

    def _distinct_covariates(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Each distinct (male, age, tediousness) value once, as columns sorted by age, tediousness
        and male (_distinct_rows on (male, tediousness, age)), and each subject's index into them."""
        male, age, tediousness = self._covariates
        first, slots = _distinct_rows((male, tediousness, age))
        return [column[first] for column in self._covariates], slots

    @functools.cached_property
    def observations(self) -> Observations:
        """Every scenario row as columns, derived from the row keys on first use.

        The cache lives in the instance __dict__, outside equality and
        repr; the columns are read-only, so it never goes stale.
        """
        codes = self._keys & _CODE_MASK
        treatment = np.repeat(self._treatment, np.diff(self._offsets))
        scenario = (self._keys >> N_ROWS).astype(np.int8)
        columns = [treatment, scenario, RECORDED_WAGE[CODE_FIRST_ROW[codes]], CODE_CONSISTENT[codes]]
        return Observations(*map(_read_only, columns))


@dataclass(frozen=True)
class MixtureComposition:
    """Each subject is Narrow with probability narrow_share, else Broad."""

    narrow_share: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.narrow_share <= 1.0:
            raise ValueError("narrow_share must lie in [0, 1]")


@dataclass(frozen=True)
class KappaComposition:
    """Every subject mixes frames at reservation-wage level with weight kappa."""

    kappa: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


def _is_integer(value: object) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PopulationSpec:
    """Everything simulate_dataset needs, including the master seed.

    Cost scale alpha is log-normal around alpha_location with a linear
    tediousness link on the log scale; convexity gamma is normal,
    truncated to gamma_bounds, with a location shift for men. The lower
    bound is finite; an upper bound of inf truncates from below only. Defaults
    are calibrated so simulated reservation wages land mid price list
    with a realistic censoring share; the example config documents them.
    """

    counts: Mapping[Treatment, int]
    seed: int
    composition: MixtureComposition | KappaComposition = MixtureComposition(1.0)
    alpha_location: float = math.log(0.004)
    alpha_scale: float = 0.35
    alpha_tediousness_link: float = 0.08
    gamma_location: float = 2.0
    gamma_scale: float = 0.15
    gamma_male_shift: float = -0.10
    gamma_bounds: tuple[float, float] = (1.0, 4.0)
    rho: float | None = None
    tremble: float = 0.05
    male_share: float = 0.5
    age_range: tuple[int, int] = (18, 70)
    framing_shift: float = 0.0

    def __post_init__(self) -> None:
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for t, n in self.counts.items():
            if not isinstance(t, Treatment):
                raise ValueError(f"counts key {t!r} is not a Treatment")
            if not _is_integer(n):
                raise ValueError(f"counts must be integers, got {n!r} for {t.value}")
            if n < 0:
                raise ValueError("counts must be nonnegative")
        for name in ("alpha_location", "alpha_scale", "alpha_tediousness_link",
                     "gamma_location", "gamma_scale", "gamma_male_shift", "framing_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha_scale < 0 or self.gamma_scale < 0:
            raise ValueError("distribution scales must be nonnegative")
        lo, hi = self.gamma_bounds
        if not (1.0 <= lo <= hi and math.isfinite(lo)):
            raise ValueError("gamma_bounds must satisfy 1 <= lo <= hi with a finite lo")
        if not 0.0 <= self.tremble <= 1.0:
            raise ValueError("tremble is a probability")
        if not 0.0 <= self.male_share <= 1.0:
            raise ValueError("male_share is a probability")
        if not all(map(_is_integer, self.age_range)):
            raise ValueError(f"age_range bounds must be integers, got {self.age_range!r}")
        if not 0 <= self.age_range[0] <= self.age_range[1] < 2**63:
            raise ValueError("age_range must be a nonnegative (lo, hi) pair below 2**63")
        if self.rho is not None and (self.rho == 0 or not math.isfinite(self.rho)):
            raise ValueError("rho must be nonzero and finite when set")


def _accept_codes(wages: Sequence[np.ndarray], uniforms: np.ndarray | None, tremble: float) -> np.ndarray:
    """Accept codes of a block of subjects, one row per subject, one column per scenario.

    wages holds each scenario's continuous wages and uniforms each
    subject's 2 x N_ROWS tremble draws (None when tremble is 0). Bit i of a
    code is set iff row i is accepted: the suffix from the wage's row,
    with the rows whose draw falls below tremble flipped.
    """
    codes = SUFFIX_CODE[snap_rows(np.stack(wages, axis=1))]
    if uniforms is not None:
        codes ^= (uniforms < tremble) @ _ROW_BITS
    return codes


def simulate_subject(
    rng: np.random.Generator,
    agent: Agent,
    treatment: Treatment,
    covariates: Covariates,
    *,
    subject_id: str = "",
    tremble: float = 0.0,
) -> SubjectRecord:
    """Run one agent through both scenarios of one treatment.

    The rng is consumed only for tremble draws (N_ROWS per scenario, drawn
    only when tremble > 0), keeping streams aligned across runs that
    differ only in the tremble rate being zero or absent.
    """
    uniforms = rng.random((1, 2, N_ROWS)) if tremble > 0.0 else None
    cells = [(treatment_spec(treatment, scenario), 1) for scenario in Scenario]
    try:
        wages = population_wages(agent.model, (agent.mode,), np.zeros(1, np.intp), agent.framing_shift, cells)
    except NoIndifference as exc:
        raise NoIndifference(f"{exc}, subject {subject_id}", exc.index, exc.spec) from None
    outcomes = _outcomes(_accept_codes(wages, uniforms, tremble)[0] | _ROW_SCENARIO << N_ROWS)
    return SubjectRecord(subject_id, treatment, tuple(outcomes), covariates)


def subject_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-subject stream keyed by (master seed, index).

    The key deliberately omits the treatment so subject j shares one
    parameter draw across all treatments. simulate_dataset seeds and
    steps the same streams in bulk, as uint64 columns, and sets a
    generator to one of them only for a subject that leaves the fast path
    (see _stream_states and _bulk_draws).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
# uint64 operands of the column arithmetic: the multiplier's words and the
# low word's 32-bit limbs, shift counts and masks
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_LIMB0, _MULT_LIMB1 = np.uint64(_PCG64_MULT & _MASK32), np.uint64(_PCG64_MULT >> 32 & _MASK32)
_U32, _U64_MASK32 = np.uint64(32), np.uint64(_MASK32)
_RANDOM_SHIFT, _RANDOM_SCALE = np.uint64(11), 2.0**-53  # next_double: the top 53 bits
_ZIG_LAYER, _ZIG_MAG = np.uint64(0xFF), np.uint64((1 << 52) - 1)
_ZIG_SIGN_SHIFT, _ZIG_MAG_SHIFT = np.uint64(8), np.uint64(9)


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: little-endian 32-bit words, [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _lcg_step(state: tuple[np.ndarray, np.ndarray], inc: tuple[np.ndarray, np.ndarray]) -> tuple:
    """state * MULT + inc mod 2**128, on (high, low) uint64 word columns.

    uint64 array arithmetic wraps, which gives every product's low word.
    The high word of low * MULT_LO comes from its 32-bit limb products.
    """
    hi, lo = state
    inc_hi, inc_lo = inc
    lo0, lo1 = lo & _U64_MASK32, lo >> _U32
    cross0, cross1 = lo0 * _MULT_LIMB1, lo1 * _MULT_LIMB0
    mid = (lo0 * _MULT_LIMB0 >> _U32) + (cross0 & _U64_MASK32) + (cross1 & _U64_MASK32)
    carry = lo1 * _MULT_LIMB1 + (cross0 >> _U32) + (cross1 >> _U32) + (mid >> _U32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry + hi * _MULT_LO + lo * _MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _next_uint64(state: tuple[np.ndarray, np.ndarray], inc: tuple[np.ndarray, np.ndarray]) -> tuple:
    """PCG64's next state and its XSL-RR output, rotr64(hi ^ lo, hi >> 58)."""
    state = _lcg_step(state, inc)
    hi, lo = state
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return state, x >> rot | x << (np.uint64(64) - rot & np.uint64(63))


def _stream_states(seed: int, count: int) -> tuple:
    """PCG64's (state, inc) of subject_stream(seed, j) for every j < count.

    Each is a (high, low) pair of uint64 columns with one row per subject.
    SeedSequence((seed, j)) hashes the 32-bit words of seed, then the one
    word of j (j < 2**32), into a pool of four words, mixing in words
    beyond the fourth afterwards; generate_state(4, uint64) hashes the
    pool again. Every step is uint32 arithmetic on a hash constant that
    does not depend on the data, so it runs on a column per word. PCG64
    then seeds its 128-bit LCG with inc = (initseq << 1) | 1 and one step
    from initstate + inc.
    """
    entropy = [np.full(count, w, dtype=np.uint32) for w in _words(seed)]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # little-endian pairs of words make the four uint64s: initstate high, low, initseq high, low
    state_hi, state_lo, seq_hi, seq_lo = (words[2 * k] | words[2 * k + 1] << _U32 for k in range(4))
    inc = (seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1))
    start_lo = state_lo + inc[1]
    start = (state_hi + inc[0] + (start_lo < inc[1]), start_lo)
    return _lcg_step(start, inc), inc


def _pcg64_state(state: tuple, inc: tuple, j: int) -> dict:
    """Row j of (state, inc) word columns as a PCG64 state dict."""
    hi, lo, inc_hi, inc_lo = (int(column[j]) for column in (*state, *inc))
    return {
        "bit_generator": "PCG64",
        "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _subject_draws(spec: PopulationSpec, rng: np.random.Generator) -> tuple:
    # draw order is part of the determinism contract: male, age,
    # tediousness, alpha shock, gamma quantile, then the mode draw
    # (MixtureComposition only)
    draws = (
        rng.random(),
        int(rng.integers(spec.age_range[0], spec.age_range[1] + 1)),
        int(rng.integers(1, _TEDIOUSNESS_WIDTH + 1)),
        rng.standard_normal(),
        rng.random(),
    )
    if isinstance(spec.composition, MixtureComposition):
        return draws + (rng.random(),)
    return draws


def _uniform(output: np.ndarray) -> np.ndarray:
    """rng.random() from each PCG64 output."""
    return (output >> _RANDOM_SHIFT) * _RANDOM_SCALE


def _bounded(output: np.ndarray, lo: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded integer in [lo, lo + width) from 32-bit outputs, and where numpy would redraw."""
    scaled = output * np.uint64(width)
    rejected = scaled & _U64_MASK32 < np.uint64((2**32 - width) % width)
    return (scaled >> _U32).astype(np.int64) + lo, rejected


def _draw_columns(spec: PopulationSpec, outputs: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """_subject_draws' columns from each subject's first PCG64 outputs, and which subjects they miss.

    outputs holds one column per output: male, then the two integers, fed
    through PCG64's 32-bit buffer (age from the low half, tediousness from
    the high half), the normal, the gamma uniform and, for mixtures, the
    mode uniform. A subject is slow, and its columns are not its draws,
    wherever numpy would take another output: a rejected integer or a
    normal outside the ziggurat's fast path. Every subject is slow when
    numpy would not draw the age from one 32-bit half: for a one-value
    or at least 2**32-wide age range.
    """
    u_male, u_ints, u_normal, *u_rest = outputs
    lo, hi = map(int, spec.age_range)  # Python ints, so that a numpy bound cannot overflow the width
    width = hi - lo + 1
    if 2 <= width < 2**32:
        age, slow = _bounded(u_ints & _U64_MASK32, lo, width)
    else:
        age, slow = np.zeros(len(u_ints), np.int64), np.ones(len(u_ints), bool)
    tediousness, rejected = _bounded(u_ints >> _U32, 1, _TEDIOUSNESS_WIDTH)
    layer = u_normal & _ZIG_LAYER
    magnitude = u_normal >> _ZIG_MAG_SHIFT & _ZIG_MAG
    z_alpha = magnitude * WI_DOUBLE[layer]
    z_alpha = np.where(u_normal >> _ZIG_SIGN_SHIFT & np.uint64(1), -z_alpha, z_alpha)
    slow |= rejected | (magnitude >= KI_DOUBLE[layer])
    return [_uniform(u_male), age, tediousness, z_alpha, *map(_uniform, u_rest)], slow


def _bulk_draws(spec: PopulationSpec, count: int) -> tuple[list[np.ndarray], np.ndarray | None]:
    """_subject_draws' columns for subjects 0..count-1, and their (count, 2, N_ROWS) tremble draws.

    The tremble draws are None when tremble is 0. Each stream steps once
    per draw, and each step's output goes straight to its column; the
    subjects that _draw_columns marks slow are then redrawn one at a time.
    """
    start, inc = _stream_states(spec.seed, count)
    state, outputs = start, []
    for _ in range(5 if isinstance(spec.composition, MixtureComposition) else 4):
        state, output = _next_uint64(state, inc)
        outputs.append(output)
    columns, slow = _draw_columns(spec, outputs)
    trembles = np.empty((count, 2, N_ROWS)) if spec.tremble > 0.0 else None
    if trembles is not None:
        flat = trembles.reshape(count, 2 * N_ROWS)
        for k in range(2 * N_ROWS):
            state, output = _next_uint64(state, inc)
            flat[:, k] = _uniform(output)
    rng = np.random.Generator(np.random.PCG64(0))
    for j in np.flatnonzero(slow).tolist():
        rng.bit_generator.state = _pcg64_state(start, inc, j)
        for column, draw in zip(columns, _subject_draws(spec, rng)):
            column[j] = draw
        if trembles is not None:
            rng.random(out=trembles[j])
    return columns, trembles


def _truncated_normal(
    u: np.ndarray, locs: np.ndarray, index: np.ndarray, scale: float, lo: float, hi: float
) -> np.ndarray:
    """Normals truncated to [lo, hi] by inversion of the uniforms u; draw j is centred at locs[index[j]].

    The bounds' CDFs are evaluated once per location, not once per draw.
    Where lo lies above a location, the CDF rounds to 1 in the tail, so
    that location's draws invert the survival function instead: the
    normal reflected about the location, with the bounds reflected too.
    Where both bounds lie on one side of a location and a draw's
    p = a + u (b - a) is below _FAR_TAIL, as it is from about 36.2 sd
    into that tail, a bound's value that is subnormal or flushed to 0
    can be off by more than a float's precision of p, and the draw
    inverts in log space instead (see _far_tail_inverse). Above the
    location that is the survival function; below it, the CDF: the
    survival function at the reflected bounds, so that z lies in
    [-beta, -alpha].
    """
    loc = locs[index]
    if scale == 0.0:
        return np.minimum(np.maximum(loc, lo), hi)
    sign = np.where(lo > locs, -1.0, 1.0)  # products by 1.0 keep the CDF inversion's bits
    a = ndtr(sign * (lo - locs) / scale)
    b = ndtr(sign * (hi - locs) / scale)
    p = a[index] + u * (b[index] - a[index])
    x = loc + (sign * scale)[index] * ndtri(p)
    far = p < _FAR_TAIL
    upper, lower = far & (lo > locs)[index], far & (hi < locs)[index]
    if upper.any():
        x[upper] = loc[upper] + scale * _far_tail_inverse(u[upper], (lo - loc[upper]) / scale, (hi - loc[upper]) / scale)
    if lower.any():
        x[lower] = loc[lower] - scale * _far_tail_inverse(u[lower], (loc[lower] - lo) / scale, (loc[lower] - hi) / scale)
    return np.minimum(np.maximum(x, lo), hi)


_FAR_TAIL = np.finfo(float).tiny / np.finfo(float).eps  # about 1e-292
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_NEWTON_MAX_STEPS = 50


def _far_tail_inverse(u: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The standard normal z between alpha and beta with survival Sf(alpha) - u (Sf(alpha) - Sf(beta)), from log_ndtr.

    For draws so far in the upper tail that the bounds' survival values
    lose digits to underflow; either bound may be the larger. The target log-survival is
    the log of (1 - u) Sf(alpha) + u Sf(beta), from the bounds'
    log-survival values by logaddexp, which keeps its digits at either
    end of u. Newton's method on log Sf, which is concave and decreasing,
    starts at the lower bound: its first step overshoots the root, and
    every later step moves back towards it without passing it. It stops
    once every step is below four float epsilons of z.
    """
    la, lb = log_ndtr(-alpha), log_ndtr(-beta)
    with np.errstate(divide="ignore"):  # log(0) at u = 0
        target = np.logaddexp(la + np.log1p(-u), lb + np.log(u))
    z = np.minimum(alpha, beta)
    for _ in range(_NEWTON_MAX_STEPS):
        log_sf = log_ndtr(-z)
        # Sf(z) / pdf(z): the reciprocal of the slope of -log Sf, about 1 / z out here
        step = (log_sf - target) * np.exp(log_sf + 0.5 * z * z + _HALF_LOG_2PI)
        z = z + step
        if (np.abs(step) <= 4.0 * np.finfo(float).eps * z).all():
            break
    return z


@dataclass(frozen=True, eq=False)
class _Population:
    """Subjects' parameters as columns, one row per subject index."""

    covariates: tuple[np.ndarray, np.ndarray, np.ndarray]  # male, age, tediousness
    alpha: np.ndarray
    gamma: np.ndarray
    modes: tuple
    mode_index: np.ndarray


def _population(spec: PopulationSpec, columns: Sequence[np.ndarray]) -> _Population:
    """Covariates, preference parameters and bracketing modes from columns of _subject_draws."""
    u_male, age, tediousness, z_alpha, u_gamma, *u_mode = columns
    male = u_male < spec.male_share
    alpha = np.exp(
        spec.alpha_location
        + spec.alpha_tediousness_link * (tediousness - _TEDIOUSNESS_CENTER)
        + spec.alpha_scale * z_alpha
    )
    gamma_locs = spec.gamma_location + np.array([0.0, spec.gamma_male_shift])  # women's, men's
    gamma = _truncated_normal(u_gamma, gamma_locs, male.astype(np.intp), spec.gamma_scale, *spec.gamma_bounds)
    if isinstance(spec.composition, MixtureComposition):
        modes = (Broad(), Narrow())
        mode_index = (u_mode[0] < spec.composition.narrow_share).astype(np.intp)
    else:
        modes = (ConvexKappa(spec.composition.kappa),)
        mode_index = np.zeros(len(u_male), dtype=np.intp)
    return _Population((male, age, tediousness), alpha, gamma, modes, mode_index)


def _member_model(spec: PopulationSpec, alpha: float | np.ndarray, gamma: float | np.ndarray) -> UtilityModel:
    if spec.rho is None:
        return QuasiLinearPowerCost(alpha=alpha, gamma=gamma)
    return CaraMoneyPowerCost(rho=spec.rho, alpha=alpha, gamma=gamma)


def _plain(value):
    """value with numpy scalars as Python ones, in tuples and compositions too."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, (MixtureComposition, KappaComposition)):
        return type(value)(*(_plain(getattr(value, f.name)) for f in fields(value)))
    return value


def population_digest(spec: PopulationSpec) -> str:
    """Short hash of every field: counts sorted by arm name, then the rest in declaration order.

    A new field, or a reordered one, changes every digest. Numpy scalars
    enter as their Python values, so equal specs digest alike.
    """
    counts = sorted((t.value, _plain(n)) for t, n in spec.counts.items())
    payload = repr((counts,) + tuple(_plain(getattr(spec, f.name)) for f in fields(spec)[1:]))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def simulate_dataset(spec: PopulationSpec, workers: int = 1) -> Dataset:
    """Simulate every subject in the population specification.

    Deterministic for a fixed seed; records are ordered by treatment
    (declaration order), then subject index. Subject j is drawn once from
    subject_stream(seed, j), in the documented order followed by its
    tremble draws, and those draws serve every treatment. Every stream is
    seeded and stepped as uint64 columns, one step per draw, and each
    step's output is decoded with numpy as _subject_draws and the tremble
    draws would decode it. The few subjects whose draws leave that fast
    path (see _draw_columns) are redrawn one at a time from their own
    streams. The subjects' parameters stay in columns, and every cell's
    reservation wages come from one call to population_wages. workers is
    kept for compatibility: it must be at least 1 and has no effect on
    the output or the speed.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    digest = population_digest(spec)
    count = max(spec.counts.values(), default=0)
    if not count:
        return Dataset((), seed=spec.seed, spec_digest=digest)
    columns, trembles = _bulk_draws(spec, count)
    population = _population(spec, columns)
    arms = [(t, spec.counts[t]) for t in Treatment if spec.counts.get(t, 0)]
    cells = [(treatment_spec(t, s), n) for t, n in arms for s in Scenario]
    model = _member_model(spec, population.alpha, population.gamma)  # a stack, one member per subject index
    try:
        wages = population_wages(model, population.modes, population.mode_index, spec.framing_shift, cells)
    except NoIndifference as exc:
        subject = f"{exc.spec.treatment.value}-{exc.index:04d}"
        raise NoIndifference(f"{exc}, subject {subject}", exc.index, exc.spec) from None
    suffixes = [f"-{j:04d}" for j in range(count)]
    subject_ids, codes = [], []
    for k, (treatment, n) in enumerate(arms):
        subject_ids += map(treatment.value.__add__, suffixes[:n])
        codes.append(_accept_codes(wages[2 * k : 2 * k + 2], None if trembles is None else trembles[:n], spec.tremble))
    keys = np.concatenate(codes) | _ROW_SCENARIO << N_ROWS
    treatment = np.repeat([_TREATMENT_CODE[t] for t, _ in arms], [n for _, n in arms])
    covariates = [np.concatenate([column[:n] for _, n in arms]) for column in population.covariates]
    offsets = np.arange(0, 2 * len(subject_ids) + 1, 2)  # both scenarios of every subject
    return Dataset._from_columns(
        subject_ids, treatment, covariates, offsets, keys.ravel(), seed=spec.seed, spec_digest=digest
    )


def iter_observations(
    dataset: Dataset, drop_inconsistent: bool = True
) -> Iterator[tuple[SubjectRecord, ScenarioOutcome]]:
    """Yield (record, scenario outcome) rows, filtering inconsistent ones."""
    for record in dataset.records:
        for outcome in record.outcomes:
            if drop_inconsistent and not outcome.consistent:
                continue
            yield record, outcome


CSV_COLUMNS = (
    ("subject_id", "treatment", "scenario")
    + tuple(f"c{i:02d}" for i in range(1, N_ROWS + 1))
    + ("res_wage", "censored", "consistent", "gender", "age", "tediousness")
)
_HEADER = ",".join(CSV_COLUMNS) + "\n"


_WRITE_CHUNK = 1 << 12  # lines, about 0.3 MB of text
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # every line boundary of str.splitlines
_NOT_IN_IDS = "," + _LINE_BREAKS  # each would end a subject_id's field or line early


class DataFormatError(Exception):
    """A data file does not match the expected CSV schema."""


def write_csv(dataset: Dataset, path: str) -> None:
    """One row per subject x scenario; money as two-decimal strings.

    Rendered from the dataset's columns: each distinct row key and each
    distinct (male, age, tediousness) value is rendered once per call, and
    each subject's subject_id,treatment head once per chunk it has rows
    in. Rows are joined from these texts and written in chunks of
    _WRITE_CHUNK lines, each chunk's texts gathered for it alone, so the
    text of the whole file is never held at once. A subject_id may hold
    no comma and no line boundary of str.splitlines, which read_csv could
    not read back: write_csv raises ValueError naming the first such
    subject before it opens the file.
    """
    ids = "".join(dataset._subject_ids)
    if any(c in ids for c in _NOT_IN_IDS):
        sid = next(sid for sid in dataset._subject_ids if any(c in sid for c in _NOT_IN_IDS))
        raise ValueError(f"subject_id {sid!r} holds a comma or a line break, which a CSV row cannot hold")
    arms = [t.value for t in Treatment]
    keys, slots = np.unique(dataset._keys, return_inverse=True)
    outcomes = [f"{text}," for text in map(_outcome_text, keys.tolist())]
    values, people = dataset._distinct_covariates()
    tails = [
        f"{'male' if male else 'female'},{age},{tediousness}\n"
        for male, age, tediousness in zip(*(column.tolist() for column in values))
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_HEADER)
        for a in range(0, len(slots), _WRITE_CHUNK):
            row = np.arange(a, min(a + _WRITE_CHUNK, len(slots)))
            subject = np.searchsorted(dataset._offsets, row, side="right") - 1
            first, last = subject[0], subject[-1] + 1
            treatment = dataset._treatment[first:last].tolist()
            heads = [f"{sid},{arms[t]}," for sid, t in zip(dataset._subject_ids[first:last], treatment)]
            parts = zip(_gather(heads, subject - first), _gather(outcomes, slots[row]), _gather(tails, people[subject]))
            fh.write("".join(itertools.chain.from_iterable(parts)))  # no string per row


def _parse_row(line_no: int, cells: list[str]) -> tuple[int, int, tuple[bool, int, int]]:
    """A row's key, treatment code and (male, age, tediousness) value, once every cell of the row has
    passed its check, in column order."""
    if len(cells) != len(CSV_COLUMNS):
        raise DataFormatError(f"line {line_no}: expected {len(CSV_COLUMNS)} fields, got {len(cells)}")
    try:
        treatment = Treatment(cells[1])
        scenario = Scenario(cells[2])
        code = _accept_code([_parse_flag(c) for c in cells[3 : 3 + N_ROWS]])
        res_wage = float(cells[3 + N_ROWS])
        censored = _parse_flag(cells[4 + N_ROWS])
        consistent = _parse_flag(cells[5 + N_ROWS])
        person = _parse_covariates(*cells[6 + N_ROWS :])
        _check_fields(code, res_wage, censored, consistent)
        return _SCENARIO_CODE[scenario] << N_ROWS | code, _TREATMENT_CODE[treatment], person
    except ValueError as exc:
        raise DataFormatError(f"line {line_no}: {exc}") from exc


def _parse_covariates(gender: str, age: str, tediousness: str) -> tuple[bool, int, int]:
    """The (male, age, tediousness) value of the covariate cells, checked as Covariates checks it."""
    if gender not in ("male", "female"):
        raise ValueError(f"gender must be male or female, got {gender!r}")
    value = (gender == "male", int(age), int(tediousness))
    _check_covariates(*value)
    return value


def _parse_flag(cell: str) -> bool:
    if cell == "1":
        return True
    if cell == "0":
        return False
    raise ValueError(f"expected 0 or 1, got {cell!r}")


# The columnar reader, _read_columns. A canonical line is subject_id,treatment,outcome text,covariate text\n.
_NEWLINE, _COMMA, _ONE = b"\n,1"
_OUTCOME_WIDTH = len(_outcome_text(0))  # every key's text has this width; checked as each is rendered
_OUTCOME_WORDS = -(-_OUTCOME_WIDTH // 8)
_CHOICE_AT = _outcome_text(0).index(",") + 1 + 2 * np.arange(N_ROWS)  # each choice cell's offset in the text
_SCENARIO_WORDS = [(int.from_bytes(name.encode(), "little"), (1 << 8 * len(name)) - 1) for name in _SCENARIO_NAMES]
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the low k bytes of a word
# A row's signature: the length and words of its subject_id, treatment and covariate texts. A text
# longer than its words sends the file to the loop; it holds no NUL, so its words decode back to it.
_FIELD_WORDS = (4, 1, 2)
_FIELD_AT = np.cumsum((0,) + tuple(1 + k for k in _FIELD_WORDS))  # each field's length column
_HEAD_WORDS = -(-(8 * sum(_FIELD_WORDS[:2]) + 2) // 8)  # a line's words that hold its first two commas
_PAD = 8 * max(_HEAD_WORDS, _OUTCOME_WORDS, *_FIELD_WORDS)  # bytes a block's last line may read past its end
_READ_BLOCK = 1 << 18  # characters per block: its temporaries, at most about 2 MB, are freed before the next
_DECODE_ROWS = 1 << 12  # rows _decoded turns into bytes objects at once


def _words_at(words: np.ndarray, start: np.ndarray, count: int) -> np.ndarray:
    """count little-endian words from each byte offset in start, from an overlapping view of a block."""
    return words[start[:, None] + 8 * np.arange(count)]


def _masked(field: np.ndarray, length) -> np.ndarray:
    """field, rows of words, with the bytes past each row's length zeroed in place."""
    shift = np.subtract.outer(length, 8 * np.arange(field.shape[1]))
    field &= _WORD_MASKS[np.clip(shift, 0, 8, out=shift)]
    return field


def _decoded(words: np.ndarray) -> list[str]:
    """The text of each row of NUL-padded little-endian words (a contiguous last axis), viewed in place
    as strings and decoded _DECODE_ROWS at a time, so that only that many bytes objects exist at once."""
    texts = [None] * len(words)
    strings = words.view(f"S{8 * words.shape[1]}")[:, 0]
    for a in range(0, len(texts), _DECODE_ROWS):
        texts[a : a + _DECODE_ROWS] = map(bytes.decode, strings[a : a + _DECODE_ROWS].tolist())
    return texts


def _subject_columns(subjects: np.ndarray) -> tuple[list[str], np.ndarray, list[np.ndarray]] | None:
    """Each subject's id, treatment code and covariate columns from the subjects' signatures, each
    distinct treatment and covariate text parsed once; None if one fails to parse.

    Texts are grouped by their words alone: a field holds no NUL and its
    words are zeroed past its length, so its words fix its text.
    """
    fields = []
    for at, end in zip(_FIELD_AT[1:], _FIELD_AT[2:]):
        words = subjects[:, at + 1 : end]
        first, index = _distinct_rows(list(words.T))
        fields.append((_decoded(words[first]), index))
    (arm_texts, arm_index), (person_texts, person_index) = fields
    if any(text.count(",") != 2 for text in person_texts):  # other cell counts: the loop's field count error
        return None
    try:
        arms = np.array([_TREATMENT_CODE[Treatment(t)] for t in arm_texts], np.int8)[arm_index]
        values = [_parse_covariates(*t.split(",")) for t in person_texts]
    except ValueError:
        return None
    people = [np.array(column)[person_index] for column in zip(*values)]
    return _decoded(subjects[:, 1 : _FIELD_AT[1]]), arms, people


def _read_columns(text: str) -> Dataset | None:
    """The dataset of a text in write_csv's canonical form, read as 8-byte words; None at the first doubt.

    The text must be ASCII with no NUL, contain no line boundary of
    str.splitlines but \\n, start with the header line, hold a row and end
    with \\n. It is read in blocks of about _READ_BLOCK characters, each cut
    after a newline. Fields are read as little-endian words through an
    overlapping uint64 view of the block's bytes. In a block, np.flatnonzero
    finds the newlines, and each line's first two commas are found in its
    first words; they end the subject_id and the treatment, and the outcome
    text follows at its fixed width, then a comma and the covariate text.
    A row's key comes from its scenario and choice bytes, and the row is
    kept only if its outcome words equal those of _outcome_text of that
    key, rendered once per distinct key. A subject starts where the
    (length, words) of the subject_id change, and its rows must repeat its
    treatment and covariate words. Each distinct treatment and covariate
    text is parsed once, by Treatment and _parse_covariates. Anything else,
    a field longer than its words, or a ValueError from Dataset._fill
    returns None. Never raises.

    No block's output outlives the block: each writes its slice of arrays
    sized from the line count (each row's key, and each subject's first row
    and signature), and the subjects are grouped and decoded after the last
    block. glibc's mmap threshold rises to the largest block freed, the
    text, so smaller arrays come from the heap, where a freed one stays
    resident below a longer-lived one: outputs kept per block would leave
    such holes between the blocks' temporaries.
    """
    if not (text.isascii() and text.startswith(_HEADER) and text.endswith("\n") and len(text) > len(_HEADER)):
        return None
    if any(other in text for other in "\0" + _LINE_BREAKS[1:]):
        return None
    rows = text.count("\n", len(_HEADER))
    keys = np.empty(rows, np.int32)
    offsets = np.empty(rows + 1, np.intp)  # each subject's first row; at most one subject per row
    subjects = np.empty((rows, _FIELD_AT[-1]), "<u8")  # each subject's signature
    key_row = np.full(len(_SCENARIOS) << N_ROWS, -1, np.int32)  # each row key's row in canonical
    canonical = np.empty((0, _OUTCOME_WORDS), np.uint64)
    row = subject = 0
    a = len(_HEADER)
    while a < len(text):
        b = text.rfind("\n", a, a + _READ_BLOCK) + 1 or text.find("\n", a + _READ_BLOCK) + 1
        n = b - a
        raw = text[a : b + _PAD].encode("ascii")
        raw += bytes(n + _PAD - len(raw))  # past the end of the text
        body = np.frombuffer(raw, np.uint8, n)
        words = np.ndarray((n + _PAD - 7,), "<u8", raw, strides=(1,))
        ends = np.flatnonzero(body == _NEWLINE)
        starts = np.concatenate(([0], ends[:-1] + 1))
        # each line's first two commas, searched in its first words: they end the subject_id and the treatment
        is_comma = _words_at(words, starts, _HEAD_WORDS).view(np.uint8) == _COMMA
        line, commas = np.arange(len(ends)), []
        for _ in range(2):
            at = is_comma.argmax(axis=1)
            if not is_comma[line, at].all():
                return None
            is_comma[line, at] = False
            commas.append(starts + at)
        cut, arm_end = commas
        del is_comma  # each temporary goes once used, so that a block's peak stays low
        outcome = arm_end + 1
        tail = outcome + _OUTCOME_WIDTH
        if not (tail < ends).all() or (body[tail] != _COMMA).any():
            return None

        # each row's key, kept only if the row spells the key's canonical text
        outcome_words = _masked(_words_at(words, outcome, _OUTCOME_WORDS), _OUTCOME_WIDTH)
        scenario = np.zeros(len(ends), np.int64)
        for code, (word, mask) in enumerate(_SCENARIO_WORDS):
            scenario[outcome_words[:, 0] & np.uint64(mask) == word] = code
        choices = outcome_words.view(np.uint8)[:, _CHOICE_AT] == _ONE
        row_keys = scenario << N_ROWS | np.packbits(choices, bitorder="little").view("<u2")
        unseen = np.sort(row_keys[key_row[row_keys] < 0])
        fresh = unseen[np.diff(unseen, prepend=-1) != 0]  # not np.unique, which imports numpy.ma on numpy 2.4
        if fresh.size:
            texts = list(map(_outcome_text, fresh.tolist()))
            if set(map(len, texts)) != {_OUTCOME_WIDTH}:
                return None
            table = np.zeros((len(texts), 8 * _OUTCOME_WORDS), np.uint8)
            table[:, :_OUTCOME_WIDTH] = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(len(texts), -1)
            key_row[fresh] = np.arange(len(canonical), len(canonical) + len(texts))
            canonical = np.concatenate([canonical, table.view("<u8")])
        if (outcome_words != canonical[key_row[row_keys]]).any():
            return None
        keys[row : row + len(ends)] = row_keys
        del outcome_words, choices

        # a subject starts where the subject_id changes, and no other field of the row may; the last row
        # spells the last subject's signature
        signatures = np.empty((len(ends) + 1, _FIELD_AT[-1]), "<u8")
        signatures[0] = subjects[subject - 1] if subject else 2**64 - 1  # no row has these lengths
        for at, count, start, end in zip(_FIELD_AT, _FIELD_WORDS, (starts, cut + 1, tail + 1), (cut, arm_end, ends)):
            length = end - start
            used = -(-int(length.max()) // 8)  # the block's words of this field; its other words are 0
            if used > count:
                return None
            signatures[1:, at] = length
            signatures[1:, at + 1 : at + 1 + used] = _masked(_words_at(words, start, used), length)
            signatures[1:, at + 1 + used : at + 1 + count] = 0
        changed = signatures[1:] != signatures[:-1]
        new = changed[:, : _FIELD_AT[1]].any(axis=1)
        if (changed[:, _FIELD_AT[1] :].any(axis=1) & ~new).any():
            return None
        heads = np.flatnonzero(new)
        offsets[subject : subject + len(heads)] = row + heads
        subjects[subject : subject + len(heads)] = signatures[1 + heads]
        subject += len(heads)
        row += len(ends)
        a = b

    del key_row, canonical  # the loop's tables go before the subjects are grouped
    offsets[subject] = rows
    columns = _subject_columns(subjects[:subject])
    del subjects  # before the dataset's columns are checked
    try:
        return None if columns is None else Dataset._from_columns(*columns, offsets[: subject + 1], keys)
    except ValueError:
        return None


def read_csv(path: str) -> Dataset:
    """Parse a dataset CSV into a Dataset's columns; inverse of write_csv.

    The file must be UTF-8 text; a leading byte-order mark is dropped.
    Blank lines are skipped; error messages name physical line numbers.
    Adjacent rows with one subject_id form one subject.

    A file in the form write_csv writes is read by _read_columns: ASCII
    text with lines ended by \\n alone and no blank line, every outcome text
    (scenario through consistent) as write_csv renders it, subject_ids of
    at most 32 characters and no NUL, and each subject's rows spelling one
    treatment and one covariate text. It reads the text in blocks of
    _READ_BLOCK characters (256 KB), comparing fields as 8-byte words, so
    a block's temporaries stay below about 2 MB whatever the file's size,
    and its peak memory below the loop's; no block's output outlives the
    block, so none pins a hole in the heap. Any other file, and any such
    file that fails a check, is read by _read_lines, the per-line loop,
    which alone raises DataFormatError: every check and every message,
    with its line number, is the loop's, and both give equal datasets.
    The loop checks every row whole and caches nothing, at about 7 µs a
    row, several times the columnar reader's cost. Neither builds a
    ScenarioOutcome, SubjectRecord or Covariates for a file in
    write_csv's form.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # not the utf-8-sig codec, which counts error offsets from after the mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text: byte {exc.start} ({exc.reason})") from exc
    dataset = _read_columns(text)
    if dataset is not None:
        return dataset
    lines = text.removeprefix("\ufeff").splitlines()
    del text  # the loop holds the lines alone
    return _read_lines(lines)


def _read_lines(lines: list[str]) -> Dataset:
    """The per-line reader of read_csv, over the decoded text's lines (a leading byte-order mark
    dropped): it validates every row and raises every DataFormatError.

    Every non-blank row after the header is checked whole by _parse_row. A
    subject starts where the subject_id changes, and its later rows must
    repeat its treatment and covariate values.
    """
    header_no = next((no for no, ln in enumerate(lines, 1) if ln), None)
    if header_no is None:
        raise DataFormatError("empty file")
    if lines[header_no - 1].split(",") != list(CSV_COLUMNS):
        raise DataFormatError(f"line {header_no}: bad header, expected {','.join(CSV_COLUMNS)}")

    subject_ids, arms, people, offsets, keys = [], [], [], [], []
    sid = None
    for line_no, line in enumerate(lines[header_no:], header_no + 1):
        if not line:
            continue
        cells = line.split(",")
        key, arm, person = _parse_row(line_no, cells)
        if cells[0] != sid:
            sid = cells[0]
            subject_ids.append(sid)
            arms.append(arm)
            people.append(person)
            offsets.append(len(keys))
        elif (arm, person) != (arms[-1], people[-1]):
            raise DataFormatError(f"line {line_no}: subject {sid} changes treatment or covariates")
        keys.append(key)
    offsets.append(len(keys))
    covariates = list(zip(*people)) or ((), (), ())
    try:
        return Dataset._from_columns(subject_ids, arms, covariates, offsets, keys)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
