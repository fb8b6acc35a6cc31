"""Simulated price-list sessions over heterogeneous populations.

Each synthetic subject draws covariates and preference parameters from
a population specification, goes through both scenarios of one
treatment, and leaves a 16-row accept/reject record per scenario. The
random stream for subject j is derived from (master seed, j) alone, so
subject j faces the same preference draw in every treatment (common
random numbers). The simulator seeds every subject's stream in one
array pass, draws each subject index once into columns, reuses those
draws in every treatment, and solves the reservation wages of all
(treatment, scenario) cells with one array bisection.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .agents import (
    Agent,
    Broad,
    CENSOR_CODE,
    ConvexKappa,
    Narrow,
    NoIndifference,
    population_wages,
    snap_rows,
)
from .design import Scenario, Treatment, price_list, treatment_spec
from .preferences import CaraMoneyPowerCost, QuasiLinearPowerCost, UtilityModel, _stack_columns

__all__ = [
    "Covariates",
    "ScenarioOutcome",
    "SubjectRecord",
    "Dataset",
    "Observations",
    "MixtureComposition",
    "KappaComposition",
    "PopulationSpec",
    "classify_consistency",
    "simulate_subject",
    "simulate_dataset",
    "subject_stream",
    "iter_observations",
    "write_csv",
    "read_csv",
    "DataFormatError",
    "CSV_COLUMNS",
]

N_ROWS = 16

_TEDIOUSNESS_CENTER = 5.5  # midpoint of the 1..10 scale


@dataclass(frozen=True)
class Covariates:
    male: bool
    age: int
    tediousness: int

    def __post_init__(self) -> None:
        if not 1 <= self.tediousness <= 10:
            raise ValueError("tediousness is a 1..10 scale")
        if self.age < 0:
            raise ValueError("age must be nonnegative")


@dataclass(frozen=True)
class ScenarioOutcome:
    """One price list worth of behavior from one subject."""

    scenario: Scenario
    choices: tuple[bool, ...]
    res_wage: float
    censored: bool
    consistent: bool

    def __post_init__(self) -> None:
        if len(self.choices) != N_ROWS:
            raise ValueError(f"expected {N_ROWS} choices, got {len(self.choices)}")
        if self.consistent and any(self.choices[i] and not self.choices[i + 1] for i in range(N_ROWS - 1)):
            raise ValueError("consistent record with non-monotone choices")
        # every row, consistent or not, records its smallest accepted wage
        expected = _switch_wage(self.choices)
        if not abs(self.res_wage - expected) <= 1e-9:
            raise ValueError(f"res_wage {self.res_wage} does not match switch point {expected}")
        if self.censored != (not any(self.choices)):
            raise ValueError("censored flag contradicts the choice rows")


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    treatment: Treatment
    outcomes: tuple[ScenarioOutcome, ...]
    covariates: Covariates

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("a record needs at least one scenario outcome")


_TREATMENT_CODE = {t: i for i, t in enumerate(Treatment)}
_SCENARIO_CODE = {s: i for i, s in enumerate(Scenario)}


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


@dataclass(frozen=True)
class Dataset:
    """Subject records plus provenance; provenance is not compared."""

    records: tuple[SubjectRecord, ...]
    seed: int | None = field(default=None, compare=False)
    spec_digest: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        ids = [r.subject_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("subject_ids must be unique")

    def __len__(self) -> int:
        return len(self.records)

    @functools.cached_property
    def observations(self) -> Observations:
        """Every scenario row as columns, built on first use.

        The cache lives in the instance __dict__, outside the compared
        and printed fields; records are immutable, so it never goes stale.
        The columns fill from iterators over one flat outcome list; a
        Python list per column left the heap about 5 MB larger at 300k rows.
        """
        records = self.records
        per_record = np.fromiter((len(r.outcomes) for r in records), np.intp, len(records))
        treatment = np.fromiter((_TREATMENT_CODE[r.treatment] for r in records), np.int8, len(records))
        outcomes = [outcome for record in records for outcome in record.outcomes]
        columns = [
            np.repeat(treatment, per_record),
            np.fromiter((_SCENARIO_CODE[o.scenario] for o in outcomes), np.int8, len(outcomes)),
            np.fromiter((o.res_wage for o in outcomes), np.float64, len(outcomes)),
            np.fromiter((o.consistent for o in outcomes), bool, len(outcomes)),
        ]
        for column in columns:
            column.flags.writeable = False
        return Observations(*columns)


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


@dataclass(frozen=True)
class PopulationSpec:
    """Everything simulate_dataset needs, including the master seed.

    Cost scale alpha is log-normal around alpha_location with a linear
    tediousness link on the log scale; convexity gamma is normal,
    truncated to gamma_bounds, with a location shift for men. Defaults
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
        for t, n in self.counts.items():
            if not isinstance(t, Treatment):
                raise ValueError(f"counts key {t!r} is not a Treatment")
            if n < 0:
                raise ValueError("counts must be nonnegative")
        for name in ("alpha_location", "alpha_scale", "alpha_tediousness_link",
                     "gamma_location", "gamma_scale", "gamma_male_shift", "framing_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha_scale < 0 or self.gamma_scale < 0:
            raise ValueError("distribution scales must be nonnegative")
        lo, hi = self.gamma_bounds
        if not (1.0 <= lo <= hi):
            raise ValueError("gamma_bounds must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.tremble <= 1.0:
            raise ValueError("tremble is a probability")
        if not 0.0 <= self.male_share <= 1.0:
            raise ValueError("male_share is a probability")
        if self.age_range[0] > self.age_range[1] or self.age_range[0] < 0:
            raise ValueError("age_range must be a nonnegative (lo, hi) pair")
        if self.rho is not None and (self.rho == 0 or not math.isfinite(self.rho)):
            raise ValueError("rho must be nonzero and finite when set")


def _switch_wage(choices: tuple[bool, ...]) -> float:
    wages = price_list().extra_wages
    for wage, accepted in zip(wages, choices):
        if accepted:
            return wage
    return CENSOR_CODE


def classify_consistency(choices: tuple[bool, ...]) -> tuple[bool, float]:
    """Monotonicity flag and recorded wage for one 16-row price list.

    The recorded wage is the smallest accepted wage (the switch point
    when the rows are monotone) or the censor code when every row
    rejects.
    """
    if len(choices) != N_ROWS:
        raise ValueError(f"expected {N_ROWS} choices, got {len(choices)}")
    consistent = not any(choices[i] and not choices[i + 1] for i in range(N_ROWS - 1))
    return consistent, _switch_wage(choices)


_ROW_INDEX = np.arange(N_ROWS)
_ROW_BITS = 1 << _ROW_INDEX


def _scenario_outcome(scenario: Scenario, code: int, interned: dict) -> ScenarioOutcome:
    """The outcome whose row i is accepted iff bit i of code is set, built once per table."""
    outcome = interned.get((scenario, code))
    if outcome is None:
        flags = tuple(bool(code >> i & 1) for i in range(N_ROWS))
        consistent, recorded = classify_consistency(flags)
        outcome = interned[(scenario, code)] = ScenarioOutcome(
            scenario=scenario,
            choices=flags,
            res_wage=recorded,
            censored=not any(flags),
            consistent=consistent,
        )
    return outcome


def _block_records(
    treatment: Treatment,
    wages: Sequence[np.ndarray],
    uniforms: np.ndarray | None,
    tremble: float,
    covariates: Sequence[Covariates],
    subject_ids: Sequence[str],
    interned: dict,
) -> list[SubjectRecord]:
    """Records of a block of subjects in both scenarios of one treatment.

    wages holds each scenario's continuous wages and uniforms each
    subject's 2 x 16 tremble draws (None when tremble is 0); interned
    caches ScenarioOutcomes by accept pattern.
    """
    per_scenario = []
    for s, (scenario, r) in enumerate(zip(Scenario, wages)):
        accept = _ROW_INDEX >= snap_rows(r)[:, None]
        if uniforms is not None:
            accept ^= uniforms[:, s] < tremble
        codes, inverse = np.unique(accept @ _ROW_BITS, return_inverse=True)
        outcomes = [_scenario_outcome(scenario, code, interned) for code in codes.tolist()]
        per_scenario.append([outcomes[k] for k in inverse.tolist()])
    return [
        SubjectRecord(sid, treatment, outcomes, cov)
        for sid, cov, outcomes in zip(subject_ids, covariates, zip(*per_scenario))
    ]


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

    The rng is consumed only for tremble draws (16 per scenario, drawn
    only when tremble > 0), keeping streams aligned across runs that
    differ only in the tremble rate being zero or absent.
    """
    uniforms = rng.random((1, 2, N_ROWS)) if tremble > 0.0 else None
    cells = [(treatment_spec(treatment, scenario), 1) for scenario in Scenario]
    try:
        wages = population_wages(agent.model, (agent.mode,), np.zeros(1, np.intp), agent.framing_shift, cells)
    except NoIndifference as exc:
        raise NoIndifference(f"{exc}, subject {subject_id}", exc.index, exc.spec) from None
    return _block_records(treatment, wages, uniforms, tremble, [covariates], [subject_id], {})[0]


def subject_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-subject stream keyed by (master seed, index).

    The key deliberately omits the treatment so subject j shares one
    parameter draw across all treatments. simulate_dataset seeds the
    same streams in bulk (see _stream_states).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: little-endian 32-bit words, [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _stream_states(seed: int, count: int) -> list[dict]:
    """subject_stream(seed, j).bit_generator.state, for every j < count.

    SeedSequence((seed, j)) hashes the 32-bit words of seed, then the one
    word of j (j < 2**32), into a pool of four words, mixing in words
    beyond the fourth afterwards; generate_state(4, uint64) hashes the
    pool again. Every step is uint32 arithmetic on a hash constant that
    does not depend on the data, so it runs on a column per word with
    one row per subject. PCG64 then seeds its 128-bit LCG with inc =
    (initseq << 1) | 1 and state = (inc + initstate) * MULT + inc.
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
    halves = [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def _subject_draws(spec: PopulationSpec, rng: np.random.Generator) -> tuple:
    # draw order is part of the determinism contract: male, age,
    # tediousness, alpha shock, gamma quantile, then the mode draw
    # (MixtureComposition only)
    draws = (
        rng.random(),
        int(rng.integers(spec.age_range[0], spec.age_range[1] + 1)),
        int(rng.integers(1, 11)),
        rng.standard_normal(),
        rng.random(),
    )
    if isinstance(spec.composition, MixtureComposition):
        return draws + (rng.random(),)
    return draws


def _truncated_normal(u: np.ndarray, loc: np.ndarray, scale: float, lo: float, hi: float) -> np.ndarray:
    if scale == 0.0:
        return np.minimum(np.maximum(loc, lo), hi)
    a = ndtr((lo - loc) / scale)
    b = ndtr((hi - loc) / scale)
    x = loc + scale * ndtri(a + u * (b - a))
    return np.minimum(np.maximum(x, lo), hi)


@dataclass(frozen=True, eq=False)
class _Population:
    """Subjects' parameters as columns, one row per subject index."""

    covariates: list[Covariates]
    alpha: np.ndarray
    gamma: np.ndarray
    modes: tuple
    mode_index: np.ndarray


def _population(spec: PopulationSpec, draws: Sequence[tuple]) -> _Population:
    """Covariates, preference parameters and bracketing modes from one or more rows of draws.

    alpha is exp'd per element with the C library (math.exp), as one
    subject alone would be. Equal covariates are one shared object.
    """
    u_male, age, tediousness, z_alpha, u_gamma, *u_mode = (np.array(column) for column in zip(*draws))
    male = u_male < spec.male_share
    log_alpha = (
        spec.alpha_location
        + spec.alpha_tediousness_link * (tediousness - _TEDIOUSNESS_CENTER)
        + spec.alpha_scale * z_alpha
    )
    alpha = np.array([math.exp(x) for x in log_alpha.tolist()], dtype=float)
    gamma_loc = spec.gamma_location + np.where(male, spec.gamma_male_shift, 0.0)
    gamma = _truncated_normal(u_gamma, gamma_loc, spec.gamma_scale, *spec.gamma_bounds)
    if isinstance(spec.composition, MixtureComposition):
        modes = (Broad(), Narrow())
        mode_index = (u_mode[0] < spec.composition.narrow_share).astype(np.intp)
    else:
        modes = (ConvexKappa(spec.composition.kappa),)
        mode_index = np.zeros(len(draws), dtype=np.intp)
    interned: dict[tuple, Covariates] = {}
    covariates = []
    for key in zip(male.tolist(), age.tolist(), tediousness.tolist()):
        person = interned.get(key)
        if person is None:
            person = interned[key] = Covariates(*key)
        covariates.append(person)
    return _Population(covariates, alpha, gamma, modes, mode_index)


def _member_model(spec: PopulationSpec, alpha: float, gamma: float) -> UtilityModel:
    if spec.rho is None:
        return QuasiLinearPowerCost(alpha=alpha, gamma=gamma)
    return CaraMoneyPowerCost(rho=spec.rho, alpha=alpha, gamma=gamma)


def _draw_subject(spec: PopulationSpec, rng: np.random.Generator) -> tuple[Covariates, Agent]:
    """One subject's covariates and agent: the one-row case of simulate_dataset's draws."""
    population = _population(spec, [_subject_draws(spec, rng)])
    model = _member_model(spec, float(population.alpha[0]), float(population.gamma[0]))
    mode = population.modes[population.mode_index[0]]
    return population.covariates[0], Agent(model, mode, spec.framing_shift)


def population_digest(spec: PopulationSpec) -> str:
    """Short hash of every field: counts sorted by arm name, then the rest in declaration order.

    A new field, or a reordered one, changes every digest.
    """
    counts = sorted((t.value, n) for t, n in spec.counts.items())
    payload = repr((counts,) + tuple(getattr(spec, f.name) for f in fields(spec)[1:]))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def simulate_dataset(spec: PopulationSpec, workers: int = 1) -> Dataset:
    """Simulate every subject in the population specification.

    Deterministic for a fixed seed; records are ordered by treatment
    (declaration order), then subject index. Subject j is drawn once from
    subject_stream(seed, j), in the documented order followed by its
    tremble draws, and those draws serve every treatment. The streams are
    seeded in bulk and drawn through one reused generator; the subjects'
    parameters stay in columns, and every cell's reservation wages come
    from one call to population_wages. workers is kept for compatibility:
    it must be at least 1 and has no effect on the output or the speed.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    digest = population_digest(spec)
    count = max(spec.counts.values(), default=0)
    if not count:
        return Dataset((), seed=spec.seed, spec_digest=digest)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    draws = []
    trembles = np.empty((count, 2, N_ROWS)) if spec.tremble > 0.0 else None
    for j, state in enumerate(_stream_states(spec.seed, count)):
        bit_generator.state = state
        draws.append(_subject_draws(spec, rng))
        if trembles is not None:
            rng.random(out=trembles[j])
    population = _population(spec, draws)
    # the parameter checks are lower bounds: they hold for every row if they hold for the smallest
    probe = _member_model(spec, population.alpha.min(), population.gamma.min())
    columns = {"alpha": population.alpha, "gamma": population.gamma}
    if spec.rho is not None:
        columns["rho"] = np.full(count, spec.rho)
    arms = [(t, spec.counts[t]) for t in Treatment if spec.counts.get(t, 0)]
    cells = [(treatment_spec(t, s), n) for t, n in arms for s in Scenario]
    try:
        wages = population_wages(
            _stack_columns(type(probe), **columns), population.modes, population.mode_index, spec.framing_shift, cells
        )
    except NoIndifference as exc:
        subject = f"{exc.spec.treatment.value}-{exc.index:04d}"
        raise NoIndifference(f"{exc}, subject {subject}", exc.index, exc.spec) from None
    interned: dict = {}
    records = []
    for k, (treatment, n) in enumerate(arms):
        prefix = treatment.value
        records += _block_records(
            treatment,
            wages[2 * k : 2 * k + 2],
            None if trembles is None else trembles[:n],
            spec.tremble,
            population.covariates[:n],
            [f"{prefix}-{j:04d}" for j in range(n)],
            interned,
        )
    return Dataset(tuple(records), seed=spec.seed, spec_digest=digest)


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


class DataFormatError(Exception):
    """A data file does not match the expected CSV schema."""


def _outcome_text(outcome: ScenarioOutcome) -> str:
    """The scenario, c01..c16, res_wage, censored and consistent cells."""
    cells = [outcome.scenario.value]
    cells += ["1" if c else "0" for c in outcome.choices]
    cells += [
        f"{outcome.res_wage:.2f}",
        "1" if outcome.censored else "0",
        "1" if outcome.consistent else "0",
    ]
    return ",".join(cells)


def _covariates_text(covariates: Covariates) -> str:
    """The gender, age and tediousness cells."""
    gender = "male" if covariates.male else "female"
    return f"{gender},{covariates.age},{covariates.tediousness}"


def write_csv(dataset: Dataset, path: str) -> None:
    """One row per subject x scenario; money as two-decimal strings.

    Records share outcome and covariate objects, so each object's cells
    are rendered once per call. The caches are keyed by identity, not
    value: equal values can print differently (0.0 and -0.0), and the
    dataset keeps every keyed object alive for the whole call.
    """
    outcome_texts: dict[int, str] = {}
    covariate_texts: dict[int, str] = {}
    lines = [",".join(CSV_COLUMNS)]
    for record in dataset.records:
        tail = covariate_texts.get(id(record.covariates))
        if tail is None:
            tail = covariate_texts[id(record.covariates)] = _covariates_text(record.covariates)
        head = f"{record.subject_id},{record.treatment.value},"
        for outcome in record.outcomes:
            text = outcome_texts.get(id(outcome))
            if text is None:
                text = outcome_texts[id(outcome)] = _outcome_text(outcome)
            lines.append(f"{head}{text},{tail}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_row(line_no: int, cells: list[str]) -> tuple[str, Treatment, ScenarioOutcome, Covariates]:
    if len(cells) != len(CSV_COLUMNS):
        raise DataFormatError(f"line {line_no}: expected {len(CSV_COLUMNS)} fields, got {len(cells)}")
    try:
        treatment = Treatment(cells[1])
        scenario = Scenario(cells[2])
        choices = tuple(_parse_flag(c) for c in cells[3 : 3 + N_ROWS])
        res_wage = float(cells[3 + N_ROWS])
        censored = _parse_flag(cells[4 + N_ROWS])
        consistent = _parse_flag(cells[5 + N_ROWS])
        covariates = _parse_covariates(*cells[6 + N_ROWS :])
        outcome = ScenarioOutcome(scenario, choices, res_wage, censored, consistent)
    except DataFormatError:
        raise
    except ValueError as exc:
        raise DataFormatError(f"line {line_no}: {exc}") from exc
    return cells[0], treatment, outcome, covariates


def _parse_covariates(gender: str, age: str, tediousness: str) -> Covariates:
    if gender not in ("male", "female"):
        raise ValueError(f"gender must be male or female, got {gender!r}")
    return Covariates(gender == "male", int(age), int(tediousness))


def _parse_flag(cell: str) -> bool:
    if cell == "1":
        return True
    if cell == "0":
        return False
    raise ValueError(f"expected 0 or 1, got {cell!r}")


def read_csv(path: str) -> Dataset:
    """Parse a dataset CSV back into records; inverse of write_csv.

    Blank lines are skipped; error messages name physical line numbers.
    Adjacent rows with one subject_id form one record. A row is cut into
    its subject_id, its treatment cell, its outcome cells (scenario
    through consistent) and its covariate cells, and each distinct text
    of a part is parsed once per call: a row with an unseen outcome text
    goes through the validating _parse_row whole; a row whose outcome
    text was seen has exactly the validated field count, and parses
    only its unseen treatment or covariate cells, as _parse_row does.
    Records therefore share their (immutable) outcome and covariate
    objects, and each distinct outcome is built and validated once.
    """
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header_no = next((no for no, ln in enumerate(lines, 1) if ln), None)
    if header_no is None:
        raise DataFormatError("empty file")
    if lines[header_no - 1].split(",") != list(CSV_COLUMNS):
        raise DataFormatError(f"line {header_no}: bad header, expected {','.join(CSV_COLUMNS)}")

    treatments: dict[str, Treatment] = {}
    outcomes: dict[str, ScenarioOutcome] = {}
    people: dict[str, Covariates] = {}
    records = []
    sid, treatment, covariates, group = None, None, None, []
    for line_no, line in enumerate(lines[header_no:], header_no + 1):
        if not line:
            continue
        row_sid, _, rest = line.partition(",")
        treatment_text, _, rest = rest.partition(",")
        outcome_text = rest.rsplit(",", 3)[0]
        covariates_text = rest[len(outcome_text) + 1 :]
        row_treatment = treatments.get(treatment_text)
        outcome = outcomes.get(outcome_text)
        person = people.get(covariates_text)
        if outcome is None:
            row_sid, row_treatment, outcome, person = _parse_row(line_no, line.split(","))
            row_treatment = treatments.setdefault(treatment_text, row_treatment)
            outcomes[outcome_text] = outcome
            person = people.setdefault(covariates_text, person)
        elif row_treatment is None or person is None:
            # a seen outcome text has 20 cells, so the row has all 25 fields;
            # the cells are checked in _parse_row's order
            try:
                if row_treatment is None:
                    row_treatment = treatments[treatment_text] = Treatment(treatment_text)
                if person is None:
                    person = people[covariates_text] = _parse_covariates(*covariates_text.split(","))
            except ValueError as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from exc
        if row_sid == sid:
            if row_treatment is not treatment or (person is not covariates and person != covariates):
                raise DataFormatError(f"line {line_no}: subject {sid} changes treatment or covariates")
            group.append(outcome)
            continue
        if group:
            records.append(SubjectRecord(sid, treatment, tuple(group), covariates))
        sid, treatment, covariates, group = row_sid, row_treatment, person, [outcome]
    if group:
        records.append(SubjectRecord(sid, treatment, tuple(group), covariates))
    try:
        return Dataset(tuple(records))
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
