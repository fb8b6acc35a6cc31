"""Simulated price-list sessions over heterogeneous populations.

Each synthetic subject draws covariates and preference parameters from
a population specification, goes through both scenarios of one
treatment, and leaves a 16-row accept/reject record per scenario. The
random stream for subject j is derived from (master seed, j) alone, so
subject j faces the same preference draw in every treatment (common
random numbers). The simulator draws each subject index once, reuses
those draws in every treatment, and solves each (treatment, scenario)
block of subjects with one array bisection per frame.
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
    reservation_wages,
    snap_rows,
)
from .design import Scenario, Treatment, price_list, treatment_spec
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


def _simulate_block(
    agents: Sequence[Agent],
    covariates: Sequence[Covariates],
    subject_ids: Sequence[str],
    treatment: Treatment,
    uniforms: np.ndarray | None,
    tremble: float,
    interned: dict,
) -> list[SubjectRecord]:
    """Run a block of agents through both scenarios of one treatment.

    uniforms holds each subject's 2 x 16 tremble draws (None when
    tremble is 0); interned caches ScenarioOutcomes by accept pattern.
    """
    per_scenario = []
    for s, scenario in enumerate(Scenario):
        spec = treatment_spec(treatment, scenario)
        try:
            wages = reservation_wages(agents, spec)
        except NoIndifference as exc:
            raise NoIndifference(f"{exc}, subject {subject_ids[exc.index]}", exc.index) from None
        accept = _ROW_INDEX >= snap_rows(wages)[:, None]
        if uniforms is not None:
            accept ^= uniforms[:, s] < tremble
        codes = (accept @ _ROW_BITS).tolist()
        per_scenario.append([_scenario_outcome(scenario, code, interned) for code in codes])
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
    return _simulate_block([agent], [covariates], [subject_id], treatment, uniforms, tremble, {})[0]


def subject_stream(seed: int, index: int) -> np.random.Generator:
    """Independent per-subject stream keyed by (master seed, index).

    The key deliberately omits the treatment so subject j shares one
    parameter draw across all treatments.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _truncated_normal(u: float, loc: float, scale: float, lo: float, hi: float) -> float:
    if scale == 0.0:
        return min(max(loc, lo), hi)
    a = ndtr((lo - loc) / scale)
    b = ndtr((hi - loc) / scale)
    x = loc + scale * float(ndtri(a + u * (b - a)))
    return min(max(x, lo), hi)


def _draw_subject(spec: PopulationSpec, rng: np.random.Generator) -> tuple[Covariates, Agent]:
    # draw order is part of the determinism contract: male, age,
    # tediousness, alpha shock, gamma quantile, then the mode draw
    male = rng.random() < spec.male_share
    age = int(rng.integers(spec.age_range[0], spec.age_range[1] + 1))
    tediousness = int(rng.integers(1, 11))
    z_alpha = rng.standard_normal()
    u_gamma = rng.random()
    if isinstance(spec.composition, MixtureComposition):
        mode = Narrow() if rng.random() < spec.composition.narrow_share else Broad()
    else:
        mode = ConvexKappa(spec.composition.kappa)
    alpha = math.exp(
        spec.alpha_location
        + spec.alpha_tediousness_link * (tediousness - _TEDIOUSNESS_CENTER)
        + spec.alpha_scale * z_alpha
    )
    gamma_loc = spec.gamma_location + (spec.gamma_male_shift if male else 0.0)
    gamma = _truncated_normal(u_gamma, gamma_loc, spec.gamma_scale, *spec.gamma_bounds)
    model: UtilityModel
    if spec.rho is None:
        model = QuasiLinearPowerCost(alpha=alpha, gamma=gamma)
    else:
        model = CaraMoneyPowerCost(rho=spec.rho, alpha=alpha, gamma=gamma)
    return Covariates(male, age, tediousness), Agent(model, mode, spec.framing_shift)


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
    (declaration order), then subject index. Subject j is drawn once, in
    the documented order followed by its tremble draws, and those draws
    serve every treatment. workers is kept for compatibility: it must be
    at least 1 and has no effect on the output or the speed.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    agents, covariates, uniforms = [], [], []
    for j in range(max(spec.counts.values(), default=0)):
        rng = subject_stream(spec.seed, j)
        person, agent = _draw_subject(spec, rng)
        covariates.append(person)
        agents.append(agent)
        if spec.tremble > 0.0:
            uniforms.append(rng.random((2, N_ROWS)))
    trembles = np.array(uniforms) if spec.tremble > 0.0 else None
    interned: dict = {}
    records = []
    for treatment in Treatment:
        n = spec.counts.get(treatment, 0)
        if n:
            records += _simulate_block(
                agents[:n],
                covariates[:n],
                [f"{treatment.value}-{j:04d}" for j in range(n)],
                treatment,
                None if trembles is None else trembles[:n],
                spec.tremble,
                interned,
            )
    return Dataset(tuple(records), seed=spec.seed, spec_digest=population_digest(spec))


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
