"""Builders for hand-constructed datasets with exact cell means."""
import math

from bracketlab.design import CENSOR_CODE, Scenario, Treatment, price_list
from bracketlab.experiment import Covariates, Dataset, ScenarioOutcome, SubjectRecord

WAGES = price_list().extra_wages


def outcome_from_wage(scenario: Scenario, wage: float) -> ScenarioOutcome:
    """A consistent price-list outcome recording the given wage.

    The wage must be a grid value or the censor code.
    """
    censored = wage >= CENSOR_CODE - 1e-9
    choices = tuple((not censored) and w >= wage - 1e-9 for w in WAGES)
    return ScenarioOutcome(scenario, choices, wage, censored, True)


def records_from_wages(treatment: Treatment, s1_wages, s2_wages, start_index: int = 0):
    """One two-scenario record per (s1, s2) wage pair."""
    assert len(s1_wages) == len(s2_wages)
    records = []
    for i, (w1, w2) in enumerate(zip(s1_wages, s2_wages)):
        j = start_index + i
        records.append(
            SubjectRecord(
                subject_id=f"{treatment.value}-{j:04d}",
                treatment=treatment,
                outcomes=(
                    outcome_from_wage(Scenario.S1, w1),
                    outcome_from_wage(Scenario.S2, w2),
                ),
                covariates=Covariates(j % 2 == 0, 25 + j % 30, 1 + j % 10),
            )
        )
    return records


def wages_with_mean(mean: float, n: int):
    """n grid wages averaging exactly to a two-decimal target mean.

    Mixes the two grid values bracketing the target; requires
    mean * 4 * n to be an integer, which holds for two-decimal means
    with n = 100.
    """
    base = math.floor(round(mean / 0.25, 9)) * 0.25
    quarters = round(mean * 4 * n)
    extra = quarters - round(base * 4) * n
    assert 0 <= extra <= n, f"mean {mean} not representable with n={n}"
    wages = [base] * (n - extra) + [base + 0.25] * extra
    assert abs(sum(wages) / n - mean) < 1e-12
    return wages


def dataset_from_cell_means(cells: dict, n: int = 100) -> Dataset:
    """Balanced dataset with exact (s1_mean, s2_mean) per treatment."""
    records = []
    for treatment, (m1, m2) in cells.items():
        records.extend(
            records_from_wages(treatment, wages_with_mean(m1, n), wages_with_mean(m2, n))
        )
    return Dataset(tuple(records))
