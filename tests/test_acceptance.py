"""Acceptance gate: every shipped claim, one verdict line per criterion.

Each test exercises one criterion end to end at its stated tolerance
and prints "ACCEPTANCE-k <label>: PASS" outside pytest's capture, so
the verdict lines always reach the terminal. A FAIL line is followed
by the assert that turns the run red, so it never survives a green
run.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_ndtr

from bracketlab.cli import main, verify_rows
from bracketlab.design import Treatment
from bracketlab.estimation import (
    Degenerate,
    kappa_profile_oracle,
    mwu_exact,
    mwu_test,
    nls_kappa,
    power_two_sample,
    summarize_means,
    tobit_right,
)
from bracketlab.experiment import (
    MixtureComposition,
    PopulationSpec,
    iter_observations,
    simulate_dataset,
)
from bracketlab.theory import mixture_linearity
from bracketlab.preferences import Bundle, CaraMoneyPowerCost, Lottery

from conftest import dataset_from_cell_means

DATA = Path(__file__).parent / "data"


@pytest.fixture
def verdict(capsys):
    def _verdict(number: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE-{number} {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {number} ({label}) failed"

    return _verdict


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_kappa_reproduction_from_cell_means(verdict):
    start = time.perf_counter()

    broad_cells = {
        Treatment.BROAD: (2.89, 2.98),
        Treatment.LOW: (2.30, 2.77),
        Treatment.NARROW: (2.07, 2.70),
    }
    ds = dataset_from_cell_means(broad_cells, n=100)
    fit = nls_kappa(ds)
    oracle = kappa_profile_oracle(ds)
    assert abs(fit.kappa - 1.38) <= 0.05, fit.kappa
    assert abs(fit.kappa - oracle) <= 2e-4

    partial_cells = {
        Treatment.PARTIAL: (2.52, 2.46),
        Treatment.LOW: (2.24, 2.64),
        Treatment.NARROW: (2.07, 2.70),
    }
    ds = dataset_from_cell_means(partial_cells, n=100)
    fit_p = nls_kappa(ds, broad_label=Treatment.PARTIAL)
    oracle_p = kappa_profile_oracle(ds, broad_label=Treatment.PARTIAL)
    assert abs(fit_p.kappa - 1.53) <= 0.05, fit_p.kappa
    assert abs(fit_p.kappa - oracle_p) <= 2e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    verdict(1, "kappa reproduction (1.38 / 1.53, oracle to 2e-4, < 1 s)", True)


# --------------------------------------------------------------- criterion 2


def _recovery_spec(seed: int, narrow_share: float) -> PopulationSpec:
    return PopulationSpec(
        counts={Treatment.BROAD: 500, Treatment.NARROW: 500, Treatment.LOW: 500},
        seed=seed,
        composition=MixtureComposition(narrow_share),
        tremble=0.0,
        gamma_bounds=(1.8, 2.2),
    )


def _pooled_wages(dataset):
    wages = {}
    for record, outcome in iter_observations(dataset):
        wages.setdefault(record.treatment, []).append(outcome.res_wage)
    return wages


def test_acceptance_2_bracketing_recovery_loop(verdict):
    start = time.perf_counter()
    kappas = {1.0: [], 0.0: [], 0.7: []}
    wages = {1.0: [], 0.0: []}
    for seed in range(20):
        for share in kappas:
            ds = simulate_dataset(_recovery_spec(seed, share))
            kappas[share].append(nls_kappa(ds).kappa)
            if share in wages:
                wages[share].append(_pooled_wages(ds))

    # subject j of every arm of one dataset shares its draws, so a null
    # pair within a dataset is identical data: take the other arm from
    # the next seed's dataset
    def null_p(share, other):
        runs = wages[share]
        return [
            mwu_test(runs[s][Treatment.NARROW], runs[(s + 1) % len(runs)][other]).p
            for s in range(len(runs))
        ]

    p_narrow_low = null_p(1.0, Treatment.LOW)
    p_narrow_broad = null_p(0.0, Treatment.BROAD)
    narrow_hat = float(np.mean(kappas[1.0]))
    broad_hat = float(np.mean(kappas[0.0]))
    mix_hat = float(np.mean(kappas[0.7]))
    assert 0.9 <= narrow_hat <= 1.1, narrow_hat
    assert float(np.mean(p_narrow_low)) > 0.1
    assert -0.1 <= broad_hat <= 0.1, broad_hat
    assert float(np.mean(p_narrow_broad)) > 0.1
    assert 0.6 <= mix_hat <= 0.8, mix_hat
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    verdict(2, "recovery loop (pure narrow / pure broad / 70-30 mixture, < 30 s)", True)


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_identification_dial(verdict):
    linear = PopulationSpec(
        counts={Treatment.BROAD: 500, Treatment.NARROW: 500, Treatment.LOW: 500},
        seed=0,
        composition=MixtureComposition(0.7),
        tremble=0.0,
        gamma_location=1.0,
        gamma_scale=0.0,
        gamma_male_shift=0.0,
        gamma_bounds=(1.0, 1.0),
    )
    with pytest.raises(Degenerate):
        nls_kappa(simulate_dataset(linear))

    convex = PopulationSpec(
        counts={Treatment.BROAD: 500, Treatment.LOW: 500},
        seed=0,
        composition=MixtureComposition(1.0),
        tremble=0.0,
        gamma_location=2.0,
        gamma_scale=0.0,
        gamma_male_shift=0.0,
        gamma_bounds=(2.0, 2.0),
    )
    ds = simulate_dataset(convex)
    cells = {(c.treatment, c.scenario.value): c for c in summarize_means(ds)}
    scenario_wages = {}
    for record, outcome in iter_observations(ds):
        scenario_wages.setdefault((record.treatment, outcome.scenario.value), []).append(
            outcome.res_wage
        )
    for scenario in ("S1", "S2"):
        gap = cells[(Treatment.BROAD, scenario)].mean - cells[(Treatment.LOW, scenario)].mean
        assert gap > 0.0, (scenario, gap)
        p = mwu_test(
            scenario_wages[(Treatment.BROAD, scenario)],
            scenario_wages[(Treatment.LOW, scenario)],
        ).p
        assert p < 0.01, (scenario, p)
    verdict(3, "identification dial (gamma=1 Degenerate, gamma=2 separates)", True)


# --------------------------------------------------------------- criterion 4


def _fuzz_corpus():
    """200 small sample pairs with heavy ties, frozen by seed."""
    rng = np.random.default_rng(1)
    pairs = []
    for _ in range(120):
        n = int(rng.integers(5, 8))
        m = int(rng.integers(5, 8))
        pairs.append((rng.integers(1, 7, n), rng.integers(1, 7, m) + 6))
    for _ in range(40):
        n = int(rng.integers(5, 8))
        m = int(rng.integers(5, 8))
        pairs.append((rng.integers(1, 7, n), rng.integers(1, 7, m) + 5))
    for _ in range(40):
        n = int(rng.integers(5, 8))
        m = int(rng.integers(5, 8))
        pairs.append((rng.uniform(0, 1, n), rng.uniform(0, 1, m) + 1.5))
    return pairs


def test_acceptance_4_mwu_oracle_agreement(verdict):
    worst = 0.0
    for x, y in _fuzz_corpus():
        gap = abs(mwu_test(x, y).p - mwu_exact(x, y))
        worst = max(worst, gap)
    assert worst < 0.02, worst

    ties = mwu_test([1, 1], [1, 2])
    assert ties.z == -1.0
    verdict(4, "rank-sum oracle agreement (200 fuzz pairs, z = -1 worked case)", True)


# --------------------------------------------------------------- criterion 5


def _tobit_grid_oracle(y, cens, limit):
    """Dense (beta, sigma) grid argmax of the censored log-likelihood."""
    betas = np.arange(0.0, 6.0 + 5e-4, 1e-3)
    sigmas = np.arange(0.05, 5.0 + 5e-4, 1e-3)
    y_unc = y[~cens]
    best_val, best_b, best_s = -np.inf, None, None
    for chunk in np.array_split(betas, 60):
        b = chunk[:, None, None]
        s = sigmas[None, :, None]
        z_unc = (y_unc[None, None, :] - b) / s
        ll = (-0.5 * z_unc**2 - 0.5 * math.log(2 * math.pi) - np.log(s)).sum(axis=2)
        if cens.any():
            z_cen = (limit - b[:, :, 0]) / s[:, :, 0]
            ll = ll + int(cens.sum()) * log_ndtr(-z_cen)
        idx = np.unravel_index(np.argmax(ll), ll.shape)
        if ll[idx] > best_val:
            best_val = float(ll[idx])
            best_b, best_s = float(chunk[idx[0]]), float(sigmas[idx[1]])
    return best_b, best_s


def test_acceptance_5_tobit_correctness(verdict):
    # zero censoring: closed-form Gaussian MLE
    y = np.array([1.0, 2.0, 3.0])
    X = np.ones((3, 1))
    fit = tobit_right(y, X, limit=100.0)
    assert abs(fit.beta[0] - 2.0) < 1e-6
    assert abs(fit.sigma - math.sqrt(2.0 / 3.0)) < 1e-6

    # censored 3-point instance against the dense grid oracle
    y3 = np.array([2.0, 3.0, 4.25])
    cens = np.array([False, False, True])
    fit3 = tobit_right(y3, np.ones((3, 1)), limit=4.25)
    b_star, s_star = _tobit_grid_oracle(y3, cens, 4.25)
    assert abs(fit3.beta[0] - b_star) <= 2e-3, (fit3.beta[0], b_star)
    assert abs(fit3.sigma - s_star) <= 2e-3, (fit3.sigma, s_star)

    # simulated recovery with roughly a quarter of responses censored
    rng = np.random.default_rng(5)
    n = 400
    x = rng.normal(size=n)
    beta_true = (3.6, 0.5)
    sigma_true = 0.9
    latent = beta_true[0] + beta_true[1] * x + sigma_true * rng.normal(size=n)
    y_obs = np.minimum(latent, 4.25)
    share = float((latent >= 4.25).mean())
    assert 0.15 <= share <= 0.35, share
    Xs = np.column_stack([np.ones(n), x])
    fit_s = tobit_right(y_obs, Xs, limit=4.25)
    for est, se, truth in zip(fit_s.beta, fit_s.se, beta_true):
        assert abs(est - truth) <= 3.0 * se, (est, truth, se)
    verdict(5, "tobit (Gaussian MLE 1e-6, grid oracle 2e-3, 3-SE recovery)", True)


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_power_analysis(verdict):
    assert power_two_sample(0.4, 0.05, 0.90, 1.5, wilcoxon_are=True) == (172, 115)
    # agrees with a 174 / 116 planning allocation within 2%
    assert abs(172 - 174) / 174 < 0.02
    assert abs(115 - 116) / 116 < 0.02
    assert power_two_sample(0.4, 0.05, 0.90, 1.0, wilcoxon_are=False) == (132, 132)
    verdict(6, "power allocation ((172, 115) within 2%, equal 132)", True)


# --------------------------------------------------------------- criterion 7


def test_acceptance_7_theory_suite(verdict, capsys):
    start = time.perf_counter()
    rc = main(["verify", "--suite", "all"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert rc == 0
    assert elapsed < 10.0, elapsed

    rows = {(r.suite, r.model): r for r in verify_rows("all")}
    assert rows[("additivity", "linear-metric")].status == "pass"
    assert rows[("additivity", "power-cost-linear")].status == "pass"
    convex = rows[("additivity", "power-cost-convex")]
    assert convex.status == "expected violation" and convex.value == "1.8000"
    assert rows[("unidentifiability", "power-cost-convex")].status == "expected violation"
    assert rows[("unidentifiability", "power-cost-linear")].status == "pass"
    assert rows[("cara", "cara-money")].status == "pass"
    assert rows[("cara", "power-money")].status == "expected violation"
    assert all(rows[("warp", name)].value == "0" for suite, name in rows if suite == "warp")

    coin = Lottery(((Bundle(0, 0.0), 0.5), (Bundle(0, 1.0), 0.5)))
    gap = mixture_linearity(CaraMoneyPowerCost(1.0, 0.0, 1.0), coin, [0.5])
    assert abs(gap - 0.0173) <= 1e-3  # headline magnitude
    assert abs(gap - 0.017931685763730998) <= 1e-6  # exact closed form
    verdict(7, "theory suite (verify all < 10 s, pinned gaps)", True)


# --------------------------------------------------------------- criterion 8


def test_acceptance_8_determinism(verdict, tmp_path):
    ini = str(DATA / "golden_run.ini")
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["simulate", "--config", ini, "--out", str(first)]) == 0
    assert main(["simulate", "--config", ini, "--out", str(second), "--workers", "8"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == (DATA / "golden_data.csv").read_bytes()

    for run in ("r1", "r2"):
        rc = main(["estimate", "means", "--data", str(first), "--out", str(tmp_path / run)])
        assert rc == 0
    assert (tmp_path / "r1" / "means.md").read_bytes() == (tmp_path / "r2" / "means.md").read_bytes()
    assert (tmp_path / "r1" / "means.md").read_bytes() == (DATA / "golden_means.md").read_bytes()
    assert (tmp_path / "r1" / "means.csv").read_bytes() == (DATA / "golden_means.csv").read_bytes()
    verdict(8, "determinism (worker-invariant CSV bytes, stable golden reports)", True)
