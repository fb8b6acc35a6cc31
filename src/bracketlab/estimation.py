"""Inference for censored price-list data.

Covers the full pipeline run on elicited reservation wages: cell
summaries, tie-corrected rank-sum tests with an exact-permutation
oracle, the nonlinear least-squares estimator of the bracketing weight
kappa with a profile-grid oracle, a right-censored Tobit by Newton's
method with analytic standard errors, two-sample power calculations,
and a plain least-squares convenience.
Censored observations carry the 4.25 code everywhere, matching how the
summary tables treat the upper bound.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .agents import CENSOR_CODE
from .design import Scenario, Treatment
from .experiment import Dataset

__all__ = [
    "CellSummary",
    "MwuResult",
    "KappaFit",
    "TobitFit",
    "OlsFit",
    "EmptySample",
    "TooLarge",
    "Degenerate",
    "NotConverged",
    "AllCensored",
    "RankDeficient",
    "InvalidParams",
    "cell_wages",
    "summarize_means",
    "mwu_test",
    "mwu_exact",
    "nls_kappa",
    "kappa_profile_oracle",
    "tobit_right",
    "power_two_sample",
    "ols",
]

_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 500
_NEWTON_TOL = 1e-9
_EXACT_CAP = 66
_KAPPA_GRID = (-1.0, 3.0)
_KAPPA_STEP = 1e-4


class EmptySample(Exception):
    """A test was fed an empty sample."""


class TooLarge(Exception):
    """The exact rank-sum test is limited to 66 pooled observations.

    mwu_exact counts subsets in int64, and C(66, 33) < 2**63 < C(67, 33),
    so 66 is the largest pooled size at which every count is exact.
    """


class Degenerate(Exception):
    """kappa is not identified on this data."""


class NotConverged(Exception):
    """An iterative fit did not reach a maximum."""


class AllCensored(Exception):
    """Tobit needs at least one uncensored response."""


class RankDeficient(Exception):
    """The covariate matrix does not have full column rank."""


class InvalidParams(Exception):
    """Power-analysis inputs outside their domain."""


@dataclass(frozen=True)
class CellSummary:
    treatment: Treatment
    scenario: Scenario
    mean: float
    sd: float
    share_censored: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or not 0.0 <= self.share_censored <= 1.0:
            raise ValueError("invalid cell summary")


@dataclass(frozen=True)
class MwuResult:
    """Normal-approximation rank-sum test with midranks."""

    w: float
    z: float
    p: float
    tie_corrected: bool
    continuity: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class KappaFit:
    """Saturated cell-means regression with a shared bracketing weight.

    b_s and n_s index scenarios (S1, S2). The mid treatment's fitted
    cell is (1 - kappa) * b_s + kappa * n_s by construction. Reported
    standard errors are heteroskedasticity-robust; se_kappa_model is
    the classical one, kept for diagnostics.
    """

    b_s: tuple[float, float]
    n_s: tuple[float, float]
    se_b_s: tuple[float, float]
    se_n_s: tuple[float, float]
    kappa: float
    se_kappa: float
    se_kappa_model: float
    iterations: int
    converged: bool
    rss: float
    n_obs: int

    def fitted_mid(self, scenario_index: int) -> float:
        return (1.0 - self.kappa) * self.b_s[scenario_index] + self.kappa * self.n_s[scenario_index]


@dataclass(frozen=True)
class TobitFit:
    beta: tuple[float, ...]
    se: tuple[float, ...]
    sigma: float
    se_sigma: float
    loglik: float
    n_censored: int
    n_uncensored: int
    iterations: int

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not math.isfinite(self.loglik):
            raise ValueError("log-likelihood must be finite")


@dataclass(frozen=True)
class OlsFit:
    beta: tuple[float, ...]
    se: tuple[float, ...]
    sigma2: float
    n_obs: int


def cell_wages(dataset: Dataset, drop_inconsistent: bool = True) -> dict[tuple[Treatment, Scenario], np.ndarray]:
    """Recorded wages per (treatment, scenario) cell, in record order.

    Keys run in declaration order, treatment first; cells with no
    observations after filtering are omitted.
    """
    obs = dataset.observations
    keep = obs.consistent if drop_inconsistent else slice(None)
    cell = obs.treatment[keep].astype(np.intp) * len(Scenario) + obs.scenario[keep]
    # a stable sort keeps record order inside each cell
    grouped = obs.res_wage[keep][np.argsort(cell, kind="stable")]
    parts = np.split(grouped, np.cumsum(np.bincount(cell, minlength=len(Treatment) * len(Scenario)))[:-1])
    return {key: part for key, part in zip(itertools.product(Treatment, Scenario), parts) if part.size}


def summarize_means(dataset: Dataset, drop_inconsistent: bool = True) -> list[CellSummary]:
    """Mean, spread, censoring share, and N per treatment x scenario.

    Cells with no observations after filtering are omitted; censored
    responses enter the mean at the 4.25 code.
    """
    return [
        CellSummary(
            treatment=treatment,
            scenario=scenario,
            mean=float(arr.mean()),
            sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            share_censored=float((arr >= CENSOR_CODE - 1e-9).mean()),
            n=int(arr.size),
        )
        for (treatment, scenario), arr in cell_wages(dataset, drop_inconsistent).items()
    ]


def _rank_setup(x, y):
    """Sample sizes, pooled midranks and the pooled tie counts."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptySample("both samples must be nonempty")
    pooled = np.concatenate([x, y])
    if np.isnan(pooled).any():
        raise ValueError("samples must not contain NaN")
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # midranks are exact half-integers, so any sum of them is exact
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return x.size, y.size, ranks, counts


def mwu_test(x, y, continuity: bool = False) -> MwuResult:
    """Two-sided rank-sum test via the tie-corrected normal approximation.

    W is the midrank sum of the first sample. The optional continuity
    correction shrinks W - E[W] by 0.5 toward zero; it is off by
    default. Zero variance (all values tied) gives z = 0, p = 1.
    """
    n1, n2, ranks, counts = _rank_setup(x, y)
    n_total = n1 + n2
    w = float(ranks[:n1].sum())
    expected = n1 * (n_total + 1) / 2.0
    tie_term = float((counts.astype(float) ** 3 - counts).sum()) / (n_total * (n_total - 1))
    var = n1 * n2 / 12.0 * ((n_total + 1) - tie_term)
    tie_corrected = bool((counts > 1).any())
    if var <= 0.0:
        return MwuResult(w, 0.0, 1.0, tie_corrected, continuity)
    delta = w - expected
    if continuity and delta != 0.0:
        delta -= math.copysign(0.5, delta)
    z = delta / math.sqrt(var)
    p = float(2.0 * ndtr(-abs(z)))
    return MwuResult(w, z, min(p, 1.0), tie_corrected, continuity)


def mwu_exact(x, y) -> float:
    """Exact two-sided p over every relabeling of the pooled data.

    p = P(|W - E[W]| >= |w_obs - E[W]|) over all (n1+n2 choose n1)
    relabelings of the observed pooled multiset. Doubled midranks are
    integers, so the null distribution is counted rather than
    enumerated (Streitberg & Roehmel 1986, Comput. Stat. Q. 3:23-41):
    c[j, s] is the number of j-subsets of the pooled sample whose
    doubled rank sum is s, built with one shifted add per observation.
    Subsets of the smaller sample size k suffice, since the two-sided
    statistic is label-symmetric. Every count is at most
    C(66, 33) < 2**63, hence the cap of 66 pooled observations (see
    TooLarge).
    """
    n1, n2, ranks, _ = _rank_setup(x, y)
    n_total = n1 + n2
    if n_total > _EXACT_CAP:
        raise TooLarge(f"exact test capped at {_EXACT_CAP} pooled observations, got {n_total}")
    doubled = (2.0 * ranks).astype(np.int64)
    k = min(n1, n2)
    top = int(np.sort(doubled)[-k:].sum())
    counts = np.zeros((k + 1, top + 1), dtype=np.int64)
    counts[0, 0] = 1
    for w in doubled.tolist():
        counts[1:, w:] += counts[:-1, :-w].copy()
    # |W - E[W]| is the same for either sample: compare doubled sums exactly
    gap = abs(int(doubled[:n1].sum()) - n1 * (n_total + 1))
    far = np.abs(np.arange(top + 1) - k * (n_total + 1)) >= gap
    return int(counts[k, far].sum()) / math.comb(n_total, k)


_SCENARIOS = (Scenario.S1, Scenario.S2)


def _kappa_arrays(
    dataset: Dataset,
    broad_label: Treatment,
    narrow_label: Treatment,
    mid_label: Treatment,
    drop_inconsistent: bool = True,
):
    """Responses with group/scenario codes, by default consistent scenarios only."""
    labels = {broad_label: 0, narrow_label: 1, mid_label: 2}
    if len(labels) != 3:
        raise ValueError("the three treatment labels must be distinct")
    obs = dataset.observations
    group_of = np.array([labels.get(t, -1) for t in Treatment], dtype=np.int8)
    group = group_of[obs.treatment]
    keep = group >= 0
    if drop_inconsistent:
        keep &= obs.consistent
    y, group, scen = obs.res_wage[keep], group[keep], obs.scenario[keep]
    means = np.zeros((3, 2))
    counts = np.zeros((3, 2))
    for label, g in labels.items():
        for s in range(2):
            sel = (group == g) & (scen == s)
            counts[g, s] = sel.sum()
            if not counts[g, s]:
                raise Degenerate(
                    f"no {'consistent ' if drop_inconsistent else ''}observations for "
                    f"{label.value} in {_SCENARIOS[s].value}; "
                    "kappa needs all three treatments in both scenarios"
                )
            means[g, s] = y[sel].mean()
    if all(abs(means[0, s] - means[1, s]) < 1e-9 for s in range(2)):
        raise Degenerate(
            "broad and narrow cell means coincide in both scenarios; "
            "the bracketing weight is unidentified on this data"
        )
    return y, group, scen, means, counts


def _kappa_fitted(theta: np.ndarray) -> np.ndarray:
    """Fitted value per cell, indexed by 2 * group + scenario."""
    b, n, kappa = theta[0:2], theta[2:4], theta[4]
    return np.concatenate([b, n, (1.0 - kappa) * b + kappa * n])


def _kappa_design(theta: np.ndarray, cell: np.ndarray):
    """Fitted values and Jacobian per row, gathered from per-cell tables."""
    b, n, kappa = theta[0:2], theta[2:4], theta[4]
    jac = np.zeros((6, 5))
    jac[[0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    jac[[4, 5], [0, 1]] = 1.0 - kappa
    jac[[4, 5], [2, 3]] = kappa
    jac[[4, 5], 4] = n - b
    return _kappa_fitted(theta)[cell], jac[cell]


def nls_kappa(
    dataset: Dataset,
    broad_label: Treatment = Treatment.BROAD,
    narrow_label: Treatment = Treatment.LOW,
    mid_label: Treatment = Treatment.NARROW,
    *,
    drop_inconsistent: bool = True,
) -> KappaFit:
    """Estimate the bracketing weight by damped Gauss-Newton.

    The mid treatment's cell is modeled as the kappa-weighted
    combination of the broad-anchor and narrow-anchor cells, jointly
    with the four cell effects, on consistent observations (on all of
    them with drop_inconsistent=False). Starts at the saturated cell
    means with kappa = 0.5.
    """
    y, group, scen, means, counts = _kappa_arrays(
        dataset, broad_label, narrow_label, mid_label, drop_inconsistent
    )
    cell = 2 * group.astype(np.intp) + scen
    theta = np.array([means[0, 0], means[0, 1], means[1, 0], means[1, 1], 0.5])

    def rss_at(t):
        r = y - _kappa_fitted(t)[cell]
        return float(r @ r)

    rss = rss_at(theta)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        fitted, jac = _kappa_design(theta, cell)
        resid = y - fitted
        grad = 2.0 * (jac.T @ resid)
        if float(np.linalg.norm(grad)) < _GRAD_TOL:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac.T @ jac, jac.T @ resid, rcond=None)
        lam = 1.0
        while lam > 1e-12 and rss_at(theta + lam * step) > rss:
            lam /= 2.0
        taken = lam * step
        theta = theta + taken
        rss = rss_at(theta)
        if float(np.linalg.norm(taken)) < _STEP_TOL:
            fitted, jac = _kappa_design(theta, cell)
            grad = 2.0 * (jac.T @ (y - fitted))
            converged = float(np.linalg.norm(grad)) < _GRAD_TOL
            break
    else:
        raise NotConverged(f"Gauss-Newton did not converge in {_MAX_ITER} iterations")

    fitted, jac = _kappa_design(theta, cell)
    resid = y - fitted
    bread = np.linalg.inv(jac.T @ jac)
    meat = jac.T @ (jac * (resid**2)[:, None])
    robust = bread @ meat @ bread
    dof = max(y.size - 5, 1)
    model_cov = (resid @ resid / dof) * bread
    se_r = np.sqrt(np.maximum(np.diag(robust), 0.0))
    se_m = np.sqrt(np.maximum(np.diag(model_cov), 0.0))
    return KappaFit(
        b_s=(float(theta[0]), float(theta[1])),
        n_s=(float(theta[2]), float(theta[3])),
        se_b_s=(float(se_r[0]), float(se_r[1])),
        se_n_s=(float(se_r[2]), float(se_r[3])),
        kappa=float(theta[4]),
        se_kappa=float(se_r[4]),
        se_kappa_model=float(se_m[4]),
        iterations=iterations,
        converged=bool(converged),
        rss=float(resid @ resid),
        n_obs=int(y.size),
    )


def kappa_profile_oracle(
    dataset: Dataset,
    broad_label: Treatment = Treatment.BROAD,
    narrow_label: Treatment = Treatment.LOW,
    mid_label: Treatment = Treatment.NARROW,
) -> float:
    """Brute-force profile of the kappa objective on a 1e-4 grid over [-1, 3].

    For each grid kappa the cell effects are concentrated out in closed
    form, so the returned arg-min of the joint least-squares objective is
    an independent check on nls_kappa.
    """
    _, _, _, means, counts = _kappa_arrays(dataset, broad_label, narrow_label, mid_label)
    kappas = np.arange(_KAPPA_GRID[0], _KAPPA_GRID[1] + _KAPPA_STEP / 2.0, _KAPPA_STEP)
    u = 1.0 - kappas
    v = kappas
    total = np.zeros_like(kappas)
    for s in range(2):
        gap = u * means[0, s] + v * means[1, s] - means[2, s]
        n_b, n_n, n_m = counts[0, s], counts[1, s], counts[2, s]
        total += n_m * gap**2 / (1.0 + n_m * (u**2 / n_b + v**2 / n_n))
    return float(kappas[int(np.argmin(total))])


def _tobit_loglik(theta, y, X, limit, cens):
    """Log-likelihood, gradient and Hessian in theta = (delta, tau) = (beta/sigma, 1/sigma).

    An uncensored row adds log tau - log(2 pi)/2 - e^2/2 with e = tau*y - x.delta,
    a censored row log Phi(x.delta - tau*limit); both are concave in theta.
    """
    tau, n_unc = theta[-1], int((~cens).sum())
    d = np.column_stack([-X[~cens], y[~cens]])
    e = d @ theta
    ll = n_unc * (math.log(tau) - 0.5 * math.log(2.0 * math.pi)) - 0.5 * float(e @ e)
    grad, hess = -(d.T @ e), -(d.T @ d)
    grad[-1] += n_unc / tau
    hess[-1, -1] -= n_unc / tau**2
    if cens.any():
        v = np.column_stack([X[cens], np.full(cens.sum(), -limit)])
        a = v @ theta
        log_cdf = log_ndtr(a)
        lam = np.exp(-0.5 * a**2 - 0.5 * math.log(2.0 * math.pi) - log_cdf)
        ll += float(log_cdf.sum())
        grad += v.T @ lam
        hess -= v.T @ (v * (lam * (a + lam))[:, None])
    return ll, grad, hess


def _inverse_information(hess):
    """(-H)^-1; a numerically singular -H means the optimum is not interior."""
    if np.linalg.matrix_rank(-hess) < len(hess):
        raise NotConverged("information matrix is singular")
    return np.linalg.inv(-hess)


def tobit_right(y, X, limit: float = CENSOR_CODE) -> TobitFit:
    """Right-censored Tobit by Newton's method in (beta/sigma, 1/sigma).

    Responses at or above the limit, which must be finite, are censored
    (y >= nan holds for no row). Starts from least squares on the
    uncensored rows, after raising NotConverged for a column of X that
    is zero on every uncensored row and of one sign on the censored rows,
    along which the likelihood rises without bound. The log-likelihood
    is concave in these parameters (Olsen 1978, Econometrica 46:1211):
    steps are halved until it rises, and the fit ends with a full step
    once the Newton decrement g.(-H)^-1.g is below 1e-9 * max(1, |loglik|).
    Standard errors map the inverse negative Hessian to (beta, sigma) by
    the delta method.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError("y and X have mismatched lengths")
    if not math.isfinite(limit):
        raise ValueError(f"censoring limit must be finite, got {limit}")
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficient("covariate matrix is rank deficient")
    cens = y >= limit - 1e-9
    if cens.all():
        raise AllCensored("every response sits at the censoring limit")
    # raising the coefficient of a column that is zero on every uncensored
    # row and of one sign on the censored rows raises the likelihood forever
    censored = X[cens]
    one_sign = (censored >= 0).all(axis=0) | (censored <= 0).all(axis=0)
    unbounded = ~X[~cens].any(axis=0) & censored.any(axis=0) & one_sign
    if unbounded.any():
        column = int(np.argmax(unbounded))
        raise NotConverged(f"Tobit likelihood has no maximum: column {column} of X is nonzero only on censored rows")

    beta0, *_ = np.linalg.lstsq(X[~cens], y[~cens], rcond=None)
    resid0 = y[~cens] - X[~cens] @ beta0
    sigma0 = max(float(np.sqrt((resid0**2).mean())), 1e-2)
    theta = np.append(beta0, 1.0) / sigma0
    ll, grad, hess = _tobit_loglik(theta, y, X, limit, cens)
    for iterations in range(1, _MAX_ITER + 1):
        step = _inverse_information(hess) @ grad
        # near the optimum the predicted gain is below the rounding of ll,
        # so the last step is taken whole rather than line-searched
        if grad @ step < _NEWTON_TOL * max(1.0, abs(ll)):
            theta = theta + step
            ll, grad, hess = _tobit_loglik(theta, y, X, limit, cens)
            break
        t = 1.0
        while t > 1e-12:
            theta_t = theta + t * step
            if theta_t[-1] > 0 and (fit_t := _tobit_loglik(theta_t, y, X, limit, cens))[0] > ll:
                break
            t /= 2.0
        else:
            raise NotConverged("Tobit line search found no ascent")
        theta, (ll, grad, hess) = theta_t, fit_t
    else:
        raise NotConverged(f"Tobit Newton did not converge in {_MAX_ITER} iterations")

    tau = theta[k]
    beta, sigma = theta[:k] / tau, 1.0 / tau
    # d(beta, sigma) / d(delta, tau) = [[I, -beta], [0, -sigma]] / tau
    jac = np.eye(k + 1)
    jac[:, k] = -np.append(beta, sigma)
    diag = np.diag(jac @ _inverse_information(hess) @ jac.T) / tau**2
    if (diag <= 0).any():
        raise NotConverged("negative variance estimate; not at an interior maximum")
    se = np.sqrt(diag)
    return TobitFit(
        beta=tuple(float(b) for b in beta),
        se=tuple(float(s) for s in se[:k]),
        sigma=float(sigma),
        se_sigma=float(se[k]),
        loglik=float(ll),
        n_censored=int(cens.sum()),
        n_uncensored=int((~cens).sum()),
        iterations=iterations,
    )


def power_two_sample(
    d: float,
    alpha: float = 0.05,
    power: float = 0.90,
    ratio: float = 1.0,
    wilcoxon_are: bool = False,
) -> tuple[int, int]:
    """Two-sample normal-approximation sample sizes (n_large, n_small).

    ratio is n_large / n_small >= 1. With wilcoxon_are the required
    size is inflated by pi/3, the worst-case relative efficiency of the
    rank-sum test against the t test.
    """
    if not (d > 0 and 0 < alpha < 1 and 0.5 < power < 1 and ratio >= 1):
        raise InvalidParams("need d > 0, alpha in (0,1), power in (0.5,1), ratio >= 1")
    z = float(ndtri(1 - alpha / 2.0) + ndtri(power))
    raw = (1.0 + 1.0 / ratio) * z**2 / d**2
    if wilcoxon_are:
        raw *= math.pi / 3.0
    n_small = max(1, math.ceil(raw))
    n_large = max(1, math.ceil(ratio * raw))
    return n_large, n_small


def ols(y, X) -> OlsFit:
    """Plain least squares with classical standard errors."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, k = X.shape
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficient("covariate matrix is rank deficient")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / max(n - k, 1)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return OlsFit(
        beta=tuple(float(b) for b in beta),
        se=tuple(float(s) for s in np.sqrt(np.diag(cov))),
        sigma2=sigma2,
        n_obs=n,
    )
