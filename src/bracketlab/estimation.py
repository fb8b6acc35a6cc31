"""Inference for censored price-list data.

Covers the full pipeline run on elicited reservation wages: cell
summaries, tie-corrected rank-sum tests with an exact-permutation
oracle, the nonlinear least-squares estimator of the bracketing weight
kappa with a profile-grid oracle, a right-censored Tobit by Newton's
method with analytic standard errors, and two-sample power
calculations.
Censored observations carry design.CENSOR_CODE everywhere, matching
how the summary tables treat the upper bound.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._normal import log_ndtr, ndtr, ndtri
from .design import CENSOR_CODE, Scenario, Treatment
from .experiment import _SCENARIOS, Dataset, _distinct_rows

__all__ = [
    "CellSummary",
    "MwuResult",
    "KappaFit",
    "TobitFit",
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
]

_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 500
_NEWTON_TOL = 1e-9
_EXACT_CAP = 66
_KAPPA_GRID = (-10_000, 30_000)  # the profile grid's ends, in steps of 1e-4
_KAPPA_BLOCK = 256


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

    b_s and n_s index scenarios (S1, S2) of the broad and narrow
    anchor treatments. The mid treatment's fitted cell is
    (1 - kappa) * b_s + kappa * n_s by construction. Reported standard
    errors are heteroskedasticity-robust; se_kappa_model is the
    classical one, kept for diagnostics.
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
    broad: Treatment
    narrow: Treatment
    mid: Treatment

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


def cell_wages(dataset: Dataset, drop_inconsistent: bool = True) -> dict[tuple[Treatment, Scenario], np.ndarray]:
    """Recorded wages per (treatment, scenario) cell, in record order.

    Keys run in declaration order, treatment first; cells with no
    observations after filtering are omitted.
    """
    obs = dataset.observations
    cell = obs.treatment * len(Scenario) + obs.scenario
    rows = np.flatnonzero(obs.consistent) if drop_inconsistent else np.arange(cell.size)
    cell = cell[rows]
    # a stable sort keeps record order inside each cell; int8 keys get numpy's radix sort
    grouped = obs.res_wage[rows[np.argsort(cell, kind="stable")]]
    parts = np.split(grouped, np.cumsum(np.bincount(cell, minlength=len(Treatment) * len(Scenario)))[:-1])
    return {key: part for key, part in zip(itertools.product(Treatment, Scenario), parts) if part.size}


def summarize_means(dataset: Dataset, drop_inconsistent: bool = True) -> list[CellSummary]:
    """Mean, spread, censoring share, and N per treatment x scenario.

    Cells with no observations after filtering are omitted; censored
    responses enter the mean at CENSOR_CODE.
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
    """Sample sizes, then per distinct pooled value in ascending order: its midrank, its count in x and its pooled count.

    Each sample's values are counted on their own and the counts merged
    over the union of values, so no observation is ranked one by one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptySample("both samples must be nonempty")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("samples must not contain NaN")
    (x_values, x_counts), (y_values, y_counts) = (np.unique(s, return_counts=True) for s in (x, y))
    # the union of values: np.union1d and a plain np.unique load numpy.ma on numpy 2.x (about 1.3 MB),
    # and return_inverse would page in numpy's argsort besides the sort the counts use
    values = np.unique(np.concatenate([x_values, y_values]), return_counts=True)[0]
    in_x = np.zeros(values.size, np.int64)
    in_x[np.searchsorted(values, x_values)] = x_counts
    counts = in_x.copy()
    counts[np.searchsorted(values, y_values)] += y_counts
    # midranks are exact half-integers, so any sum of their multiples is exact
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    return x.size, y.size, midranks, in_x, counts


def mwu_test(x, y, continuity: bool = False) -> MwuResult:
    """Two-sided rank-sum test via the tie-corrected normal approximation.

    W is the midrank sum of the first sample. The optional continuity
    correction shrinks W - E[W] by 0.5 toward zero; it is off by
    default. Zero variance (all values tied) gives z = 0, p = 1.
    """
    n1, n2, midranks, in_x, counts = _rank_setup(x, y)
    n_total = n1 + n2
    w = float((in_x * midranks).sum())
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
    n1, n2, midranks, in_x, counts = _rank_setup(x, y)
    n_total = n1 + n2
    if n_total > _EXACT_CAP:
        raise TooLarge(f"exact test capped at {_EXACT_CAP} pooled observations, got {n_total}")
    doubled = (2.0 * midranks).astype(np.int64)
    k = min(n1, n2)
    pooled = np.repeat(doubled, counts)  # each observation's doubled rank, ascending
    top = int(pooled[-k:].sum())
    subsets = np.zeros((k + 1, top + 1), dtype=np.int64)
    subsets[0, 0] = 1
    for w in pooled.tolist():
        subsets[1:, w:] += subsets[:-1, :-w].copy()
    # |W - E[W]| is the same for either sample: compare doubled sums exactly
    gap = abs(int((in_x * doubled).sum()) - n1 * (n_total + 1))
    far = np.abs(np.arange(top + 1) - k * (n_total + 1)) >= gap
    return int(subsets[k, far].sum()) / math.comb(n_total, k)


def _kappa_arrays(
    dataset: Dataset,
    broad_label: Treatment,
    narrow_label: Treatment,
    mid_label: Treatment,
    drop_inconsistent: bool = True,
):
    """Responses and their cells in record order, by default consistent scenarios only, and each cell's mean and count.

    A row's cell is 2 * group + scenario, for groups broad, narrow and
    mid. A cell's mean is its weighted bincount over its count, with the
    bits of y[cell == c].mean(): every recorded wage is a multiple of 1/4
    and at most 4.25 (RECORDED_WAGE), so every partial sum is exact in any
    order. A price list given as input must keep to that grid.
    """
    labels = {broad_label: 0, narrow_label: 1, mid_label: 2}
    if len(labels) != 3:
        raise ValueError("the three treatment labels must be distinct")
    obs = dataset.observations
    # the other treatments get a negative cell whatever the scenario
    cell_of = np.array([2 * labels.get(t, -1) for t in Treatment], dtype=np.int8)
    cell = cell_of[obs.treatment] + obs.scenario
    keep = cell >= 0
    if drop_inconsistent:
        keep &= obs.consistent
    rows = np.flatnonzero(keep)
    y, cell = obs.res_wage[rows], cell[rows]
    counts = np.bincount(cell, minlength=6)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        g, s = divmod(int(empty[0]), 2)
        raise Degenerate(
            f"no {'consistent ' if drop_inconsistent else ''}observations for "
            f"{(broad_label, narrow_label, mid_label)[g].value} in {_SCENARIOS[s].value}; "
            "kappa needs all three treatments in both scenarios"
        )
    means = (np.bincount(cell, weights=y, minlength=6) / counts).reshape(3, 2)
    if all(abs(means[0, s] - means[1, s]) < 1e-9 for s in range(2)):
        raise Degenerate(
            "broad and narrow cell means coincide in both scenarios; "
            "the bracketing weight is unidentified on this data"
        )
    return y, cell.astype(np.intp), means, counts.reshape(3, 2).astype(float)


def _kappa_fitted(theta: np.ndarray) -> np.ndarray:
    """Fitted value per cell, indexed by 2 * group + scenario."""
    b, n, kappa = theta[0:2], theta[2:4], theta[4]
    return np.concatenate([b, n, (1.0 - kappa) * b + kappa * n])


def _kappa_jac(theta: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Jacobian of the fitted values per row, gathered from a per-cell table."""
    b, n, kappa = theta[0:2], theta[2:4], theta[4]
    jac = np.zeros((6, 5))
    jac[[0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    jac[[4, 5], [0, 1]] = 1.0 - kappa
    jac[[4, 5], [2, 3]] = kappa
    jac[[4, 5], 4] = n - b
    return np.take(jac, cell, axis=0)


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
    means with kappa = 0.5. Each line-search trial's residual is computed
    once, and the accepted one carries into the next iteration and the rss.

    The estimand is the mixture share: under MixtureComposition the
    recorded cell means obey the model. Under KappaComposition each
    subject's continuous wage obeys it (quasi-linear preferences only:
    under CARA the broad frame of LOW counts the endowed money), but
    recording snaps wages to the grid and censors above it, a map that
    is not linear, so the estimate is biased: at 3,000 subjects per arm,
    seed 3 and no trembles it gives 0.632 at kappa 0.7, 0.235 at 0.3
    and 1.547 at 1.4.
    """
    y, cell, means, _ = _kappa_arrays(dataset, broad_label, narrow_label, mid_label, drop_inconsistent)
    theta = np.array([means[0, 0], means[0, 1], means[1, 0], means[1, 1], 0.5])
    resid = y - np.take(_kappa_fitted(theta), cell)
    rss = float(resid @ resid)
    for iterations in range(1, _MAX_ITER + 1):
        jac = _kappa_jac(theta, cell)
        score = jac.T @ resid  # half the gradient of the rss
        if float(np.linalg.norm(2.0 * score)) < _GRAD_TOL:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac.T @ jac, score, rcond=None)
        lam = 1.0
        while True:
            trial = y - np.take(_kappa_fitted(theta + lam * step), cell)
            rss_trial = float(trial @ trial)
            if not (rss_trial > rss and lam > 1e-12):
                break
            lam /= 2.0
        # the last trial is at the step taken, so its residual is the new one
        taken = lam * step
        theta, resid, rss = theta + taken, trial, rss_trial
        if float(np.linalg.norm(taken)) < _STEP_TOL:
            jac = _kappa_jac(theta, cell)
            converged = float(np.linalg.norm(2.0 * (jac.T @ resid))) < _GRAD_TOL
            break
    else:
        raise NotConverged(f"Gauss-Newton did not converge in {_MAX_ITER} iterations")

    # jac and resid are at the final theta
    bread = np.linalg.inv(jac.T @ jac)
    meat = jac.T @ (jac * (resid**2)[:, None])
    robust = bread @ meat @ bread
    dof = max(y.size - 5, 1)
    model_cov = (rss / dof) * bread
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
        converged=converged,
        rss=rss,
        n_obs=int(y.size),
        broad=broad_label,
        narrow=narrow_label,
        mid=mid_label,
    )


@functools.cache
def _kappa_blocks() -> np.ndarray:
    """The profile grid in rows of _KAPPA_BLOCK points, the last row padded with its last point.

    Built on first use, so a program that never runs the oracle does not hold it.
    """
    kappas = np.arange(_KAPPA_GRID[0], _KAPPA_GRID[1] + 1) / 1e4  # each point the double nearest i / 10^4
    blocks = np.pad(kappas, (0, -kappas.size % _KAPPA_BLOCK), mode="edge").reshape(-1, _KAPPA_BLOCK)
    blocks.flags.writeable = False
    return blocks


def _kappa_profile(kappas: np.ndarray, means: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concentrated least-squares objective at each kappa, elementwise."""
    u = 1.0 - kappas
    v = kappas
    total = np.zeros_like(kappas)
    for s in range(2):
        gap = u * means[0, s] + v * means[1, s] - means[2, s]
        n_b, n_n, n_m = counts[0, s], counts[1, s], counts[2, s]
        total += n_m * gap**2 / (1.0 + n_m * (u**2 / n_b + v**2 / n_n))
    return total


def _kappa_block_bounds(means: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """A lower bound of the evaluated profile over each row of _kappa_blocks()."""
    ends = _kappa_blocks()[:, [0, -1]].T
    m_b, m_n, m_m = means[:, :, None, None]  # scenario, block end, block
    n_b, n_n, n_m = counts[:, :, None, None]
    gap = (1.0 - ends) * m_b + ends * m_n - m_m
    # |gap| is linear in kappa, so least at an end unless it changes sign
    near = np.where(gap[:, 0] * gap[:, 1] <= 0.0, 0.0, np.abs(gap).min(axis=1))
    # the denominator is convex in kappa, so greatest at an end
    wide = (1.0 + n_m * ((1.0 - ends) ** 2 / n_b + ends**2 / n_n)).max(axis=1)
    reach = 2.0 * np.abs(means[0]) + 3.0 * np.abs(means[1]) + np.abs(means[2]) + 1.0  # at least |gap| + 1 on the grid
    margin = 1e-12 * float(counts[2] @ reach**2)
    return (n_m[:, 0] * near**2 / wide).sum(axis=0) - margin


def _kappa_profile_argmin(means: np.ndarray, counts: np.ndarray) -> float:
    """The first grid kappa at which the evaluated profile is least, by branch and bound."""
    blocks, bounds = _kappa_blocks(), _kappa_block_bounds(means, counts)
    best = _kappa_profile(blocks[int(np.argmin(bounds))], means, counts).min()
    kappas = blocks[bounds <= best].ravel()
    return float(kappas[int(np.argmin(_kappa_profile(kappas, means, counts)))])


def kappa_profile_oracle(
    dataset: Dataset,
    broad_label: Treatment = Treatment.BROAD,
    narrow_label: Treatment = Treatment.LOW,
    mid_label: Treatment = Treatment.NARROW,
) -> float:
    """Arg-min of the profiled kappa objective on a 1e-4 grid over [-1, 3].

    For each grid kappa the cell effects are concentrated out in closed
    form, so the returned arg-min of the joint least-squares objective is
    an independent check on nls_kappa.

    The grid is cut into blocks of 256 points, and only blocks that may
    hold the minimum are evaluated. Per scenario the gap between the mid
    cell and (1 - kappa) * broad + kappa * narrow is linear in kappa, so
    its magnitude is least at a block end unless it changes sign inside,
    and the denominator 1 + n_m * ((1 - kappa)^2 / n_b + kappa^2 / n_n) is
    convex, so greatest at a block end. Their ratio bounds the block from
    below, less a margin of 1e-12 * n_m * (2|m_b| + 3|m_n| + |m_m| + 1)^2
    per scenario: on the grid |1 - kappa| <= 2 and |kappa| <= 3, so the
    margin is over 200 times the rounding error of an evaluated point or
    of the bound. The block of least bound is evaluated, then every block
    whose bound does not exceed its minimum; a skipped block's every value
    exceeds one already found, so the result is the first arg-min over the
    full grid, ties included, bit for bit.
    """
    *_, means, counts = _kappa_arrays(dataset, broad_label, narrow_label, mid_label)
    return _kappa_profile_argmin(means, counts)


def _tobit_loglik(theta, y, X, limit, cens, counts):
    """Log-likelihood, gradient and Hessian in theta = (delta, tau) = (beta/sigma, 1/sigma).

    An uncensored row adds log tau - log(2 pi)/2 - e^2/2 with e = tau*y - x.delta,
    a censored row log Phi(x.delta - tau*limit); both are concave in theta.
    Each row enters counts times.
    """
    tau, w = theta[-1], counts[~cens]
    n_unc = int(w.sum())
    d = np.column_stack([-X[~cens], y[~cens]])
    e = d @ theta
    ll = n_unc * (math.log(tau) - 0.5 * math.log(2.0 * math.pi)) - 0.5 * float((w * e) @ e)
    grad, hess = -(d.T @ (w * e)), -(d.T @ (d * w[:, None]))
    grad[-1] += n_unc / tau
    hess[-1, -1] -= n_unc / tau**2
    if cens.any():
        w = counts[cens]
        v = np.column_stack([X[cens], np.full(cens.sum(), -limit)])
        a = v @ theta
        log_cdf = log_ndtr(a)
        lam = np.exp(-0.5 * a**2 - 0.5 * math.log(2.0 * math.pi) - log_cdf)
        ll += float(w @ log_cdf)
        grad += v.T @ (w * lam)
        hess -= v.T @ (v * (w * lam * (a + lam))[:, None])
    return ll, grad, hess


def _inverse_information(hess):
    """(-H)^-1; a numerically singular -H means the optimum is not interior."""
    if np.linalg.matrix_rank(-hess) < len(hess):
        raise NotConverged("information matrix is singular")
    return np.linalg.inv(-hess)


def tobit_right(y, X, limit: float = CENSOR_CODE) -> TobitFit:
    """Right-censored Tobit by Newton's method in (beta/sigma, 1/sigma).

    Responses at or above the limit, which must be finite, are censored,
    +inf included. A NaN or -inf response, or a NaN or infinite entry of
    X, raises ValueError. Rows with equal (x, y) enter once, weighted by
    their count, in the order np.lexsort gives their bits (see
    experiment._distinct_rows), so the fit does not depend on the order of
    the rows. A price list records one of 17 wages, so on arm dummies, as
    estimate tobit fits them, each arm adds at most 17 rows to a sum.
    Starts from least squares on the uncensored rows, after raising
    NotConverged for a column of X that is zero on every uncensored row
    and of one sign on the censored rows, along which the likelihood rises
    without bound. The log-likelihood is concave in these parameters
    (Olsen 1978, Econometrica 46:1211): steps are halved until it rises,
    and the fit ends with a full step once the Newton decrement
    g.(-H)^-1.g is below 1e-9 * max(1, |loglik|). Standard errors map the
    inverse negative Hessian to (beta, sigma) by the delta method.
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
    if np.isnan(y).any() or (y == -math.inf).any():
        raise ValueError("responses must not be NaN or -inf")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficient("covariate matrix is rank deficient")
    first, inverse = _distinct_rows([column.view(np.uint64) for column in (*X.T, y)])
    y, X, counts = y[first], X[first], np.bincount(inverse)
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

    weight = counts[~cens]
    root = np.sqrt(weight)
    beta0, *_ = np.linalg.lstsq(X[~cens] * root[:, None], y[~cens] * root, rcond=None)
    resid0 = y[~cens] - X[~cens] @ beta0
    sigma0 = max(float(np.sqrt(weight @ resid0**2 / weight.sum())), 1e-2)
    theta = np.append(beta0, 1.0) / sigma0
    ll, grad, hess = _tobit_loglik(theta, y, X, limit, cens, counts)
    for iterations in range(1, _MAX_ITER + 1):
        step = _inverse_information(hess) @ grad
        # near the optimum the predicted gain is below the rounding of ll,
        # so the last step is taken whole rather than line-searched
        if grad @ step < _NEWTON_TOL * max(1.0, abs(ll)):
            theta = theta + step
            ll, grad, hess = _tobit_loglik(theta, y, X, limit, cens, counts)
            break
        t = 1.0
        while t > 1e-12:
            theta_t = theta + t * step
            if theta_t[-1] > 0 and (fit_t := _tobit_loglik(theta_t, y, X, limit, cens, counts))[0] > ll:
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
        n_censored=int(counts[cens].sum()),
        n_uncensored=int(counts[~cens].sum()),
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
    size is inflated by pi/3, the inverse of the rank-sum test's
    efficiency against the t test at the normal (3/pi); over shift
    families it can fall to 108/125 (Hodges and Lehmann 1956). Inputs
    whose required size is not a finite number, such as a d so small
    that d**2 is 0, raise InvalidParams.
    """
    if not (0 < d < math.inf and 0 < alpha < 1 and 0.5 < power < 1 and 1 <= ratio < math.inf):
        raise InvalidParams("need finite d > 0, alpha in (0,1), power in (0.5,1), finite ratio >= 1")
    z = float(ndtri(1 - alpha / 2.0) + ndtri(power))
    try:
        raw = (1.0 + 1.0 / ratio) * z**2 / d**2
    except (OverflowError, ZeroDivisionError):  # d**2 leaves the float range
        raw = 0.0 if d > 1 else math.inf
    if wilcoxon_are:
        raw *= math.pi / 3.0
    if not math.isfinite(ratio * raw):
        raise InvalidParams(f"the required sample size is not finite (d={d}, alpha={alpha}, ratio={ratio})")
    n_small = max(1, math.ceil(raw))
    n_large = max(1, math.ceil(ratio * raw))
    return n_large, n_small
