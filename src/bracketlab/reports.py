"""Deterministic markdown and CSV rendering of run artifacts.

Every renderer is a pure function from typed results to a string with
fixed column order, 4-decimal rounding, and LF line endings, so the
outputs are byte-stable and safe to pin as golden files.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

from .design import Scenario, Treatment
from .estimation import CellSummary, KappaFit, MwuResult, TobitFit
from .theory import VerifyRow

__all__ = [
    "MwuRow",
    "render_means_markdown",
    "render_means_csv",
    "render_mwu_markdown",
    "render_mwu_csv",
    "render_kappa_markdown",
    "render_kappa_csv",
    "render_tobit_markdown",
    "render_tobit_csv",
    "render_verify_text",
    "render_verify_markdown",
    "render_verify_csv",
]


def _f4(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        x = 0.0  # avoid "-0.0000"
    return f"{x:.4f}"


def _pct(x: float) -> str:
    return f"{x:.0%}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "---|" * len(headers),
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


# ------------------------------------------------------------------- means


def render_means_markdown(cells: Sequence[CellSummary]) -> str:
    rows = [
        (c.treatment.value, c.scenario.value, str(c.n), _f4(c.mean), _f4(c.sd), _pct(c.share_censored))
        for c in cells
    ]
    table = _table(("treatment", "scenario", "n", "mean", "sd", "censored"), rows)
    return f"# reservation wage cells\n\n{table}\n"


def render_means_csv(cells: Sequence[CellSummary]) -> str:
    rows = [
        (
            c.treatment.value,
            c.scenario.value,
            str(c.n),
            _f4(c.mean),
            _f4(c.sd),
            _f4(c.share_censored),
        )
        for c in cells
    ]
    return _csv(("treatment", "scenario", "n", "mean", "sd", "share_censored"), rows)


# --------------------------------------------------------------------- mwu


@dataclass(frozen=True)
class MwuRow:
    """One pairwise comparison, already computed."""

    scenario: Scenario
    treatment_a: Treatment
    treatment_b: Treatment
    n_a: int
    n_b: int
    result: MwuResult


def render_mwu_markdown(rows: Sequence[MwuRow]) -> str:
    parts = ["# pairwise rank-sum tests"]
    for scenario in Scenario:
        in_scope = [r for r in rows if r.scenario is scenario]
        if not in_scope:
            continue
        body = [
            (
                f"{r.treatment_a.value} vs {r.treatment_b.value}",
                f"{r.n_a}/{r.n_b}",
                _f4(r.result.w),
                _f4(r.result.z),
                _f4(r.result.p),
            )
            for r in in_scope
        ]
        parts.append(f"## {scenario.value}")
        parts.append(_table(("pair", "n", "w", "z", "p"), body))
    return "\n\n".join(parts) + "\n"


def render_mwu_csv(rows: Sequence[MwuRow]) -> str:
    body = [
        (
            r.scenario.value,
            r.treatment_a.value,
            r.treatment_b.value,
            str(r.n_a),
            str(r.n_b),
            _f4(r.result.w),
            _f4(r.result.z),
            _f4(r.result.p),
            "1" if r.result.tie_corrected else "0",
            "1" if r.result.continuity else "0",
        )
        for r in rows
    ]
    headers = (
        "scenario",
        "treatment_a",
        "treatment_b",
        "n_a",
        "n_b",
        "w",
        "z",
        "p",
        "tie_corrected",
        "continuity",
    )
    return _csv(headers, body)


# ------------------------------------------------------------------- kappa


def _kappa_rows(fit: KappaFit) -> list[tuple[str, float, float]]:
    rows = []
    for i, scenario in enumerate(Scenario):
        rows.append((f"{fit.broad.value} mean {scenario.value}", fit.b_s[i], fit.se_b_s[i]))
    for i, scenario in enumerate(Scenario):
        rows.append((f"{fit.narrow.value} mean {scenario.value}", fit.n_s[i], fit.se_n_s[i]))
    rows.append(("kappa", fit.kappa, fit.se_kappa))
    return rows


def render_kappa_markdown(fit: KappaFit) -> str:
    body = [(name, f"{_f4(est)} ({_f4(se)})") for name, est, se in _kappa_rows(fit)]
    table = _table(("parameter", "estimate (se)"), body)
    fitted = ", ".join(
        f"{scenario.value} {_f4(fit.fitted_mid(i))}" for i, scenario in enumerate(Scenario)
    )
    notes = "\n".join(
        [
            f"- anchors: broad={fit.broad.value}, narrow={fit.narrow.value}, mid={fit.mid.value}",
            f"- fitted {fit.mid.value} cells: {fitted}",
            f"- model-based se(kappa): {_f4(fit.se_kappa_model)}",
            f"- converged: {'yes' if fit.converged else 'NO'} in {fit.iterations} iterations",
            f"- rss {_f4(fit.rss)} on {fit.n_obs} scenario observations",
        ]
    )
    return f"# bracketing weight fit\n\n{table}\n\n{notes}\n"


def render_kappa_csv(fit: KappaFit) -> str:
    body = [(name, _f4(est), _f4(se)) for name, est, se in _kappa_rows(fit)]
    body.append(("se_kappa_model", _f4(fit.se_kappa_model), ""))
    body.append(("iterations", str(fit.iterations), ""))
    body.append(("converged", "1" if fit.converged else "0", ""))
    body.append(("rss", _f4(fit.rss), ""))
    body.append(("n_obs", str(fit.n_obs), ""))
    return _csv(("parameter", "estimate", "se"), body)


# ------------------------------------------------------------------- tobit


def render_tobit_markdown(fits: Sequence[tuple[Scenario, Sequence[str], TobitFit]]) -> str:
    parts = ["# censored regressions of the reservation wage"]
    for scenario, names, fit in fits:
        body = [
            (name, f"{_f4(coef)} ({_f4(se)})")
            for name, coef, se in zip(names, fit.beta, fit.se)
        ]
        body.append(("sigma", f"{_f4(fit.sigma)} ({_f4(fit.se_sigma)})"))
        parts.append(f"## {scenario.value}")
        parts.append(_table(("term", "coef (se)"), body))
        parts.append(
            f"- log-likelihood {_f4(fit.loglik)}, "
            f"{fit.n_censored} censored / {fit.n_uncensored} uncensored"
        )
    return "\n\n".join(parts) + "\n"


def render_tobit_csv(fits: Sequence[tuple[Scenario, Sequence[str], TobitFit]]) -> str:
    body = []
    for scenario, names, fit in fits:
        for name, coef, se in zip(names, fit.beta, fit.se):
            body.append((scenario.value, name, _f4(coef), _f4(se)))
        body.append((scenario.value, "sigma", _f4(fit.sigma), _f4(fit.se_sigma)))
        body.append((scenario.value, "loglik", _f4(fit.loglik), ""))
        body.append((scenario.value, "n_censored", str(fit.n_censored), ""))
        body.append((scenario.value, "n_uncensored", str(fit.n_uncensored), ""))
    return _csv(("scenario", "term", "coef", "se"), body)


# ------------------------------------------------------------------ verify


def render_verify_text(rows: Sequence[VerifyRow]) -> str:
    lines = []
    for suite in dict.fromkeys(r.suite for r in rows):
        in_scope = [r for r in rows if r.suite == suite]
        expected_fails = sum(r.status == "expected violation" for r in in_scope)
        failed = [r for r in in_scope if not r.ok]
        verdict = "FAIL" if failed else "PASS"
        note = f", {expected_fails} expected violation(s)" if expected_fails else ""
        lines.append(f"{suite}: {verdict} ({len(in_scope)} check(s){note})")
        for r in in_scope:
            if not r.ok:
                lines.append(f"  FAIL {r.model} {r.metric}={r.value} (expected {r.expected})")
    overall = "PASS" if all(r.ok for r in rows) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"


def render_verify_markdown(rows: Sequence[VerifyRow]) -> str:
    body = [(r.suite, r.model, r.metric, r.value, r.expected, r.status) for r in rows]
    table = _table(("suite", "model", "metric", "value", "expected", "status"), body)
    overall = "PASS" if all(r.ok for r in rows) else "FAIL"
    return f"# identification checks\n\n{table}\n\noverall: {overall}\n"


def render_verify_csv(rows: Sequence[VerifyRow]) -> str:
    body = [(r.suite, r.model, r.metric, r.value, r.expected, r.status) for r in rows]
    return _csv(("suite", "model", "metric", "value", "expected", "status"), body)
