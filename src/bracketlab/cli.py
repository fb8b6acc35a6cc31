"""Command-line surface: simulate, estimate, power, verify.

Exit codes are a stable contract: 0 on success, 1 when estimation,
verification, or file IO fails, 2 on usage errors including malformed
configuration.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .agents import CENSOR_CODE, ModeUnsupported, NoIndifference
from .config import ConfigError, parse_config
from .design import Scenario, Treatment
from .estimation import (
    AllCensored,
    Degenerate,
    EmptySample,
    InvalidParams,
    NotConverged,
    RankDeficient,
    cell_wages,
    mwu_test,
    nls_kappa,
    power_two_sample,
    summarize_means,
    tobit_right,
)
from .experiment import DataFormatError, read_csv, simulate_dataset, write_csv
from .preferences import NonMonotoneModel
from .reports import (
    MwuRow,
    render_kappa_csv,
    render_kappa_markdown,
    render_means_csv,
    render_means_markdown,
    render_mwu_csv,
    render_mwu_markdown,
    render_tobit_csv,
    render_tobit_markdown,
    render_verify_csv,
    render_verify_markdown,
    render_verify_text,
)
from .theory import SUITES, verify_rows

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """A flag that the chosen command does not use."""


_FAILURES = (
    EmptySample,
    Degenerate,
    NotConverged,
    AllCensored,
    RankDeficient,
    DataFormatError,
    NoIndifference,
    NonMonotoneModel,
    ModeUnsupported,
    OSError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracketlab",
        description="Simulate, estimate, and verify work/money choice-bracketing designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic price-list dataset")
    sim.add_argument("--config", required=True, help="INI run configuration")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument(
        "--workers", type=int, default=None, help="accepted for compatibility; no effect on output or speed"
    )
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate statistics from a dataset CSV")
    est.add_argument("stat", choices=("means", "mwu", "kappa", "tobit"))
    est.add_argument("--data", required=True, help="dataset CSV path")
    est.add_argument("--out", required=True, help="report output directory")
    est.add_argument("--config", default=None, help="optional INI with [estimators] defaults")
    est.add_argument(
        "--censor-limit", type=float, default=None, help="tobit only: responses at or above it are censored"
    )
    est.add_argument(
        "--continuity", action="store_true", default=None, help="mwu only: continuity-corrected z statistic"
    )
    est.add_argument(
        "--keep-inconsistent",
        action="store_true",
        default=None,
        help="every stat: keep non-monotone price lists, coded at their first accepted wage",
    )
    est.set_defaults(func=cmd_estimate)

    pwr = sub.add_parser("power", help="two-sample sample-size calculation")
    pwr.add_argument("--d", type=float, required=True, help="standardized effect size")
    pwr.add_argument("--alpha", type=float, default=0.05)
    pwr.add_argument("--power", type=float, default=0.90)
    pwr.add_argument("--ratio", type=float, default=1.0, help="larger/smaller group ratio")
    pwr.add_argument("--are", action="store_true", help="inflate by the rank-sum efficiency bound")
    pwr.set_defaults(func=cmd_power)

    ver = sub.add_parser("verify", help="run the identification check suites")
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--out", default=None, help="optional report output directory")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParams, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    config = parse_config(args.config, seed_override=args.seed)
    workers = args.workers if args.workers is not None else config.workers
    if workers < 1:
        raise ConfigError("--workers must be at least 1")
    dataset = simulate_dataset(config.population, workers=workers)
    write_csv(dataset, args.out)
    print(f"wrote {len(dataset)} subjects to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- estimate


def _resolved_options(args):
    """Flag > config > built-in default for the estimator options.

    A flag given to a stat that does not use it is rejected; config
    values are defaults and apply only where they have an effect. The
    censor limit flag must be finite, as parse_config checks the config
    value: y >= nan holds for no row, which would fit an uncensored model.
    """
    if args.censor_limit is not None and args.stat != "tobit":
        raise UsageError("--censor-limit applies only to estimate tobit")
    if args.continuity is not None and args.stat != "mwu":
        raise UsageError("--continuity applies only to estimate mwu")
    if args.config is not None:
        cfg = parse_config(args.config, require_seed=False)
        censor, continuity, keep = cfg.censor_limit, cfg.continuity, not cfg.drop_inconsistent
    else:
        censor, continuity, keep = CENSOR_CODE, False, False
    if args.censor_limit is not None:
        if not math.isfinite(args.censor_limit):
            raise UsageError(f"--censor-limit must be finite, got {args.censor_limit}")
        censor = args.censor_limit
    if args.continuity is not None:
        continuity = args.continuity
    if args.keep_inconsistent is not None:
        keep = args.keep_inconsistent
    return censor, continuity, not keep


def _write_reports(out_dir: str, stem: str, markdown: str, csv_text: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.md").write_text(markdown, encoding="utf-8")
    (out / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
    print(f"wrote {out / f'{stem}.md'} and {out / f'{stem}.csv'}")


def cmd_estimate(args) -> int:
    censor, continuity, drop = _resolved_options(args)
    dataset = read_csv(args.data)
    if args.stat == "means":
        cells = summarize_means(dataset, drop_inconsistent=drop)
        if not cells:
            raise EmptySample("no scenario observations after filtering")
        _write_reports(args.out, "means", render_means_markdown(cells), render_means_csv(cells))
    elif args.stat == "mwu":
        wages = cell_wages(dataset, drop)
        rows = []
        for scenario in Scenario:
            present = [t for t in Treatment if (t, scenario) in wages]
            for i, t_a in enumerate(present):
                for t_b in present[i + 1 :]:
                    x, y = wages[(t_a, scenario)], wages[(t_b, scenario)]
                    rows.append(
                        MwuRow(scenario, t_a, t_b, len(x), len(y), mwu_test(x, y, continuity))
                    )
        if not rows:
            raise EmptySample("need at least two treatments with data in one scenario")
        _write_reports(args.out, "mwu", render_mwu_markdown(rows), render_mwu_csv(rows))
    elif args.stat == "kappa":
        fit = nls_kappa(dataset, drop_inconsistent=drop)
        _write_reports(args.out, "kappa", render_kappa_markdown(fit), render_kappa_csv(fit))
    else:
        fits = _tobit_fits(dataset, drop, censor)
        _write_reports(args.out, "tobit", render_tobit_markdown(fits), render_tobit_csv(fits))
    return EXIT_OK


def _tobit_fits(dataset, drop_inconsistent, censor):
    """Per scenario: reservation wage on an intercept plus arm dummies.

    The first treatment present (in declaration order) is the baseline.
    """
    wages = cell_wages(dataset, drop_inconsistent)
    fits = []
    for scenario in Scenario:
        present = [t for t in Treatment if (t, scenario) in wages]
        if not present:
            continue
        cells = [wages[(t, scenario)] for t in present]
        arm = np.repeat(np.arange(len(cells)), [c.size for c in cells])
        X = np.column_stack([np.ones(arm.size)] + [(arm == k).astype(float) for k in range(1, len(cells))])
        names = ["const"] + [t.value for t in present[1:]]
        fits.append((scenario, names, tobit_right(np.concatenate(cells), X, limit=censor)))
    if not fits:
        raise EmptySample("no scenario observations after filtering")
    return fits


# ------------------------------------------------------------------- power


def cmd_power(args) -> int:
    n_large, n_small = power_two_sample(args.d, args.alpha, args.power, args.ratio, args.are)
    print(f"n_large={n_large} n_small={n_small}")
    return EXIT_OK


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    rows = verify_rows(args.suite)
    print(render_verify_text(rows), end="")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify.md").write_text(render_verify_markdown(rows), encoding="utf-8")
        (out / "verify.csv").write_text(render_verify_csv(rows), encoding="utf-8")
    return EXIT_OK if all(r.ok for r in rows) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
