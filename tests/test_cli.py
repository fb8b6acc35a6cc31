"""Command-line contract: exit codes, determinism, golden reports."""
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import records_from_wages
from bracketlab import cli, experiment, theory
from bracketlab.agents import ModeUnsupported, NoIndifference
from bracketlab.cli import main
from bracketlab.config import parse_config
from bracketlab.estimation import nls_kappa
from bracketlab.design import CENSOR_CODE, Treatment
from bracketlab.experiment import (
    CSV_COLUMNS,
    Dataset,
    ScenarioOutcome,
    SubjectRecord,
    read_csv,
    simulate_dataset,
    write_csv,
)
from bracketlab.preferences import NonMonotoneModel
from bracketlab.reports import render_kappa_csv

DATA = Path(__file__).parent / "data"
GOLDEN_INI = str(DATA / "golden_run.ini")
GOLDEN_CSV = str(DATA / "golden_data.csv")


def golden(name: str) -> bytes:
    return (DATA / name).read_bytes()


# ---------------------------------------------------------------- simulate


def test_simulate_is_deterministic_across_workers(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", GOLDEN_INI, "--out", str(a)]) == 0
    assert main(["simulate", "--config", GOLDEN_INI, "--out", str(b), "--workers", "4"]) == 0
    assert a.read_bytes() == b.read_bytes() == golden("golden_data.csv")


def test_simulate_round_trip_matches_memory(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["simulate", "--config", GOLDEN_INI, "--out", str(out)]) == 0
    config = parse_config(GOLDEN_INI)
    assert read_csv(str(out)) == simulate_dataset(config.population)


def test_simulate_seed_override_changes_output(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["simulate", "--config", GOLDEN_INI, "--out", str(out), "--seed", "99"]) == 0
    assert out.read_bytes() != golden("golden_data.csv")


def test_simulate_missing_seed_is_usage_error(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[population]\nbroad = 5\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "[population] seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"x\n", "File contains no section headers"),
        (b"[population]\nseed = 1\nseed = 2\n", "option 'seed' in section 'population' already exists"),
        (b"[population]\nseed = 1\n# caf\xe9\n", "can't decode byte 0xe9"),
    ],
    ids=["no-section-header", "duplicate-option", "not-utf-8"],
)
def test_malformed_config_is_a_one_line_config_error(tmp_path, capsys, content, message):
    config = tmp_path / "bad.ini"
    config.write_bytes(content)
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "d.csv").exists()


def test_simulate_without_indifference_is_a_one_line_failure(tmp_path, capsys):
    # at rho = -1000 the CARA utilities overflow to NaN, so no wage in the
    # search bracket can be an indifference point
    config = tmp_path / "run.ini"
    config.write_text("[population]\nbroad = 5\nseed = 0\nrho = -1000\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "BROAD S1" in err and "BROAD-0000" in err


def test_simulate_censors_a_wage_above_the_bracket(tmp_path, capsys):
    # CARA utility is bounded by 1/rho: at rho = 0.02 subject 17 of seed 238
    # has no BROAD S2 wage in [-100, 100] that pays for 15 more tasks
    config = tmp_path / "run.ini"
    config.write_text(
        "[population]\nbroad = 18\nseed = 238\nkappa = 0.7\nrho = 0.02\n"
        "gamma_lo = 1.8\ngamma_hi = 2.2\ntremble = 0\n",
        encoding="utf-8",
    )
    out = tmp_path / "d.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    row = next(line for line in out.read_text().splitlines() if line.startswith("BROAD-0017,BROAD,S2,"))
    assert row.split(",")[19:21] == ["4.25", "1"]  # res_wage, censored


def test_simulate_and_estimate_build_no_records(tmp_path, monkeypatch):
    built = []

    def counting(validate):
        return lambda self: built.append(self) or validate(self)

    for cls in (SubjectRecord, ScenarioOutcome):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
    data = tmp_path / "d.csv"
    assert main(["simulate", "--config", GOLDEN_INI, "--out", str(data)]) == 0
    for stat in ("means", "mwu", "kappa", "tobit"):
        assert main(["estimate", stat, "--data", str(data), "--out", str(tmp_path)]) == 0
    assert len(built) == 0


@pytest.mark.parametrize("failure", [NoIndifference, NonMonotoneModel, ModeUnsupported])
def test_model_failures_exit_one(tmp_path, capsys, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure("no answer")

    monkeypatch.setattr(cli, "simulate_dataset", fail)
    rc = main(["simulate", "--config", GOLDEN_INI, "--out", str(tmp_path / "d.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: no answer\n"


# ---------------------------------------------------------------- estimate


@pytest.mark.parametrize("crlf", [False, True], ids=["golden_data", "crlf-copy"])
@pytest.mark.parametrize("stat", ["means", "mwu", "kappa", "tobit"])
def test_estimate_matches_golden_reports(tmp_path, stat, crlf):
    # the columnar reader reads the golden file and declines its CRLF copy, which the per-line loop reads
    data = golden("golden_data.csv")
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert (experiment._read_columns(data.decode("utf-8")) is None) == crlf
    rc = main(["estimate", stat, "--data", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / f"{stat}.md").read_bytes() == golden(f"golden_{stat}.md")
    assert (tmp_path / f"{stat}.csv").read_bytes() == golden(f"golden_{stat}.csv")


def test_keep_inconsistent_grows_cells(tmp_path):
    rc = main(
        ["estimate", "means", "--data", GOLDEN_CSV, "--out", str(tmp_path), "--keep-inconsistent"]
    )
    assert rc == 0
    text = (tmp_path / "means.csv").read_text(encoding="utf-8")
    row = next(line for line in text.splitlines() if line.startswith("BROAD,S1"))
    assert row.split(",")[2] == "40"  # every simulated subject kept


@pytest.mark.parametrize("source", ["flag", "config"])
def test_kappa_keep_inconsistent_uses_every_row(tmp_path, source):
    argv = ["estimate", "kappa", "--data", GOLDEN_CSV, "--out", str(tmp_path)]
    if source == "flag":
        argv.append("--keep-inconsistent")
    else:
        config = tmp_path / "est.ini"
        config.write_text("[population]\n\n[estimators]\nkeep_inconsistent = true\n", encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 0
    text = (tmp_path / "kappa.csv").read_text(encoding="utf-8")
    assert text.encode() != golden("golden_kappa.csv")
    assert (tmp_path / "kappa.md").read_bytes() != golden("golden_kappa.md")
    assert "n_obs,240," in text  # 127 consistent + 113 inconsistent scenario rows
    assert text == render_kappa_csv(nls_kappa(read_csv(GOLDEN_CSV), drop_inconsistent=False))


def test_kappa_default_config_drops_inconsistent(tmp_path):
    config = tmp_path / "est.ini"
    config.write_text("[population]\n\n[estimators]\nkeep_inconsistent = false\n", encoding="utf-8")
    argv = ["estimate", "kappa", "--data", GOLDEN_CSV, "--out", str(tmp_path), "--config", str(config)]
    assert main(argv) == 0
    assert (tmp_path / "kappa.md").read_bytes() == golden("golden_kappa.md")
    assert (tmp_path / "kappa.csv").read_bytes() == golden("golden_kappa.csv")


def test_kappa_degenerate_surfaces_remediation(tmp_path, capsys):
    # keep only two treatments, so the weight is not estimable
    lines = Path(GOLDEN_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [lines[0]] + [ln for ln in lines[1:] if not ln.startswith("LOW")]
    data = tmp_path / "twoarm.csv"
    data.write_text("".join(kept), encoding="utf-8")
    rc = main(["estimate", "kappa", "--data", str(data), "--out", str(tmp_path)])
    assert rc == 1
    assert "all three treatments" in capsys.readouterr().err


def test_estimate_schema_error_has_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    lines = Path(GOLDEN_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace("S2", "S9", 1)
    bad.write_text("".join(lines), encoding="utf-8")
    rc = main(["estimate", "means", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_estimate_non_utf8_data_is_a_one_line_failure(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    text = Path(GOLDEN_CSV).read_bytes()
    cut = text.index(b"\n", 1000) + 1
    bad.write_bytes(text[:cut] + b"\xff" + text[cut:])
    rc = main(["estimate", "means", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: not UTF-8 text: byte {cut} (invalid start byte)\n"
    assert not (tmp_path / "means.csv").exists()


def test_estimate_missing_file_is_failure(tmp_path, capsys):
    rc = main(["estimate", "means", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 1


def test_estimate_config_defaults_and_flag_override(tmp_path):
    config = tmp_path / "est.ini"
    config.write_text(
        "[population]\nseed = 1\n\n[estimators]\nkeep_inconsistent = true\n", encoding="utf-8"
    )
    rc = main(
        ["estimate", "means", "--data", GOLDEN_CSV, "--out", str(tmp_path), "--config", str(config)]
    )
    assert rc == 0
    text = (tmp_path / "means.csv").read_text(encoding="utf-8")
    assert next(l for l in text.splitlines() if l.startswith("BROAD,S1")).split(",")[2] == "40"


@pytest.mark.parametrize("stat", ["means", "mwu", "kappa", "tobit"])
@pytest.mark.parametrize(
    "flag, owner", [(["--censor-limit", "3.5"], "tobit"), (["--continuity"], "mwu")]
)
def test_estimator_flags_apply_to_one_stat(tmp_path, capsys, stat, flag, owner):
    rc = main(["estimate", stat, "--data", GOLDEN_CSV, "--out", str(tmp_path)] + flag)
    err = capsys.readouterr().err
    if stat == owner:
        assert rc == 0 and err == ""
        assert (tmp_path / f"{stat}.csv").read_bytes() != golden(f"golden_{stat}.csv")
    else:
        assert rc == 2
        assert err == f"usage error: {flag[0]} applies only to estimate {owner}\n"
        assert not (tmp_path / f"{stat}.csv").exists()


def test_estimator_config_values_are_defaults_not_errors(tmp_path):
    config = tmp_path / "est.ini"
    config.write_text("[population]\n\n[estimators]\ncensor_limit = 3.5\ncontinuity = true\n", encoding="utf-8")
    for stat in ("means", "kappa"):
        argv = ["estimate", stat, "--data", GOLDEN_CSV, "--out", str(tmp_path), "--config", str(config)]
        assert main(argv) == 0
        assert (tmp_path / f"{stat}.csv").read_bytes() == golden(f"golden_{stat}.csv")


def test_estimators_only_config_applies_to_estimate(tmp_path):
    # [population] is required only by simulate
    config = tmp_path / "est.ini"
    config.write_text("[estimators]\ncontinuity = true\n", encoding="utf-8")
    rc = main(["estimate", "mwu", "--data", GOLDEN_CSV, "--out", str(tmp_path), "--config", str(config)])
    assert rc == 0
    header, *rows = (tmp_path / "mwu.csv").read_text(encoding="utf-8").splitlines()
    assert header.endswith(",continuity") and rows and {row.rsplit(",", 1)[1] for row in rows} == {"1"}


@pytest.mark.parametrize("limit", ["nan", "inf", "-inf"])
def test_non_finite_censor_limit_flag_is_a_usage_error(tmp_path, capsys, limit):
    rc = main(["estimate", "tobit", "--data", GOLDEN_CSV, "--out", str(tmp_path), f"--censor-limit={limit}"])
    assert rc == 2
    assert capsys.readouterr().err == f"usage error: --censor-limit must be finite, got {float(limit)}\n"
    assert not (tmp_path / "tobit.csv").exists()


@pytest.mark.parametrize("stat", ["tobit", "means"])
def test_non_finite_censor_limit_config_is_a_config_error(tmp_path, capsys, stat):
    config = tmp_path / "est.ini"
    config.write_text("[population]\n\n[estimators]\ncensor_limit = nan\n", encoding="utf-8")
    rc = main(["estimate", stat, "--data", GOLDEN_CSV, "--out", str(tmp_path), "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: [estimators] censor_limit: must be finite, got nan\n"
    assert not (tmp_path / f"{stat}.csv").exists()


def test_removed_are_key_is_a_config_error(tmp_path, capsys):
    # power takes --are as a flag; the config key was never read
    config = tmp_path / "est.ini"
    config.write_text("[population]\n\n[estimators]\nare = true\n", encoding="utf-8")
    rc = main(["estimate", "means", "--data", GOLDEN_CSV, "--out", str(tmp_path), "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == "config error: unknown key 'are' in section [estimators]\n"
    assert not (tmp_path / "means.csv").exists()


def test_tobit_without_a_maximum_is_a_one_line_failure(tmp_path, capsys):
    # every LOW S1 response is censored, so that arm's effect has no finite estimate
    data = tmp_path / "d.csv"
    wages = [1.0, 2.0, 3.0, 2.0, 1.5]
    records = records_from_wages(Treatment.BROAD, wages, wages) + records_from_wages(
        Treatment.LOW, [CENSOR_CODE] * 5, wages[::-1]
    )
    write_csv(Dataset(tuple(records)), str(data))
    rc = main(["estimate", "tobit", "--data", str(data), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no maximum" in err
    assert not (tmp_path / "tobit.csv").exists()


def test_unknown_stat_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "median", "--data", GOLDEN_CSV, "--out", str(tmp_path)])
    assert exc.value.code == 2


# ------------------------------------------------------------------- power


def test_power_prints_allocation(capsys):
    assert main(["power", "--d", "0.4", "--ratio", "1.5", "--are"]) == 0
    assert capsys.readouterr().out == "n_large=172 n_small=115\n"
    assert main(["power", "--d", "0.4"]) == 0
    assert capsys.readouterr().out == "n_large=132 n_small=132\n"


def test_power_invalid_flags_are_usage_errors(capsys):
    assert main(["power", "--d", "0"]) == 2
    assert main(["power", "--d", "0.4", "--ratio", "0.5"]) == 2
    capsys.readouterr()


def test_power_missing_d_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["power"])
    assert exc.value.code == 2


# -------------------------------------------------------------- contract


def _estimate_on(tmp_path, stat, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return ["estimate", stat, "--data", str(path), "--out", str(tmp_path)]


def _golden_data_with_line_2(tmp_path, old, new):
    lines = Path(GOLDEN_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
    assert old in lines[1]
    lines[1] = lines[1].replace(old, new, 1)
    return _estimate_on(tmp_path, "means", "".join(lines))


def _golden_rows(column, value):
    """The golden header and the golden data rows whose column holds value."""
    header, *rows = Path(GOLDEN_CSV).read_text(encoding="utf-8").splitlines(keepends=True)
    k = CSV_COLUMNS.index(column)
    return header + "".join(row for row in rows if row.split(",")[k] == value)


def _golden_config_with_seed(tmp_path, seed, *population_lines):
    path = tmp_path / "run.ini"
    lines = "\n".join([f"seed = {seed}", *population_lines])
    path.write_text(Path(GOLDEN_INI).read_text(encoding="utf-8").replace("seed = 321", lines))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]


NOT_FINITE = "usage error: need finite d > 0, alpha in (0,1), power in (0.5,1), finite ratio >= 1"
BAD_INVOCATIONS = {
    "power-ratio-inf": (lambda tmp: ["power", "--d", "0.5", "--ratio", "inf"], 2, NOT_FINITE),
    "power-d-inf": (lambda tmp: ["power", "--d", "inf"], 2, NOT_FINITE),
    "power-d-squared-underflows": (
        lambda tmp: ["power", "--d", "1e-200"], 2,
        "usage error: the required sample size is not finite (d=1e-200, alpha=0.05, ratio=1.0)",
    ),
    "power-size-overflows": (
        lambda tmp: ["power", "--d", "1e-160"], 2,
        "usage error: the required sample size is not finite (d=1e-160, alpha=0.05, ratio=1.0)",
    ),
    "negative-seed-flag": (
        lambda tmp: ["simulate", "--config", GOLDEN_INI, "--out", str(tmp / "x.csv"), "--seed", "-1"], 2,
        "config error: seed must be nonnegative, got -1",
    ),
    "negative-seed-key": (
        lambda tmp: _golden_config_with_seed(tmp, -1), 2, "config error: seed must be nonnegative, got -1",
    ),
    "gamma-lo-inf": (
        lambda tmp: _golden_config_with_seed(tmp, 321, "gamma_lo = inf", "gamma_hi = inf"), 2,
        "config error: gamma_bounds must satisfy 1 <= lo <= hi with a finite lo",
    ),
    "age-max-beyond-int64": (
        lambda tmp: _golden_config_with_seed(tmp, 321, "age_max = 9223372036854775808"), 2,
        "config error: age_range must be a nonnegative (lo, hi) pair below 2**63",
    ),
    "monotone-row-flagged-inconsistent": (
        lambda tmp: _golden_data_with_line_2(tmp, ",3.25,0,1,", ",3.25,0,0,"), 1,
        "error: line 2: inconsistent record with monotone choices",
    ),
    "wage-off-the-grid": (
        lambda tmp: _golden_data_with_line_2(tmp, ",3.25,0,1,", ",3.2500000005,0,1,"), 1,
        "error: line 2: res_wage 3.2500000005 does not match switch point 3.25",
    ),
    "means-on-inconsistent-rows-only": (
        lambda tmp: _estimate_on(tmp, "means", _golden_rows("consistent", "0")), 1,
        "error: no scenario observations after filtering",
    ),
    "tobit-on-inconsistent-rows-only": (
        lambda tmp: _estimate_on(tmp, "tobit", _golden_rows("consistent", "0")), 1,
        "error: no scenario observations after filtering",
    ),
    "mwu-on-one-treatment": (
        lambda tmp: _estimate_on(tmp, "mwu", _golden_rows("treatment", "BROAD")), 1,
        "error: need at least two treatments with data in one scenario",
    ),
    "empty-data-file": (lambda tmp: _estimate_on(tmp, "means", ""), 1, "error: empty file"),
    "zero-workers": (
        lambda tmp: ["simulate", "--config", GOLDEN_INI, "--out", str(tmp / "x.csv"), "--workers", "0"], 2,
        "config error: --workers must be at least 1",
    ),
}


@pytest.mark.parametrize("argv, code, line", BAD_INVOCATIONS.values(), ids=BAD_INVOCATIONS)
def test_bad_invocation_is_one_stderr_line_and_its_exit_code(tmp_path, capsys, argv, code, line):
    assert main(argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and captured.out == ""


# ------------------------------------------------------------------ verify


def test_verify_all_matches_golden(tmp_path, capsys):
    rc = main(["verify", "--suite", "all", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.encode() == golden("golden_verify.txt")
    assert (tmp_path / "verify.md").read_bytes() == golden("golden_verify.md")
    assert (tmp_path / "verify.csv").read_bytes() == golden("golden_verify.csv")


def test_verify_reports_a_failed_check(monkeypatch, capsys):
    # power-money's certainty equivalents move with wealth, so expecting
    # them not to fails the cara suite
    zoo = tuple(replace(e, expect_cara=True) if e.name == "power-money" else e for e in theory.model_zoo())
    monkeypatch.setattr(theory, "model_zoo", lambda: zoo)
    assert main(["verify", "--suite", "cara"]) == 1
    assert capsys.readouterr().out == (
        "cara: FAIL (6 check(s))\n"
        "  FAIL power-money max CE shift=7.826e-02 (expected < 1e-09)\n"
        "overall: FAIL\n"
    )


@pytest.mark.parametrize("suite", ["additivity", "unidentifiability", "cara", "mixture", "warp"])
def test_verify_single_suites_pass(suite, capsys):
    assert main(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{suite}:")
    assert "overall: PASS" in out


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "garp"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
