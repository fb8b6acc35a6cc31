"""Command-line contract: exit codes, determinism, golden reports."""
from pathlib import Path

import pytest

from conftest import records_from_wages
from bracketlab import cli
from bracketlab.agents import CENSOR_CODE, ModeUnsupported, NoIndifference
from bracketlab.cli import main
from bracketlab.config import parse_config
from bracketlab.estimation import nls_kappa
from bracketlab.design import Treatment
from bracketlab.experiment import Dataset, read_csv, simulate_dataset, write_csv
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


@pytest.mark.parametrize("failure", [NoIndifference, NonMonotoneModel, ModeUnsupported])
def test_model_failures_exit_one(tmp_path, capsys, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure("no answer")

    monkeypatch.setattr(cli, "simulate_dataset", fail)
    rc = main(["simulate", "--config", GOLDEN_INI, "--out", str(tmp_path / "d.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: no answer\n"


# ---------------------------------------------------------------- estimate


@pytest.mark.parametrize("stat", ["means", "mwu", "kappa", "tobit"])
def test_estimate_matches_golden_reports(tmp_path, stat):
    rc = main(["estimate", stat, "--data", GOLDEN_CSV, "--out", str(tmp_path)])
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


# ------------------------------------------------------------------ verify


def test_verify_all_matches_golden(tmp_path, capsys):
    rc = main(["verify", "--suite", "all", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.encode() == golden("golden_verify.txt")
    assert (tmp_path / "verify.md").read_bytes() == golden("golden_verify.md")
    assert (tmp_path / "verify.csv").read_bytes() == golden("golden_verify.csv")


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
