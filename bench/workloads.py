"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload drives bracketlab through its public functions only:

- `pipeline-15k` calls `bracketlab.cli.main` in-process, as a user runs
  the CLI: simulate, four estimates (each re-reads the CSV), power and
  verify.
- `recovery-mc` is the in-memory Monte-Carlo loop of power and recovery
  studies: 16 simulated datasets per pass, each fitted and tested.
- `estimate-150k` runs the large-n estimators (all but `tobit_right`) on
  a 150,000-subject CSV written by the seeded generator below and loaded
  once with `read_csv`.

A workload's `setup` prepares its inputs, `run_pass` is the timed unit
of work, `check_pass` turns a pass's outputs into digests and checks
them, and `final_checks` runs the slower checks once per run. Every call
into the program and every check counts as one operation in the
`Ledger`; an exception fails that operation and the run goes on.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import traceback

import numpy as np

KAPPA_TOL = 2e-4  # nls_kappa against the profile oracle (acceptance-1)
MIN_ARM = 10  # smallest arm a scaled-down run uses


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return _sha256(fh.read())
    except OSError:
        return "missing"


def _scaled(n: int, scale: float) -> int:
    return max(MIN_ARM, round(n * scale))


class Ledger:
    """Operations attempted and failed, with the first failures kept.

    A call into the program that raises fails without making the run
    incorrect: the program declined to answer. A check that fails means
    an answer was wrong, and clears `correct`.
    """

    KEEP = 50

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[dict[str, str]] = []

    def _fail(self, label: str, detail: str, trace: str = "") -> None:
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append({"op": label, "detail": detail, "traceback": trace})

    def op(self, label, fn, *args, ok=None, **kwargs):
        """Call into the program; None when it raised or ok(result) is false."""
        self.attempted += 1
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # the run must go on: record and count it
            self._fail(label, f"{type(exc).__name__}: {exc}", traceback.format_exc())
            return None
        if ok is not None and not ok(value):
            self._fail(label, f"unexpected result {value!r}")
            return None
        return value

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.correct = False
            self._fail(f"check: {label}", detail)
        return ok


def _exit_ok(rc) -> bool:
    return rc == 0


def _p_ok(p) -> bool:
    return p is not None and 0.0 <= p <= 1.0


def cell_wages(bl, dataset, ctx):
    """Recorded wages per (treatment, scenario), consistent rows only."""
    cells: dict = {}
    with ctx.span("experiment.iter_observations"):
        for record, outcome in bl.iter_observations(dataset):
            cells.setdefault((record.treatment, outcome.scenario), []).append(outcome.res_wage)
    return cells


class Workload:
    name = ""
    subjects = 0  # subjects carried through one pass

    def __init__(self, bl, seed: int, scale: float, workdir: str) -> None:
        self.bl = bl
        self.cli = bl.cli
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self, ctx) -> None:
        """Prepare the inputs; may run several times. ctx.tick() as in run_pass."""
        raise NotImplementedError

    def run_pass(self, ledger: Ledger, ctx) -> object:
        """One pass; ctx.tick() marks a gap between operations, ctx.span(name) a traced block."""
        raise NotImplementedError

    def check_pass(self, ledger: Ledger, outputs) -> dict[str, str]:
        raise NotImplementedError

    def final_checks(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def provenance(self) -> dict:
        raise NotImplementedError

    def _roundtrip(self, ledger: Ledger, dataset, label: str) -> None:
        path = os.path.join(self.workdir, "roundtrip.csv")
        failed = ledger.failed
        ledger.op(f"{label} write_csv", self.bl.write_csv, dataset, path)
        if ledger.failed == failed:
            again = ledger.op(f"{label} read_csv", self.bl.read_csv, path)
            ledger.check(f"{label} read_csv(write_csv(ds)) == ds", again == dataset)


# ------------------------------------------------------------ pipeline-15k


class Pipeline(Workload):
    """The CLI end to end on one 15,000-subject configuration."""

    name = "pipeline-15k"
    ARM = 5000
    STATS = ("means", "mwu", "kappa", "tobit")
    POWER_OUT = "n_large=172 n_small=115\n"  # acceptance-6
    GAMMA_HI = 2.2  # see README: the default 4.0 raises NoIndifference on some seeds

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.arm = _scaled(self.ARM, self.scale)
        self.subjects = 3 * self.arm
        self.ini = os.path.join(self.workdir, "pipeline.ini")
        self.data = os.path.join(self.workdir, "data.csv")
        self.reports = os.path.join(self.workdir, "reports")

    def setup(self, ctx) -> None:
        with open(self.ini, "w", encoding="utf-8") as fh:
            fh.write(
                "[population]\n"
                f"broad = {self.arm}\nnarrow = {self.arm}\nlow = {self.arm}\n"
                f"seed = {self.seed}\nnarrow_share = 0.7\ntremble = 0.05\nworkers = 1\n"
                f"gamma_hi = {self.GAMMA_HI}\n"
            )

    def _steps(self):
        yield "simulate", ["simulate", "--config", self.ini, "--out", self.data, "--workers", "1"]
        for stat in self.STATS:
            yield f"estimate-{stat}", ["estimate", stat, "--data", self.data, "--out", self.reports]
        yield "power", ["power", "--d", "0.4", "--ratio", "1.5", "--are"]
        yield "verify", ["verify", "--suite", "all"]

    def run_pass(self, ledger, ctx):
        printed = {}
        for label, argv in self._steps():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                ledger.op(f"cli {label}", self.cli.main, argv, ok=_exit_ok)
            printed[label] = buf.getvalue()
            ctx.tick()
        return printed

    def check_pass(self, ledger, printed):
        digests = {"data.csv": _file_digest(self.data)}
        for stat in self.STATS:
            for ext in ("md", "csv"):
                digests[f"{stat}.{ext}"] = _file_digest(os.path.join(self.reports, f"{stat}.{ext}"))
        digests["verify.txt"] = _sha256(printed["verify"].encode())
        ledger.check("power output", printed["power"] == self.POWER_OUT, printed["power"])
        ledger.check("verify overall PASS", printed["verify"].endswith("overall: PASS\n"),
                     printed["verify"])
        try:
            with open(os.path.join(self.reports, "mwu.csv"), newline="") as fh:
                ps = [float(row["p"]) for row in csv.DictReader(fh)]
        except (OSError, KeyError, ValueError) as exc:
            ps = []
            ledger.check("mwu report readable", False, repr(exc))
        ledger.check("mwu p-values in [0, 1]", bool(ps) and all(map(_p_ok, ps)), repr(ps))
        return digests

    def final_checks(self, ledger):
        bl = self.bl
        dataset = ledger.op("read_csv", bl.read_csv, self.data)
        if dataset is None:
            return
        self._roundtrip(ledger, dataset, "pipeline")
        fit = ledger.op("nls_kappa", bl.nls_kappa, dataset)
        oracle = ledger.op("kappa_profile_oracle", bl.kappa_profile_oracle, dataset)
        if fit is not None and oracle is not None:
            ledger.check("|nls_kappa - oracle| <= 2e-4", abs(fit.kappa - oracle) <= KAPPA_TOL,
                         f"{fit.kappa} vs {oracle}")
        rows = ledger.op("verify_rows", self.cli.verify_rows, "all")
        if rows is not None:
            ledger.check("every verify row ok", all(r.ok for r in rows),
                         repr([r for r in rows if not r.ok]))

    def provenance(self):
        spec = self.bl.parse_config(self.ini).population
        return {"population_digest": self.bl.population_digest(spec), "subjects_per_arm": self.arm}


# ------------------------------------------------------------- recovery-mc


class Recovery(Workload):
    """16 in-memory datasets per pass: simulate, fit kappa, rank tests."""

    name = "recovery-mc"
    ARM = 500
    SEEDS = 4
    CARA_RHO = 0.01  # see README: 0.02 already raises NoIndifference on some seeds
    EXACT_N = 7

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.arm = _scaled(self.ARM, self.scale)
        self.subjects = self.SEEDS * 4 * 3 * self.arm
        self.specs = []

    def _spec(self, seed, composition, rho=None):
        bl = self.bl
        arms = {bl.Treatment.BROAD: self.arm, bl.Treatment.NARROW: self.arm, bl.Treatment.LOW: self.arm}
        return bl.PopulationSpec(counts=arms, seed=seed, composition=composition, tremble=0.0,
                                 gamma_bounds=(1.8, 2.2), rho=rho)

    def setup(self, ctx) -> None:
        bl = self.bl
        self.specs = []
        for k in range(self.SEEDS):
            seed = self.seed * self.SEEDS + k
            for share in (1.0, 0.0, 0.7):
                self.specs.append(self._spec(seed, bl.MixtureComposition(share)))
            self.specs.append(self._spec(seed, bl.KappaComposition(0.7), rho=self.CARA_RHO))

    def run_pass(self, ledger, ctx):
        bl = self.bl
        T, S = bl.Treatment, bl.Scenario
        results = []
        for spec in self.specs:
            dataset = ledger.op("simulate_dataset", bl.simulate_dataset, spec, workers=1)
            ctx.tick()
            if dataset is None:
                results.append(None)
                continue
            fit = ledger.op("nls_kappa", bl.nls_kappa, dataset)
            oracle = ledger.op("kappa_profile_oracle", bl.kappa_profile_oracle, dataset)
            cells = cell_wages(bl, dataset, ctx)
            tests, exact = [], []
            for scenario in (S.S1, S.S2):
                narrow = cells.get((T.NARROW, scenario), [])
                low = cells.get((T.LOW, scenario), [])
                broad = cells.get((T.BROAD, scenario), [])
                tests.append(ledger.op("mwu_test", bl.mwu_test, narrow, low))
                tests.append(ledger.op("mwu_test", bl.mwu_test, narrow, broad))
                exact.append(ledger.op("mwu_exact", bl.mwu_exact,
                                       narrow[: self.EXACT_N], low[: self.EXACT_N]))
            results.append((fit, oracle, tests, exact))
            ctx.tick()
        return results

    def check_pass(self, ledger, results):
        summary = []
        for fit, oracle, tests, exact in filter(None, results):
            if fit is not None and oracle is not None:
                ledger.check("|nls_kappa - oracle| <= 2e-4", abs(fit.kappa - oracle) <= KAPPA_TOL,
                             f"{fit.kappa} vs {oracle}")
            ps = [t.p for t in tests if t is not None] + [p for p in exact if p is not None]
            ledger.check("p-values in [0, 1]", all(map(_p_ok, ps)), repr(ps))
            summary.append((
                None if fit is None else (fit.kappa, fit.se_kappa, fit.iterations, fit.rss),
                oracle,
                [None if t is None else (t.w, t.z, t.p) for t in tests],
                exact,
            ))
        return {"results": _sha256(repr(summary).encode())}

    def final_checks(self, ledger):
        dataset = ledger.op("simulate_dataset", self.bl.simulate_dataset, self.specs[0], workers=1)
        if dataset is not None:
            self._roundtrip(ledger, dataset, "recovery")

    def provenance(self):
        specs = [{"seed": spec.seed, "composition": repr(spec.composition), "rho": spec.rho,
                  "population_digest": self.bl.population_digest(spec)} for spec in self.specs]
        return {"specs": specs, "subjects_per_arm": self.arm}


# ----------------------------------------------------------- estimate-150k

# Latent reservation-wage means per (S1, S2): the paper's cells that
# acceptance-1 pins. BEFORE and AFTER share NARROW's outcome structure
# in the design table, so they reuse NARROW's means.
CELL_MEANS = {
    "BROAD": (2.89, 2.98),
    "NARROW": (2.07, 2.70),
    "LOW": (2.30, 2.77),
    "PARTIAL": (2.52, 2.46),
    "BEFORE": (2.07, 2.70),
    "AFTER": (2.07, 2.70),
}
LATENT_SD = 0.9
ROW_FLIP = 0.05
GRID = 0.25 * np.arange(1, 17)
CENSOR = 4.25


def _row_text(code: int) -> str:
    """c01..c16, res_wage, censored, consistent for one 16-bit accept pattern."""
    flags = [(code >> i) & 1 for i in range(16)]
    first = next((i for i, f in enumerate(flags) if f), None)
    wage = CENSOR if first is None else float(GRID[first])
    consistent = not any(flags[i] and not flags[i + 1] for i in range(15))
    cells = ["1" if f else "0" for f in flags]
    cells += [f"{wage:.2f}", "1" if first is None else "0", "1" if consistent else "0"]
    return ",".join(cells)


def write_estimate_input(path: str, seed: int, per_arm: int, header: tuple[str, ...], tick) -> None:
    """A dataset CSV in the documented schema, drawn from the seed alone.

    Latent wages are normal around CELL_MEANS; the subject accepts every
    list row paying at least the latent wage (censored at 4.25 above the
    grid), then each row flips with probability ROW_FLIP. Recorded wage,
    censored and consistent flags follow the simulator's coding. tick()
    runs after each arm and after the write.
    """
    rng = np.random.default_rng(seed)
    weights = 1 << np.arange(16)
    texts: dict[int, str] = {}
    lines = [",".join(header)]
    for arm, means in CELL_MEANS.items():
        male = rng.random(per_arm) < 0.5
        age = rng.integers(18, 71, per_arm)
        tedious = rng.integers(1, 11, per_arm)
        codes = []
        for mean in means:
            latent = mean + LATENT_SD * rng.standard_normal(per_arm)
            accept = GRID[None, :] >= latent[:, None]
            accept ^= rng.random((per_arm, 16)) < ROW_FLIP
            codes.append((accept @ weights).tolist())
        for j in range(per_arm):
            tail = f"{'male' if male[j] else 'female'},{age[j]},{tedious[j]}"
            for scenario, code in zip(("S1", "S2"), (codes[0][j], codes[1][j])):
                text = texts.get(code)
                if text is None:
                    text = texts[code] = _row_text(code)
                lines.append(f"{arm}-{j:05d},{arm},{scenario},{text},{tail}")
        tick()
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    tick()


class Estimate(Workload):
    """Every estimator but Tobit at 150,000 subjects on a generated CSV."""

    name = "estimate-150k"
    ARM = 25000

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.arm = _scaled(self.ARM, self.scale)
        self.subjects = len(CELL_MEANS) * self.arm
        self.data = os.path.join(self.workdir, "estimate.csv")
        self.dataset = None

    def setup(self, ctx) -> None:
        self.dataset = None  # let a repeated set-up free the previous load
        write_estimate_input(self.data, self.seed, self.arm, self.bl.CSV_COLUMNS, ctx.tick)
        self.dataset = self.bl.read_csv(self.data)

    def run_pass(self, ledger, ctx):
        bl, ds = self.bl, self.dataset
        T = bl.Treatment
        means = ledger.op("summarize_means", bl.summarize_means, ds)
        ctx.tick()
        cells = cell_wages(bl, ds, ctx)
        ctx.tick()
        tests = []
        for scenario in bl.Scenario:
            present = [t for t in T if (t, scenario) in cells]
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    tests.append(ledger.op("mwu_test", bl.mwu_test, cells[(a, scenario)], cells[(b, scenario)]))
            ctx.tick()
        fits = []
        for anchor in (T.BROAD, T.PARTIAL):
            fit = ledger.op("nls_kappa", bl.nls_kappa, ds, broad_label=anchor)
            ctx.tick()
            oracle = ledger.op("kappa_profile_oracle", bl.kappa_profile_oracle, ds, broad_label=anchor)
            ctx.tick()
            fits.append((fit, oracle))
        # No tobit_right here: per-scenario fits of ~73k rows raise NotConverged
        # on some seeds (its stall tolerance does not scale with n). README.md,
        # "Known program defect", has the details.
        return means, tests, fits

    def check_pass(self, ledger, outputs):
        means, tests, fits = outputs
        for fit, oracle in fits:
            if fit is not None and oracle is not None:
                ledger.check("|nls_kappa - oracle| <= 2e-4", abs(fit.kappa - oracle) <= KAPPA_TOL,
                             f"{fit.kappa} vs {oracle}")
        ps = [t.p for t in tests if t is not None]
        ledger.check("p-values in [0, 1]", bool(ps) and all(map(_p_ok, ps)), repr(ps))
        summary = (
            None if means is None else [(c.treatment.value, c.scenario.value, c.mean, c.sd, c.n) for c in means],
            [None if t is None else (t.w, t.z, t.p) for t in tests],
            [(None if f is None else (f.kappa, f.se_kappa, f.iterations), o) for f, o in fits],
        )
        return {"results": _sha256(repr(summary).encode())}

    def final_checks(self, ledger):
        # write_csv reproducing the generated bytes implies read_csv(write_csv(ds)) == ds,
        # since this very file was read into ds
        path = os.path.join(self.workdir, "roundtrip.csv")
        ledger.op("write_csv", self.bl.write_csv, self.dataset, path)
        ledger.check("write_csv(read_csv(input)) == input bytes",
                     _file_digest(path) == _file_digest(self.data))

    def provenance(self):
        return {"input_sha256": _file_digest(self.data), "subjects_per_arm": self.arm,
                "generator": {"cell_means": CELL_MEANS, "latent_sd": LATENT_SD,
                              "row_flip": ROW_FLIP, "censor": CENSOR}}


WORKLOADS = {w.name: w for w in (Pipeline, Recovery, Estimate)}
