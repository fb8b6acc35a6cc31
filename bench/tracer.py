"""In-memory span tracer that wraps bracketlab's public functions.

Tracing lives entirely in the benchmark: `Tracer.active()` swaps each
traced function for a wrapper in every loaded `bracketlab` module that
holds a reference to it (the defining module, the package namespace
and every module that imported it by name), and puts the originals back
on exit. Calls between modules therefore pass through the wrappers,
while the program's own source is untouched.

A span is (id, name, start, end, parent id, pass id). Spans sit in flat
arrays while the benchmark runs and are written out once at the end.
Counters (bytes written, iterations, rows dropped, ...) are recorded at
the same boundaries, after the span's end time is taken.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_PACKAGE = "bracketlab"


def _scenario_counts(dataset):
    """(rows, censored rows, inconsistent rows) over every scenario outcome."""
    rows = censored = inconsistent = 0
    for record in dataset.records:
        for outcome in record.outcomes:
            rows += 1
            censored += outcome.censored
            inconsistent += not outcome.consistent
    return rows, censored, inconsistent


class Tracer:
    """Spans and counters for the traced passes of one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("q")
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._pass = -1
        self._inconsistent_cache: dict[int, tuple[object, int]] = {}

    # ------------------------------------------------------------ recording

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self._pass)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side work (for example a group-by)."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[self._pass][key] += amount

    def _inconsistent_rows(self, dataset) -> int:
        # one count per distinct dataset per pass; the reference keeps the id unique
        hit = self._inconsistent_cache.get(id(dataset))
        if hit is None or hit[0] is not dataset:
            hit = (dataset, _scenario_counts(dataset)[2])
            self._inconsistent_cache[id(dataset)] = hit
        return hit[1]

    # ------------------------------------------------------------- wrapping

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def active(self, pass_id: int):
        """Trace every call made inside the block, tagged with pass_id."""
        self._pass = pass_id
        self._inconsistent_cache.clear()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == _PACKAGE or n.startswith(_PACKAGE + "."))]
        renderers = [(fn, "reports.render", None)
                     for fn in sys.modules[f"{_PACKAGE}.reports"].__all__ if fn.startswith("render_")]
        swapped = []
        for module_name, fn_name, span_name, after in _TARGETS + [("reports",) + r for r in renderers]:
            original = getattr(sys.modules[f"{_PACKAGE}.{module_name}"], fn_name)
            wrapper = self._wrap(span_name, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swapped.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)
            self._inconsistent_cache.clear()
            self._pass = -1

    # ------------------------------------------------------------ analysis

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns, copied so the recording arrays can still grow."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "pass_id": np.array(self.pass_id, dtype=np.int64),
        }

    def pass_summary(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and calls in one pass."""
        cols = self.columns()
        nid, start, end, parent = cols["name_id"], cols["start"], cols["end"], cols["parent"]
        sel = np.flatnonzero(cols["pass_id"] == pass_id)
        dur = end[sel] - start[sel]
        child = np.zeros(len(self.start))
        has_parent = parent[sel] >= 0
        np.add.at(child, parent[sel][has_parent], dur[has_parent])
        self_time = dur - child[sel]
        out: dict[str, dict[str, float]] = {}
        for idx in np.unique(nid[sel]):
            mask = nid[sel] == idx
            out[self.names[idx]] = {
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "calls": float(mask.sum()),
            }
        return out

    def write(self, path: str) -> None:
        """Save every span as columns of a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())


# ------------------------------------------------------------ counters


def _after_dataset(tracer, dataset, args, kwargs):
    rows, censored, inconsistent = _scenario_counts(dataset)
    tracer.count("experiment.simulated_rows", rows)
    tracer.count("experiment.censored_rows", censored)
    tracer.count("experiment.inconsistent_rows", inconsistent)


def _after_write_csv(tracer, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("experiment.write_csv.bytes", os.path.getsize(path))


def _after_read_csv(tracer, dataset, args, kwargs):
    tracer.count("experiment.read_csv.rows", sum(len(r.outcomes) for r in dataset.records))


def _after_dropping(tracer, result, args, kwargs):
    """Rows an estimator filters out as inconsistent, per call."""
    dataset = args[0] if args else kwargs["dataset"]
    # only summarize_means takes the flag (second); the kappa fits always drop
    positional = args[1] if len(args) > 1 and isinstance(args[1], bool) else True
    if kwargs.get("drop_inconsistent", positional):
        tracer.count("estimation.rows_dropped", tracer._inconsistent_rows(dataset))


def _after_nls(tracer, fit, args, kwargs):
    _after_dropping(tracer, fit, args, kwargs)
    tracer.count("estimation.nls_kappa.iterations", fit.iterations)


def _after_tobit(tracer, fit, args, kwargs):
    tracer.count("estimation.tobit_right.iterations", fit.iterations)


def _after_verify_rows(tracer, rows, args, kwargs):
    tracer.count("verify.rows_failed", sum(not r.ok for r in rows))


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.main.{argv[0] if argv else 'none'}"


# (module, function, span name or argv -> span name, counter hook); every
# public reports.render_* function is added as one "reports.render" span
_TARGETS = [
    ("experiment", "simulate_dataset", "experiment.simulate_dataset", _after_dataset),
    ("experiment", "subject_stream", "experiment.subject_stream", None),
    ("experiment", "simulate_subject", "experiment.simulate_subject", None),
    ("experiment", "write_csv", "experiment.write_csv", _after_write_csv),
    ("experiment", "read_csv", "experiment.read_csv", _after_read_csv),
    ("agents", "reservation_wage_exact", "agents.reservation_wage_exact", None),
    ("agents", "snap_to_list", "agents.snap_to_list", None),
    ("design", "price_list", "design.price_list", None),
    ("preferences", "money_metric", "preferences.money_metric", None),
    ("estimation", "summarize_means", "estimation.summarize_means", _after_dropping),
    ("estimation", "mwu_test", "estimation.mwu_test", None),
    ("estimation", "mwu_exact", "estimation.mwu_exact", None),
    ("estimation", "nls_kappa", "estimation.nls_kappa", _after_nls),
    ("estimation", "kappa_profile_oracle", "estimation.kappa_profile_oracle", _after_dropping),
    ("estimation", "tobit_right", "estimation.tobit_right", _after_tobit),
    ("estimation", "power_two_sample", "estimation.power_two_sample", None),
    ("theory", "additivity_residual", "theory.additivity_residual", None),
    ("theory", "unidentifiability_probe", "theory.unidentifiability_probe", None),
    ("theory", "cara_shift_invariance", "theory.cara_shift_invariance", None),
    ("theory", "mixture_linearity", "theory.mixture_linearity", None),
    ("theory", "maximizer_choices", "theory.maximizer_choices", None),
    ("theory", "warp_scan", "theory.warp_scan", None),
    ("config", "parse_config", "config.parse_config", None),
    ("cli", "main", _cli_name, None),
    ("cli", "verify_rows", "cli.verify_rows", _after_verify_rows),
]
