"""Timed and traced runs of one workload, in a fresh interpreter.

``run.py`` starts this script once per benchmark run; it prints one JSON
object as its last line of standard output.

Every run first runs each config at the reference seed and compares the
table with the committed reference (``reference/<workload>.json``); that
pass is also the warm-up.  Timed rounds then run each config once at the
run's seed until the time is up.  A timed table must have exactly the
reference's keys, one count per sample and finite values, and every later
round must reproduce the first.  A config whose ``run_ensemble`` raises or
whose table misses these checks counts all its samples as failed; a config
that misses its reference counts every sample it ran as failed.

With ``--trace 1`` the timed rounds are then repeated, as many, with spans
around the calls into osclab (see ``install_spans``); the difference of the
two walls is the tracing overhead.  A last reference pass with the
workload's pool width, when above one, gives the pool efficiency.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from osclab import ensembles  # noqa: E402
from osclab.config import config_from_dict  # noqa: E402
from osclab.results import render_csv  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FLAG_NAMES,
    KERNEL_KINDS,
    REFERENCE_SAMPLES,
    REFERENCE_SEED,
    WORKLOADS,
)

#: A table entry matches when |value - ref| <= ATOL + RTOL * scale, where
#: scale = max(|ref mean|, |ref stderr|) of that key.  Loose enough for
#: last-bit changes from BLAS threading (about 2e-14 relative) and for a
#: different eigensolver agreeing to 1e-10; tight enough for any real change.
RTOL = 1e-8
ATOL = 1e-12

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def table_rows(result) -> dict:
    """key -> (mean, stderr, count) of an EnsembleResult."""
    return {tuple(r.key): (r.mean, r.stderr, r.count) for r in result.rows}


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """label -> {"csv_sha256": str, "rows": {key: (mean, stderr, count)}}."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["seed"] != REFERENCE_SEED or doc["samples"] != REFERENCE_SAMPLES:
        raise SystemExit(f"reference for {workload} was made with other seed or samples")
    return {
        label: {
            "csv_sha256": entry["csv_sha256"],
            "rows": {tuple(row[0]): tuple(row[1:]) for row in entry["rows"]},
        }
        for label, entry in doc["configs"].items()
    }


def deviation(rows: dict, ref_rows: dict) -> tuple[bool, float]:
    """(match, worst relative deviation) of a table against a reference table."""
    if rows.keys() != ref_rows.keys():
        return False, math.inf
    ok = True
    worst = 0.0
    for key, (ref_mean, ref_err, ref_count) in ref_rows.items():
        mean, err, count = rows[key]
        scale = max(abs(ref_mean), abs(ref_err))
        for value, ref in ((mean, ref_mean), (err, ref_err)):
            diff = abs(value - ref)
            if not diff <= ATOL + RTOL * scale:
                ok = False
            worst = max(worst, diff / max(scale, ATOL / RTOL)) if math.isfinite(diff) else math.inf
        ok = ok and count == ref_count
    return ok, worst


def well_formed(rows: dict, ref_rows: dict, samples: int) -> bool:
    """Reference keys, one count per sample, finite values."""
    return rows.keys() == ref_rows.keys() and all(
        count == samples and math.isfinite(mean) and math.isfinite(err)
        for mean, err, count in rows.values()
    )


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed samples per config label."""

    def __init__(self, labels):
        self.attempted = dict.fromkeys(labels, 0)
        self.failed = dict.fromkeys(labels, 0)
        self.bad_labels: set = set()
        self.errors: list[str] = []

    def record(self, label, samples, ok, why=""):
        self.attempted[label] += samples
        if not ok:
            self.failed[label] += samples
            self.errors.append(f"{label}: {why}")

    def totals(self) -> tuple[int, int]:
        failed = sum(
            self.attempted[l] if l in self.bad_labels else self.failed[l] for l in self.attempted
        )
        return sum(self.attempted.values()), failed


def build_configs(workload, seed, tracer=None, **overrides):
    docs = workload.documents(seed, **overrides)
    if tracer is None:
        return {label: config_from_dict(doc) for label, doc in docs.items()}
    return {
        label: tracer.call("config.config_from_dict", config_from_dict, doc)
        for label, doc in docs.items()
    }


def run_config(config, tracer=None):
    """(result or None, wall seconds, error text)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = ensembles.run_ensemble(config)
        else:
            result = tracer.call("ensembles.run_ensemble", ensembles.run_ensemble, config)
    except Exception as exc:  # a failing config is counted, the run goes on
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, ""


def reference_pass(configs, reference, ledger):
    """Run the reference-seed configs and compare with the committed tables."""
    worst = 0.0
    wall = 0.0
    info = {}
    for label, config in configs.items():
        result, seconds, error = run_config(config)
        wall += seconds
        if result is None:
            ledger.record(label, config.samples, False, error)
            ledger.bad_labels.add(label)
            worst = math.inf
            continue
        ok, dev = deviation(table_rows(result), reference[label]["rows"])
        worst = max(worst, dev)
        sha = hashlib.sha256(render_csv(result).encode()).hexdigest()
        info[label] = {
            "max_rel_dev": dev,
            "csv_sha256": sha,
            "csv_identical": sha == reference[label]["csv_sha256"],
        }
        ledger.record(label, config.samples, ok, f"misses reference (max rel dev {dev:.3g})")
        if not ok:
            ledger.bad_labels.add(label)
    return worst, wall, info


class TimedPass:
    """Rounds of the run-seed configs; checks every table and keeps round rates."""

    def __init__(self, configs, reference, ledger, first=None):
        self.configs = configs
        self.reference = reference
        self.ledger = ledger
        #: label -> table of the first round, which later rounds must reproduce
        self.first: dict = {} if first is None else first
        self.rates: list[float] = []
        self.wall = 0.0
        self.samples = 0
        self.rounds = 0
        self.flags = dict.fromkeys(FLAG_NAMES, 0)
        self.csv_bytes = 0

    def round(self, tracer=None):
        samples = 0
        wall = 0.0
        for label, config in self.configs.items():
            result, seconds, error = run_config(config, tracer)
            wall += seconds
            if result is None:
                self.ledger.record(label, config.samples, False, error)
                continue
            samples += config.samples
            rows = table_rows(result)
            if label not in self.first:
                ok = well_formed(rows, self.reference[label]["rows"], config.samples)
                self.first[label] = rows
                why = "table keys, counts or values off"
            else:
                ok, dev = deviation(rows, self.first[label])
                why = f"round differs from the first (max rel dev {dev:.3g})"
            self.ledger.record(label, config.samples, ok, why)
            for name in FLAG_NAMES:
                self.flags[name] += int(result.metadata.get(name, 0))
            if tracer is not None:
                csv = tracer.call("results.render_csv", render_csv, result)
                self.csv_bytes += len(csv.encode())
        self.rounds += 1
        self.samples += samples
        self.wall += wall
        self.rates.append(samples / wall)

    def run_for(self, seconds: float):
        deadline = time.perf_counter() + seconds
        while self.rounds == 0 or time.perf_counter() < deadline:
            self.round()

    def per_round(self, value: float) -> float:
        return value / self.rounds


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_spans(tracer: Tracer):
    """Wrap the pipeline's callables; ``tracer.restore()`` undoes it.

    Each ``diagonalize`` call records its dimension, its eigenvalues and the
    lambda0 of the sample it belongs to, so that ``layer_metrics`` can count
    the modes the sample uses once the trace is over.
    """
    lambda0 = [math.inf]

    def sample_span(f):
        spanned = tracer.wrap("ensembles.run_sample", f)

        @functools.wraps(f)
        def run_sample(config, index):
            lambda0[0] = config.lambda0_value()
            return spanned(config, index)

        return run_sample

    tracer.install(ensembles, "sample_disorder", lambda f: tracer.wrap("anderson.sample_disorder", f))
    tracer.install(ensembles, "assemble", lambda f: tracer.wrap("anderson.assemble", f))
    tracer.install(
        ensembles,
        "diagonalize",
        lambda f: tracer.wrap(
            "anderson.diagonalize", f, observe=lambda spec, *a: (spec.n, spec.eigenvalues, lambda0[0])
        ),
    )
    tracer.install(ensembles, "run_sample", sample_span)
    tracer.install(
        ensembles,
        "sup_alpha_strategy",
        lambda f: tracer.count("ensembles.alpha_family", f, lambda family, *a: len(family)),
    )
    for kind in KERNEL_KINDS:
        tracer.install(
            ensembles.KERNELS, kind, lambda f, kind=kind: tracer.wrap(f"ensembles.kernel.{kind}", f)
        )
    tracer.install(np.linalg, "eigh", lambda f: tracer.wrap("numpy.linalg.eigh", f))


def modes_used(eigenvalues, lambda0) -> int:
    """|S| of one spectrum: ``localized_modes(spec, lambda0).size``."""
    return int(np.searchsorted(eigenvalues, lambda0, side="right"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced_wall, pool, max_rel_dev, error_rate):
    """Per-layer metrics; times are seconds per disorder sample of the traced pass."""

    def per_sample(value):
        return _ratio(value, traced.samples)

    def self_s(name):
        return per_sample(tracer.self_time(name)), "s/sample"

    def calls(name):
        return per_sample(tracer.calls(name)), "1/sample"

    sample_time = tracer.total("ensembles.run_sample")
    kernel_names = [f"ensembles.kernel.{kind}" for kind in KERNEL_KINDS]
    spectra = tracer.observed.get("anderson.diagonalize", [])
    dims = [n for n, _, _ in spectra]
    computed = sum(eigenvalues.size for _, eigenvalues, _ in spectra)
    used = sum(modes_used(eigenvalues, lambda0) for _, eigenvalues, lambda0 in spectra)
    family = tracer.observed.get("ensembles.alpha_family", [])
    busy_per_sample = _ratio(sample_time, tracer.calls("ensembles.run_sample"))
    pool_samples, pool_wall, pool_workers = pool

    m = {
        "anderson.diagonalize.eigh_s": self_s("numpy.linalg.eigh"),
        "anderson.diagonalize.self_s": self_s("anderson.diagonalize"),
        "anderson.diagonalize.calls": calls("anderson.diagonalize"),
        "anderson.diagonalize.dim_mean": (statistics.fmean(dims) if dims else 0.0, "sites"),
        "anderson.diagonalize.share": (_ratio(tracer.total("anderson.diagonalize"), sample_time), "ratio"),
        "anderson.modes_used_frac": (_ratio(used, computed), "ratio"),
        "anderson.assemble.self_s": self_s("anderson.assemble"),
        "anderson.assemble.calls": calls("anderson.assemble"),
        "anderson.sample_disorder.self_s": self_s("anderson.sample_disorder"),
        "anderson.sample_disorder.calls": calls("anderson.sample_disorder"),
    }
    for name in kernel_names:
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    kernel_time = sum(tracer.total(name) for name in kernel_names)
    m["ensembles.kernel.share"] = (_ratio(kernel_time, sample_time), "ratio")
    m["ensembles.alpha_family_mean"] = (statistics.fmean(family) if family else 0.0, "vectors")
    m["ensembles.run_sample.self_s"] = self_s("ensembles.run_sample")
    m["ensembles.run_ensemble.self_s"] = self_s("ensembles.run_ensemble")
    m["ensembles.pool.efficiency"] = (
        _ratio(busy_per_sample * pool_samples, pool_workers * pool_wall),
        "ratio",
    )
    for name in FLAG_NAMES:
        m[f"ensembles.flag.{name}"] = (traced.per_round(traced.flags[name]), "count/round")
    m["results.render_csv.self_s"] = self_s("results.render_csv")
    m["results.csv_bytes"] = (traced.per_round(traced.csv_bytes), "bytes/round")
    m["results.max_rel_dev"] = (max_rel_dev, "ratio")
    m["config.config_from_dict.self_s"] = (
        _ratio(tracer.self_time("config.config_from_dict"), tracer.calls("config.config_from_dict")),
        "s/call",
    )
    m["trace.overhead_s"] = (per_sample(traced.wall - untraced_wall), "s/sample")
    m["error_rate"] = (error_rate, "ratio")
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def openblas_threads():
    """Thread count the bundled OpenBLAS reports, or None when not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(workload, configs) -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workers": max(config.workers for config in configs.values()),
        "pool_workers": workload.pool_workers,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_thread_variables": {
            name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ
        },
        "openblas_threads": openblas_threads(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference(workload.name)
    ledger = Ledger(workload.configs)
    tracer = Tracer() if trace else None
    ref_configs = build_configs(workload, REFERENCE_SEED, samples=REFERENCE_SAMPLES)
    run_configs = build_configs(workload, seed, tracer)

    max_rel_dev, _, ref_info = reference_pass(ref_configs, reference, ledger)
    timed = TimedPass(run_configs, reference, ledger)
    timed.run_for(seconds)
    info = {
        "env": environment(workload, run_configs),
        "reference": ref_info,
        "rounds": timed.rounds,
        "round_rates": timed.rates,
        "flags_per_round": {k: timed.per_round(v) for k, v in timed.flags.items() if v},
    }

    if trace:
        traced = TimedPass(run_configs, reference, ledger, first=timed.first)
        install_spans(tracer)
        try:
            for _ in range(timed.rounds):
                traced.round(tracer)
        finally:
            tracer.restore()
        if workload.pool_workers > 1:
            pool_configs = build_configs(
                workload, REFERENCE_SEED, samples=REFERENCE_SAMPLES, workers=workload.pool_workers
            )
            pool_dev, pool_wall, info["pool_reference"] = reference_pass(pool_configs, reference, ledger)
            max_rel_dev = max(max_rel_dev, pool_dev)
            pool = (REFERENCE_SAMPLES * len(pool_configs), pool_wall, workload.pool_workers)
        else:
            pool = (timed.samples, timed.wall, 1)

    attempted, failed = ledger.totals()
    if trace:
        metrics = layer_metrics(tracer, traced, timed.wall, pool, max_rel_dev, failed / attempted)
    else:
        metrics = {
            # Total over total, not a median of rounds: on a host whose cores
            # run at two speeds, a median jumps between them from run to run.
            "samples_per_s": (timed.samples / timed.wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    info["errors"] = ledger.errors[:20]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
