"""Workload definitions: fixed experiment configs run through ``run_ensemble``.

Each workload is a set of configs in the JSON form ``config_from_dict``
accepts.  The benchmark fills in ``seed``, ``samples`` and ``workers`` (one,
except in the traced pool pass); every other field is fixed here.  All boxes
use the default Neumann boundary.

Why each workload exists (shares of sample time from a traced run of the
seed code on a 2-core box):

* ``dense-2d`` -- 40x40 box (n=1600) at lambda0=2.  ``eigh`` takes about
  77% of a sample and the rest of ``diagonalize`` (symmetry and n^3
  reconstruction checks) 19%; the kernels 3%.  Exercises the dense
  eigensolver and bypasses the kernel math.  Its traced run also times a
  pass with two workers, so the process-pool layer is still measured.
* ``kernels-1d`` -- L=400 chain at lambda0="full": the kernels take 93%
  (``correlations`` 67%, ``quasi-locality`` 25%) and ``diagonalize`` 7%.
  Keeping every mode bypasses any spectral-window solver.
* ``spectra-1d`` -- many small eigenvalue-only ``diagonalize`` calls
  (energy-density ladder with both boundary conditions, and gap-stats;
  ``diagonalize`` 87%), where eigenvectors and the reconstruction check are
  wasted work.  ``energy-density`` also runs at lambda0="full", where its
  ``ordering_violations`` flag fires on every ladder box; that is a known
  defect, reported as a count and never as a failure.

A ``pool-2d`` workload (the ``dense-2d`` configs with two workers) was tried
and dropped: two workers with two OpenBLAS threads each on two cores
oversubscribe the machine, and five 25-second runs read 0.23 to 0.39
samples/s (IQR/median 0.41) against about 1.27 serially.  Thread variables
are never set to hide this; the traced ``dense-2d`` run measures the pool.

``oracle-check`` is never run: at the seed it raises ModuleNotFoundError
for ``osclab.oracle_suite``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Config seed of the committed reference tables.
REFERENCE_SEED = 1

#: Samples per config in the reference pass, which also serves as warm-up.
REFERENCE_SAMPLES = 2

#: Flags ``run_ensemble`` reports in its metadata, over all experiment kinds.
FLAG_NAMES = (
    "bound_violations",
    "bracketing_violations",
    "correlation_bound_violations",
    "degenerate_samples",
    "domination_violations",
    "many_body_gap_violations",
    "one_body_gap_violations",
    "ordering_violations",
)

KERNEL_KINDS = ("eigencorrelator", "lr-bound", "pq-bound", "correlations", "quasi-locality")


@dataclass(frozen=True)
class Workload:
    name: str
    #: label -> config document without seed, samples and workers
    configs: dict
    #: samples per config in one timed round
    samples: int
    #: worker count of the pool pass in the traced run
    pool_workers: int = 1

    def documents(self, seed: int, samples: int | None = None, workers: int = 1) -> dict:
        """Config documents for one round, keyed by label."""
        extra = {
            "seed": int(seed),
            "samples": int(self.samples if samples is None else samples),
            "workers": int(workers),
        }
        return {label: {**doc, **extra} for label, doc in self.configs.items()}


def _box(*lengths):
    return {"lengths": list(lengths)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-2d",
            {
                kind: {"experiment": kind, "box": _box(40, 40), "lambda0": 2, "kappa": 1}
                for kind in ("eigencorrelator", "lr-bound", "pq-bound")
            },
            samples=1,
            pool_workers=2,
        ),
        Workload(
            "kernels-1d",
            {
                kind: {"experiment": kind, "box": _box(400), "lambda0": "full", "kappa": 1}
                for kind in KERNEL_KINDS
            },
            samples=1,
        ),
        Workload(
            "spectra-1d",
            {
                "energy-density-full": {"experiment": "energy-density", "lambda0": "full", "kappa": 1},
                "energy-density-2": {"experiment": "energy-density", "lambda0": 2, "kappa": 1},
                "gap-stats": {"experiment": "gap-stats", "box": _box(400), "mb_length": 4},
            },
            samples=4,
        ),
    )
}
