"""Monte Carlo disorder-averaging engine and the experiment kernels.

Each disorder realization is a pure function of (seed, sample index): the
worker assembles the effective Hamiltonian, diagonalizes it for the
config's lambda0 (eigenvalues only for the eigenvalue-only kinds
``energy-density`` and ``gap-stats``), evaluates the experiment's kernel on
the resulting ``SpectralData``, and returns per-key scalar rows.  The
kernels read S only from it: Phi_S, gamma_S and, where they read C_f, the
tails (``anderson.tails``).  Every time-dependent sum over S that a kernel
reads comes from ``anderson.propagator_sums``, one block of
``anderson.TIME_BLOCK`` times at a time.  A kernel forms its tables for
the block (phases, Laguerre arguments, occupation products), folds them
into running per-site or per-radius maxima and violation counts, and drops
them, so its memory does not grow with the number of time points.  Every
kernel returns ``(rows, flags)``.
Reduction happens after all samples are collected, in sample-index order,
so the output is bit-identical regardless of the worker count.

Every kernel also verifies its theorem-shape dominations pointwise on the
evaluation grid (commutator values against envelopes, quasi-locality
errors against their bounds, correlations against the uniform bound 2,
counting-function bracketing) and reports violation counts in the flags.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .anderson import (
    assemble,
    diagonalize,
    eigencorrelator_profile,
    propagator_sums,
    sample_disorder,
    spectrum,
    tails,
)
from .config import KINDS, ExperimentConfig
from .errors import NumericError
from .freeboson import counting_function, default_time_grid, excitation_energy_density, many_body_energy
from .lattice import BoxGeometry, box_boundary, l1_distances_from
from .results import EnsembleResult, ResultRow
from .weyl import OccupationFamily

#: Slack for floating-point comparisons of mathematically strict dominations.
DOMINATION_SLACK = 1e-12


@dataclass
class SampleOutcome:
    index: int
    rows: list
    flags: dict = field(default_factory=dict)
    extrema: dict = field(default_factory=dict)


def _time_grid(config: ExperimentConfig, spec) -> np.ndarray:
    return default_time_grid(spec, points=config.time_points, t_max=config.t_max)


def _shells(config: ExperimentConfig, box: BoxGeometry) -> tuple[int, dict[int, np.ndarray], np.ndarray]:
    """(center, {d: sites at l1 distance d from it}, those sites shell after shell)."""
    center = config.center_index()
    dists = l1_distances_from(box, center)
    shells = {int(d): np.flatnonzero(dists == int(d)) for d in config.shell_values()}
    return center, shells, np.concatenate(list(shells.values()))


def sup_alpha_strategy(config: ExperimentConfig, count: int, index: int) -> np.ndarray:
    """The (A, count) occupation family over which eigenstate suprema are taken, a column per regime mode.

    Always contains the vacuum; for kappa > 0 and a nonempty regime also the
    vector with kappa excitations in every mode, plus ``alpha_random``
    random vectors drawn from the stream of (seed, sample index).  Repeats
    are dropped, first occurrence kept.  A documented lower bound on the
    supremum over the full regime: enlarging the family can only increase
    the reported value.
    """
    family = [np.zeros(count, dtype=int)]
    if config.kappa > 0 and count:
        rng = np.random.default_rng([int(config.seed), int(index), 0xA1FA])
        family.append(np.full(count, config.kappa))
        family += [rng.integers(0, config.kappa + 1, size=count) for _ in range(config.alpha_random)]
    return np.array(list(dict.fromkeys(map(tuple, family))), dtype=int)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _shell_rows(shells, quantities) -> list:
    """Per-shell means of per-site vectors laid out shell after shell."""
    rows = []
    pos = 0
    for d, sites in shells.items():
        sl = slice(pos, pos + sites.size)
        for name, vals in quantities:
            rows.append(((d, name), float(vals[sl].mean())))
        pos += sites.size
    return rows


def _delta_restriction(spec, amplitude: float, center: int, ys=()):
    """C_f = exp(-a^2/4 tau(x)) of f = a delta_x at the center, times that at each of ``ys`` if given."""
    c_f = np.exp(-0.25 * amplitude**2 * tails(spec, np.append(center, ys).astype(int)))
    return c_f[0] * c_f[1:] if len(ys) else c_f[0]


def _fold(sups, values, bound) -> int:
    """Raise ``sups`` to the column maxima of ``values``; the count of its entries above ``bound``."""
    np.maximum(sups, values.max(axis=0), out=sups)
    return int(np.sum(values > bound + DOMINATION_SLACK))


def _kernel_eigencorrelator(config, box, spec, index):
    center, shells, ys = _shells(config, box)
    names = {-1: "q_minus", 0: "q_zero", 1: "q_plus"}
    quantities = [(names[s], eigencorrelator_profile(spec, s, center, ys)) for s in config.powers]
    return _shell_rows(shells, quantities), {}


def _kernel_lr(config, box, spec, index):
    center, shells, ys = _shells(config, box)
    a2 = config.amplitude**2
    cc = _delta_restriction(spec, config.amplitude, center, ys)
    envelopes = cc * np.minimum(2.0, a2 * eigencorrelator_profile(spec, -1, center, ys))
    sups, violations = np.full(ys.size, -np.inf), 0
    # (V a delta_x)_j = a phi_j(x) / sqrt(gamma_j), so Im<X f_t, X g> = -a^2 times the s = -1 sum
    for _, (sums,) in propagator_sums(spec, center, ys, _time_grid(config, spec), (-1,)):
        violations += _fold(sups, 2.0 * np.abs(np.sin(-a2 * sums / 2.0)) * cc, envelopes)
    rows = _shell_rows(shells, (("commutator_sup", sups), ("commutator_envelope", envelopes)))
    return rows, {"domination_violations": violations}


def _kernel_pq(config, box, spec, index):
    center, shells, ys = _shells(config, box)
    envelopes = [eigencorrelator_profile(spec, s, center, ys) for s in (-1, 0, 1)]
    sups, violations = np.full((3, ys.size), -np.inf), 0
    for _, sums in propagator_sums(spec, center, ys, _time_grid(config, spec), (-1, 0, 1)):
        violations += sum(_fold(*args) for args in zip(sups, map(np.abs, sums), envelopes))
    qq_sup, qp_sup, pp_sup = sups
    quantities = (
        ("qq_sup", qq_sup),
        ("qp_sup", qp_sup),
        ("pq_sup", qp_sup),
        ("pp_sup", pp_sup),
        *zip(("envelope_minus", "envelope_zero", "envelope_plus"), envelopes),
    )
    return _shell_rows(shells, quantities), {"domination_violations": violations}


def _kernel_correlations(config, box, spec, index):
    center, shells, ys = _shells(config, box)
    a = config.amplitude
    cc = _delta_restriction(spec, a, center, ys)
    times = _time_grid(config, spec)
    gam = spec.localized_gammas
    family = OccupationFamily(sup_alpha_strategy(config, gam.size, index))

    sq = np.sqrt(gam)
    w_center = spec.modes[center] / sq
    # |eta_j(t)| does not depend on t, so |eta|^2/2 and d_eta are per sample
    x_eta = (a * np.abs(w_center)) ** 2 / 2.0
    d_eta = family(x_eta)[:, None]

    xis = a * (spec.modes[ys] / sq[None, :])  # (sites, modes)
    x_xis = xis * xis / 2.0
    d_xis = family(x_xis)  # (A, sites)
    overlap = a * a * eigencorrelator_profile(spec, -1, center, ys)

    # xi is real, so the phase theta = Im<eta, xi> is -a^2 times the s = -1 sum, as in
    # lr-bound; |eta + xi|^2/2 is, per mode, Re(eta) xi + |eta|^2/2 + xi^2/2, and
    # the mode sums of the joint arguments for every site and time of a block are one product
    d_product = d_eta[:, :, None] * d_xis[:, None, :]  # (A, 1, sites)
    sups = np.full(ys.size, -np.inf)
    violations = 0
    for block, (theta,) in propagator_sums(spec, center, ys, times, (-1,)):  # (block, sites)
        theta *= -a * a
        # Re(eta) for eta = a e^{2 i t gamma} w_center, a (block, modes) table
        eta_re = np.cos(2.0 * times[block, None] * gam[None, :])
        eta_re *= a
        eta_re *= w_center
        x_sums = eta_re @ xis.T + (x_eta.sum() + x_xis.sum(axis=1))
        x_joint = np.empty_like(eta_re)
        d_joint = np.empty((family.alphas.shape[0],) + theta.shape)  # (A, block, sites)
        for pos, xi in enumerate(xis):
            np.multiply(eta_re, xi, out=x_joint)
            x_joint += x_eta + x_xis[pos]
            d_joint[:, :, pos] = family(x_joint, x_sums[:, pos])
        mags = np.abs(cc * (np.exp(-0.5j * theta) * d_joint - d_product))
        violations += int(np.sum(mags > 2.0 + DOMINATION_SLACK))
        np.maximum(sups, mags.max(axis=(0, 1)), out=sups)
    rows = _shell_rows(shells, (("correlation_sup", sups), ("overlap_sum", overlap)))
    return rows, {"correlation_bound_violations": violations}


def _kernel_quasi_locality(config, box, spec, index):
    center = config.center_index()
    a = config.amplitude
    c_f = _delta_restriction(spec, a, center)
    gam = spec.localized_gammas
    sq = np.sqrt(gam)
    family = OccupationFamily(sup_alpha_strategy(config, gam.size, index))
    per_state = np.sqrt(2.0 * (family.alphas.max(axis=1, initial=0) + 1))[:, None]

    # Sites are sorted by distance from the center, in the rows of the one copy of Phi_S
    # made here, so the sites outside X(n) that the radius n adds to those of the next
    # larger radius are a slice: its ring.
    dist = l1_distances_from(box, center)
    order = np.argsort(dist, kind="stable")
    dist, phi = dist[order], spec.modes[order]
    radii = sorted(config.n_range(), reverse=True)
    ends = [dist.size] + [int(np.searchsorted(dist, n, side="right")) for n in radii]
    rings = [slice(start, stop) for start, stop in zip(ends[1:], ends)]
    # X f_t in position space has real and imaginary parts a times the s = 0 and
    # s = -1 sums.  V f_{n,t} = sqrt(2) (u + i v) with u = O^T Re / sqrt(2 gamma) and
    # v = sqrt(gamma / 2) O^T Im over the sites outside X(n), so that the Laguerre
    # argument |V f_{n,t}|^2 / 2 is u^2 + v^2 per mode.
    scale_re, scale_im = a / (sq * np.sqrt(2.0)), a * sq / np.sqrt(2.0)
    err_sups, norm_sups = np.full(len(radii), -np.inf), np.full(len(radii), -np.inf)
    violations = 0
    for _, (pos_re, pos_im) in propagator_sums(spec, center, order, _time_grid(config, spec), (0, -1)):
        # O^T Re and O^T Im for the radii in decreasing order: one product over the
        # sites outside the largest X(n), then each smaller radius adds its ring.
        # Nothing is subtracted, so small tails keep their relative accuracy.
        shape = (pos_re.shape[0], gam.size)
        u, v, x, scratch = np.zeros(shape), np.zeros(shape), np.empty(shape), np.empty(shape)
        for i, ring in enumerate(rings):
            u += np.matmul(pos_re[:, ring], phi[ring], out=scratch)
            v += np.matmul(pos_im[:, ring], phi[ring], out=scratch)
            np.square(np.multiply(u, scale_re, out=x), out=x)
            x += np.square(np.multiply(v, scale_im, out=scratch), out=scratch)
            x_sum = x.sum(axis=1)
            norms = np.sqrt(2.0 * x_sum)
            err = c_f * np.sqrt(np.maximum(0.0, 2.0 - 2.0 * family(x, x_sum)))
            err_sups[i] = np.maximum(err_sups[i], err.max())
            norm_sups[i] = np.maximum(norm_sups[i], norms.max())
            violations += int(np.sum(err > per_state * norms + DOMINATION_SLACK))
    bounds = np.sqrt(2.0 * (config.kappa + 1)) * norm_sups
    rows = []
    for n, err_sup, bound in zip(radii, err_sups, bounds):
        rows += [((int(n), "error_sup"), float(err_sup)), ((int(n), "bound_sup"), float(bound))]
    return rows, {"bound_violations": violations}


def _energy_density_sample(config, index):
    disorder = config.disorder()
    lam = config.lambda0_value()
    grid_max = config.lambda_grid_max
    if grid_max is None:
        grid_max = 4.0 * 1 + config.k_max  # nu = 1 ladder boxes
    rows = []
    bracketing = 0
    ordering = 0
    degenerate = 0
    for length in config.lengths_ladder:
        box = BoxGeometry((length,))
        k = sample_disorder(disorder, box, index)
        spec_n = spectrum(assemble(box, k, "neumann"))
        spec_d = spectrum(assemble(box, k, "dirichlet"))
        degenerate += int(spec_n.flag_degenerate() or spec_d.flag_degenerate())
        grid = np.linspace(0.0, grid_max, config.lambda_grid_points)
        diff = counting_function(spec_n, grid) - counting_function(spec_d, grid)
        limit = box_boundary(box).size
        bracketing += int(np.sum((diff < 0) | (diff > limit)))
        rho_n = excitation_energy_density(spec_n, lam, config.kappa)
        rho_d = excitation_energy_density(spec_d, lam, config.kappa)
        # h_D - h_N >= 0 has rank r = |boundary|, so Weyl interlacing gives
        # rho_N <= rho_D with every mode kept, and |rho_N - rho_D| <= 2 kappa r sqrt(lambda0) / n;
        # from lambda0 = ||h_D|| on every mode is kept, so lambda0 is capped there
        if np.isinf(lam):
            ordering += int(rho_n > rho_d + DOMINATION_SLACK)
        bound = 2.0 * config.kappa * limit * np.sqrt(min(lam, spec_d.norm)) / box.n_sites
        ordering += int(abs(rho_n - rho_d) > bound + DOMINATION_SLACK)
        rows.append(((int(length), "neumann_density"), rho_n))
        rows.append(((int(length), "dirichlet_density"), rho_d))
        rows.append(((int(length), "density_gap"), rho_n - rho_d))
    flags = {
        "bracketing_violations": bracketing,
        "ordering_violations": ordering,
        "degenerate_samples": degenerate,
    }
    return SampleOutcome(index=index, rows=rows, flags=flags)


def _gap_stats_sample(config, index):
    disorder = config.disorder()
    box = config.box()
    spec = spectrum(assemble(box, sample_disorder(disorder, box, index)))
    gap = spec.min_gap()
    rel = gap / spec.norm
    mb_box = BoxGeometry((config.mb_length,))
    mb_spec = spectrum(assemble(mb_box, sample_disorder(disorder, mb_box, index)))
    occ = config.mb_occupation
    grids = np.meshgrid(*[np.arange(occ + 1)] * mb_box.n_sites, indexing="ij")
    alphas = np.stack([g.ravel() for g in grids], axis=1)
    energies = np.sort(many_body_energy(mb_spec, alphas))
    mb_gap = float(np.min(np.diff(energies)))
    rows = [
        (("one_body_min_gap",), float(gap)),
        (("one_body_rel_gap",), float(rel)),
        (("many_body_min_gap",), mb_gap),
    ]
    flags = {
        "one_body_gap_violations": int(spec.flag_degenerate()),
        "many_body_gap_violations": int(mb_gap <= 1e-10),
    }
    extrema = {"one_body_rel_gap_min": float(rel), "many_body_gap_min": mb_gap}
    return SampleOutcome(index=index, rows=rows, flags=flags, extrema=extrema)


KERNELS = {
    "eigencorrelator": _kernel_eigencorrelator,
    "lr-bound": _kernel_lr,
    "pq-bound": _kernel_pq,
    "correlations": _kernel_correlations,
    "quasi-locality": _kernel_quasi_locality,
}


def run_sample(config: ExperimentConfig, index: int) -> SampleOutcome:
    """Evaluate one disorder realization; pure in (config, index)."""
    kind = config.experiment
    if kind == "energy-density":
        return _energy_density_sample(config, index)
    if kind == "gap-stats":
        return _gap_stats_sample(config, index)
    box = config.box()
    k = sample_disorder(config.disorder(), box, index)
    spec = diagonalize(assemble(box, k), lambda0=config.lambda0_value())
    rows, flags = KERNELS[kind](config, box, spec, index)
    flags["degenerate_samples"] = int(spec.flag_degenerate())
    return SampleOutcome(index=index, rows=rows, flags=flags)


def _reduce(config: ExperimentConfig, outcomes: list[SampleOutcome]) -> EnsembleResult:
    outcomes = sorted(outcomes, key=lambda o: o.index)
    per_key: dict = {}  # in the order keys first appear
    flags: dict = {}
    extrema: dict = {}
    for outcome in outcomes:
        for key, value in outcome.rows:
            per_key.setdefault(key, []).append(value)
        for name, count in outcome.flags.items():
            flags[name] = flags.get(name, 0) + int(count)
        for name, value in outcome.extrema.items():
            extrema[name] = min(extrema.get(name, np.inf), value)

    rows = []
    for key, values in per_key.items():
        vals = np.asarray(values, dtype=float)
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        rows.append(ResultRow(key=key, mean=mean, stderr=stderr, count=int(vals.size)))

    metadata = {
        "config_digest": config.digest(),
        "seed": config.seed,
        "kind": config.experiment,
        "samples": config.samples,
        "lambda0": config.lambda0,
        "kappa": config.kappa,
        **{k: int(v) for k, v in sorted(flags.items())},
        **{k: float(v) for k, v in sorted(extrema.items())},
    }
    return EnsembleResult(
        kind=config.experiment,
        key_fields=KINDS[config.experiment],
        rows=rows,
        metadata=metadata,
    )


def run_ensemble(config: ExperimentConfig, workers: int | None = None) -> EnsembleResult:
    """Run all disorder samples of an experiment and aggregate per key.

    ``workers`` overrides the config; per-sample results are collected and
    reduced in index order, so the numbers are independent of parallelism.
    """
    n_workers = int(workers if workers is not None else config.workers)
    indices = range(config.samples)
    if n_workers <= 1 or config.samples == 1:
        outcomes = [run_sample(config, i) for i in indices]
    else:
        job = partial(run_sample, config)
        completed = 0
        outcomes = []
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
                for outcome in pool.map(job, indices):
                    outcomes.append(outcome)
                    completed += 1
        except Exception as exc:
            raise NumericError(
                f"worker failure after {completed} of {config.samples} samples: {exc}"
            ) from exc
    return _reduce(config, outcomes)
