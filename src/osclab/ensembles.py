"""Monte Carlo disorder-averaging engine and the experiment kernels.

Each disorder realization is a pure function of (seed, sample index): the
worker assembles the effective Hamiltonian, diagonalizes it for the
config's lambda0 (eigenvalues only for the eigenvalue-only kinds
``energy-density`` and ``gap-stats``), evaluates the experiment's kernel on
the resulting ``SpectralData``, and returns per-key scalar rows.  The
kernels read S only from it: Phi_S, gamma_S and, where they read C_f, the
tails (``anderson.tails``).  Every time-dependent sum over S that a kernel
reads comes from ``anderson.propagator_sums``, one block of
``anderson.TIME_BLOCK`` times at a time, but one: Re<eta, xi> in
``correlations``, the s = -1 sum with cos in place of sin, which
``powers`` cannot ask for (below).  A kernel forms its tables for the
block (Laguerre arguments, occupation products), folds them into running
per-site or per-radius maxima and violation counts, and drops them, so
its memory does not grow with the number of time points.  Every kernel
returns ``(rows, flags)``.

``correlations`` reads Re(eta) from the block's cos table, which
``propagator_sums`` hands it, and forms Re<eta, xi> at the shell sites
itself, as one product of that table; it writes L_1 = 1 - x of each shell
site's joint argument straight into the occupation family's table
(``OccupationFamily.affine``), so no table of x is formed.
``quasi-locality`` takes the sites outside its largest neighbourhood X(n)
through their Gram matrix G = Phi_O^T Phi_O, formed once per sample with
a / sqrt(2 gamma) folded into its columns and passed to
``propagator_sums`` as its right-hand factor, so a block needs one
|S| x |S| product per power; each smaller radius adds its ring of sites.
Reduction happens after all samples are collected, in sample-index order,
so the output is bit-identical whatever runs the samples.  The config's
``workers`` counts processes, at most one per sample and per usable core.
At one worker the samples of an eigenvalue-only ensemble whose every solve
is ``dsterf`` on a chain's band run on threads, one per usable core, since
that sequential LAPACK routine calls no BLAS and releases the GIL; every
other ensemble runs them in the caller's thread.

Every kernel also verifies its theorem-shape dominations pointwise on the
evaluation grid (commutator values against envelopes, quasi-locality
errors against their bounds, correlations against the uniform bound 2)
and reports violation counts in the flags.  ``energy-density`` checks the
Dirichlet-Neumann bracketing on each ladder box as the interlacing of the
two ascending spectra, index by index, up to RECONSTRUCTION_RTOL * ||h_D||.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import _lapack
from .anderson import (
    RECONSTRUCTION_RTOL,
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
from .freeboson import default_time_grid, excitation_energy_density, many_body_energy
from .lattice import BoxGeometry, box_boundary, l1_distances_from
from .results import EnsembleResult, ResultRow
from .weyl import OccupationFamily

#: Slack for floating-point comparisons of mathematically strict dominations.
DOMINATION_SLACK = 1e-12

#: Shell sites per ``OccupationFamily.affine`` call in correlations, which spreads the call's fixed
#: cost.  On the L = 400 chain (blocks of 64 x 400) 3 to 6 ran the kernel about 10% faster than 1,
#: on a 2-vCPU x86-64 machine; each holds a table of SITES_PER_CALL blocks.
SITES_PER_CALL = 4


@dataclass
class SampleOutcome:
    index: int
    rows: list
    flags: dict = field(default_factory=dict)
    extrema: dict = field(default_factory=dict)


def _time_grid(config: ExperimentConfig, spec) -> tuple[float, float, int]:
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
    for (sums,), _ in propagator_sums(spec, center, spec.modes[ys].T, _time_grid(config, spec), (-1,)):
        violations += _fold(sups, 2.0 * np.abs(np.sin(-a2 * sums / 2.0)) * cc, envelopes)
    rows = _shell_rows(shells, (("commutator_sup", sups), ("commutator_envelope", envelopes)))
    return rows, {"domination_violations": violations}


def _kernel_pq(config, box, spec, index):
    center, shells, ys = _shells(config, box)
    envelopes = [eigencorrelator_profile(spec, s, center, ys) for s in (-1, 0, 1)]
    sups, violations = np.full((3, ys.size), -np.inf), 0
    for sums, _ in propagator_sums(spec, center, spec.modes[ys].T, _time_grid(config, spec), (-1, 0, 1)):
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
    # lr-bound, and the joint argument |eta + xi|^2/2 is, per mode, x_eta + x_xi + Re(eta) xi.
    # L_1 of it is shift - Re(eta) xi per site, which the family writes into its own table,
    # and its mode sums for every site and time of a block are one product.
    shifts = 1.0 - (x_eta + x_xis)  # (sites, modes)
    x_consts = x_eta.sum() + x_xis.sum(axis=1)
    d_product = d_eta[:, :, None] * d_xis[:, None, :]  # (A, 1, sites)
    sups, violations = np.full(ys.size, -np.inf), 0
    for (theta,), (cos, _) in propagator_sums(spec, center, spec.modes[ys].T, _time_grid(config, spec), (-1,)):
        theta *= -a * a  # (block, sites)
        # -Re(eta) for eta = a e^{2 i t gamma} w_center, in place over the block's cos table
        minus_eta = np.multiply(cos, -a * w_center, out=cos)
        x_sums = x_consts - minus_eta @ xis.T
        d_joint = np.empty((family.alphas.shape[0],) + theta.shape)  # (A, block, sites)
        for start in range(0, ys.size, SITES_PER_CALL):
            batch = slice(start, start + SITES_PER_CALL)
            joint = family.affine(minus_eta, xis[batch, None], shifts[batch, None], x_sums[:, batch].T)
            d_joint[:, :, batch] = joint.transpose(0, 2, 1)
        mags = np.abs(cc * (np.exp(-0.5j * theta) * d_joint - d_product))
        violations += _fold(sups, mags.reshape(-1, ys.size), 2.0)
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

    # X f_t in position space has real and imaginary parts a times the s = 0 and
    # s = -1 sums.  V f_{n,t} = sqrt(2) (u + i v) with u = O^T Re / sqrt(2 gamma) and
    # v = sqrt(gamma / 2) O^T Im over the sites O outside X(n), so that the Laguerre
    # argument |V f_{n,t}|^2 / 2 is u^2 + v^2 per mode.  For the sites outside the
    # largest X(n) both come from G = Phi_O^T Phi_O, with a / sqrt(2 gamma) folded into
    # its columns: u = (s = 0 sums over G) and v = gamma (s = -1 sums over G).  Each
    # smaller radius adds its ring of sites, farthest first, through their own sums.
    # Nothing is subtracted, so small tails keep their relative accuracy.
    dist = l1_distances_from(box, center)
    radii = sorted(config.n_range(), reverse=True)
    rings = [np.flatnonzero((dist > n) & (dist <= outer)) for outer, n in zip(radii, radii[1:])]
    ring_sites = np.concatenate([np.zeros(0, dtype=int), *rings])
    ends = np.cumsum([0] + [ring.size for ring in rings])
    rings = [slice(start, stop) for start, stop in zip(ends[:-1], ends[1:])]  # into ring_sites
    count = gam.size
    scale_re, scale_im = a / (sq * np.sqrt(2.0)), a * sq / np.sqrt(2.0)
    right = np.empty((count, count + ring_sites.size))  # [G | Phi_S at the ring sites, transposed]
    phi_out = spec.modes[dist > radii[0]]
    right[:, :count] = phi_out.T @ phi_out
    del phi_out
    right[:, :count] *= scale_re
    right[:, count:] = spec.modes[ring_sites].T
    ring_re, ring_im = spec.modes[ring_sites] * scale_re, spec.modes[ring_sites] * scale_im

    err_sups, norm_sups = np.full(len(radii), -np.inf), np.full(len(radii), -np.inf)
    violations = 0
    for (pos_re, pos_im), _ in propagator_sums(spec, center, right, _time_grid(config, spec), (0, -1)):
        u = np.array(pos_re[:, :count])  # contiguous: in-place sums on the strided view are slower
        v = np.multiply(pos_im[:, :count], gam)
        re_rings, im_rings = pos_re[:, count:], pos_im[:, count:]
        x, scratch = np.empty(u.shape), np.empty(u.shape)
        # per radius, the mode sums of x and the family's products at x, checked together below
        x_sums = np.empty((len(radii), u.shape[0]))
        products = np.empty((len(radii), family.alphas.shape[0], u.shape[0]))
        for i in range(len(radii)):
            if i:
                ring = rings[i - 1]
                u += np.matmul(re_rings[:, ring], ring_re[ring], out=scratch)
                v += np.matmul(im_rings[:, ring], ring_im[ring], out=scratch)
            np.square(u, out=x)
            x += np.square(v, out=scratch)
            np.sum(x, axis=1, out=x_sums[i])
            products[i] = family(x, x_sums[i])
        norms = np.sqrt(2.0 * x_sums)  # (radii, block)
        errs = c_f * np.sqrt(np.maximum(0.0, 2.0 - 2.0 * products))  # (radii, A, block)
        np.maximum(err_sups, errs.max(axis=(1, 2)), out=err_sups)
        np.maximum(norm_sups, norms.max(axis=1), out=norm_sups)
        violations += int(np.sum(errs > per_state * norms[:, None, :] + DOMINATION_SLACK))
    bounds = np.sqrt(2.0 * (config.kappa + 1)) * norm_sups
    rows = []
    for n, err_sup, bound in zip(radii, err_sups, bounds):
        rows += [((int(n), "error_sup"), float(err_sup)), ((int(n), "bound_sup"), float(bound))]
    return rows, {"bound_violations": violations}


def _energy_density_sample(config, index):
    lam = config.lambda0_value()
    rows = []
    bracketing = 0
    ordering = 0
    degenerate = 0
    for length in config.lengths_ladder:
        box = BoxGeometry((length,))
        k = sample_disorder(config.disorder, box, index)
        spec_n = spectrum(assemble(box, k, "neumann"))
        spec_d = spectrum(assemble(box, k, "dirichlet"))
        degenerate += int(spec_n.flag_degenerate() or spec_d.flag_degenerate())
        # h_D - h_N >= 0 is diagonal of rank r = |boundary|, so Weyl's inequalities give
        # lambda_j(h_N) <= lambda_j(h_D) <= lambda_{j+r}(h_N), which at every lambda is
        # 0 <= N_N(lambda) - N_D(lambda) <= r.  An index j counts once if it breaks either side by
        # more than tol, the eigenvalues' accuracy: modes far from the ends agree to round-off
        ev_n, ev_d, limit = spec_n.eigenvalues, spec_d.eigenvalues, box_boundary(box).size
        tol = RECONSTRUCTION_RTOL * spec_d.norm
        broken = ev_n > ev_d + tol
        above = box.n_sites - limit  # slices: r equals n on an L = 2 box
        broken[:above] |= ev_d[:above] > ev_n[limit:] + tol
        bracketing += int(np.sum(broken))
        rho_n = excitation_energy_density(spec_n, lam, config.kappa)
        rho_d = excitation_energy_density(spec_d, lam, config.kappa)
        # interlacing gives rho_N <= rho_D with every mode kept, and |rho_N - rho_D| <= 2 kappa r sqrt(lambda0) / n;
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
    box = config.box()
    spec = spectrum(assemble(box, sample_disorder(config.disorder, box, index)))
    gap = spec.min_gap()
    rel = gap / spec.norm
    mb_box = BoxGeometry((config.mb_length,))
    mb_spec = spectrum(assemble(mb_box, sample_disorder(config.disorder, mb_box, index)))
    occ = config.mb_occupation
    # every occupation vector, in C order, as one int array
    alphas = np.indices((occ + 1,) * mb_box.n_sites).reshape(mb_box.n_sites, -1).T
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


#: The eigenvalue-only kinds, which sample and solve their own boxes and run no kernel.
SPECTRUM_SAMPLERS = {
    "energy-density": _energy_density_sample,
    "gap-stats": _gap_stats_sample,
}


def run_sample(config: ExperimentConfig, index: int) -> SampleOutcome:
    """Evaluate one disorder realization; pure in (config, index)."""
    kind = config.experiment
    if kind in SPECTRUM_SAMPLERS:
        return SPECTRUM_SAMPLERS[kind](config, index)
    box = config.box()
    k = sample_disorder(config.disorder, box, index)
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


def _solves_only_chain_bands(config: ExperimentConfig) -> bool:
    """Whether every solve of a sample is ``dsterf`` on a chain's band: the ladder of ``energy-density``,
    and ``gap-stats`` on a chain, with numpy's LAPACK bound.  A 2D reduction, the kernels and numpy's
    solvers call BLAS-threaded code, which sample threads slowed down or did not speed up."""
    kind = config.experiment
    return _lapack.binding() is not None and (kind == "energy-density" or kind == "gap-stats" and config.box().nu == 1)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@cache
def _sample_threads() -> concurrent.futures.ThreadPoolExecutor | None:
    """The process's thread pool for samples, made on first use with one thread per usable core;
    None where only one core is usable."""
    cores = _usable_cores()
    return concurrent.futures.ThreadPoolExecutor(max_workers=cores) if cores > 1 else None


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's pool threads, so it makes its own pool
    os.register_at_fork(after_in_child=_sample_threads.cache_clear)


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Run all disorder samples of an experiment and aggregate per key.

    With ``config.workers`` above one and more than one sample, the samples
    run in a pool of min(workers, samples, usable cores) worker processes,
    and a failure in one becomes a NumericError.  Otherwise the samples of
    an ensemble whose every solve is ``dsterf`` on a chain's band
    (``energy-density``, and ``gap-stats`` on a chain, with numpy's LAPACK
    bound) run on the process's thread pool, one thread per usable core,
    and any other one in the caller's thread; an exception a sample raises
    on a thread reaches the caller unchanged.  Per-sample results are
    collected and reduced in index order, so the bytes of the table depend
    on neither the worker count nor the threads.
    """
    job, indices = partial(run_sample, config), range(config.samples)
    if config.workers > 1 and config.samples > 1:
        workers = min(config.workers, config.samples, _usable_cores())
        outcomes = []
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes.extend(pool.map(job, indices))  # keeps the outcomes that came before a failure
        except Exception as exc:
            raise NumericError(f"worker failure after {len(outcomes)} of {config.samples} samples: {exc}") from exc
    elif config.samples > 1 and _solves_only_chain_bands(config) and (threads := _sample_threads()):
        outcomes = list(threads.map(job, indices))
    else:
        outcomes = list(map(job, indices))
    return _reduce(config, outcomes)
