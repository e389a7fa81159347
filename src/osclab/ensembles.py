"""Monte Carlo disorder-averaging engine and the experiment kernels.

Each disorder realization is a pure function of (seed, sample index): the
worker assembles the effective Hamiltonian, diagonalizes it (eigenvalues
only for the eigenvalue-only kinds ``energy-density`` and ``gap-stats``),
evaluates the experiment's kernel on it, and returns per-key scalar rows.
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
    DEGENERACY_RTOL,
    DisorderConfig,
    assemble,
    diagonalize,
    eigencorrelator_profile,
    localized_modes,
    propagator_sums,
    sample_disorder,
    spectrum,
)
from .config import ExperimentConfig
from .errors import NumericError
from .freeboson import default_time_grid, excitation_energy_density, counting_function
from .lattice import BoxGeometry, box_boundary, l1_distances_from
from .results import EnsembleResult, ResultRow
from .weyl import diagonal_products

#: Slack for floating-point comparisons of mathematically strict dominations.
DOMINATION_SLACK = 1e-12


@dataclass
class SampleOutcome:
    index: int
    rows: list
    flags: dict = field(default_factory=dict)
    extrema: dict = field(default_factory=dict)


def _disorder_config(config: ExperimentConfig) -> DisorderConfig:
    return DisorderConfig(
        k_max=config.k_max,
        master_seed=config.seed,
        kind=config.disorder_kind,
        table_u=config.table_u,
        table_k=config.table_k,
    )


def _time_grid(config: ExperimentConfig, spec) -> np.ndarray:
    return default_time_grid(spec, points=config.time_points, t_max=config.t_max)


def _shell_sites(box: BoxGeometry, center: int, shells) -> dict[int, np.ndarray]:
    dists = l1_distances_from(box, center)
    return {int(d): np.flatnonzero(dists == int(d)) for d in shells}


def sup_alpha_strategy(kappa: int, n_modes: int, regime_modes, rng=None, random_count: int = 2):
    """Finite occupation-vector family over which eigenstate suprema are taken.

    Always contains the vacuum; for kappa > 0 also the vector with kappa
    excitations in every regime mode, plus ``random_count`` random vectors
    supported there.  A documented lower bound on the supremum over the
    full regime: enlarging the family can only increase the reported value.
    """
    regime = np.asarray(regime_modes, dtype=int)
    seen = set()
    out = []

    def push(alpha):
        key = tuple(alpha.tolist())
        if key not in seen:
            seen.add(key)
            out.append(alpha)

    push(np.zeros(n_modes, dtype=int))
    if kappa > 0 and regime.size:
        full = np.zeros(n_modes, dtype=int)
        full[regime] = kappa
        push(full)
        if rng is not None:
            for _ in range(random_count):
                alpha = np.zeros(n_modes, dtype=int)
                alpha[regime] = rng.integers(0, kappa + 1, size=regime.size)
                push(alpha)
    return out


def _alpha_family(config: ExperimentConfig, spec, S, index: int) -> np.ndarray:
    """The sup_alpha_strategy family as an (A, |S|) array over the regime modes."""
    rng = np.random.default_rng([int(config.seed), int(index), 0xA1FA])
    family = sup_alpha_strategy(config.kappa, spec.n, S, rng=rng, random_count=config.alpha_random)
    return np.stack(family)[:, : S.size]


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


def _delta_restriction(spec, cnt: int, amplitude: float, sites) -> np.ndarray:
    """C_f = exp(-a^2/4 sum_{j not in S} phi_j(x)^2 / gamma_j) for f = a delta_x at each site x."""
    tails = np.square(spec.modes[sites, cnt:]) @ (1.0 / spec.gammas[cnt:])
    return np.exp(-0.25 * amplitude**2 * tails)


def _kernel_eigencorrelator(config, box, spec, index):
    lam = config.lambda0_value()
    center = config.center_index()
    shells = _shell_sites(box, center, config.shell_values())
    names = {-1: "q_minus", 0: "q_zero", 1: "q_plus"}
    rows = []
    for s in config.powers:
        profile = eigencorrelator_profile(spec, lam, s, center)
        for d, sites in shells.items():
            rows.append(((d, names[s]), float(profile[sites].mean())))
    return rows, {}, {}


def _kernel_lr(config, box, spec, index):
    lam = config.lambda0_value()
    cnt = localized_modes(spec, lam).size
    center = config.center_index()
    shells = _shell_sites(box, center, config.shell_values())
    ys = np.concatenate(list(shells.values()))
    a2 = config.amplitude**2
    times = _time_grid(config, spec)
    # (V a delta_x)_j = a phi_j(x) / sqrt(gamma_j), so Im<X f_t, X g> = -a^2 times the s = -1 sum
    (sums,) = propagator_sums(spec, lam, center, ys, times, (-1,))
    c = _delta_restriction(spec, cnt, config.amplitude, np.concatenate([[center], ys]))
    cc = c[0] * c[1:]
    values = 2.0 * np.abs(np.sin(-a2 * sums / 2.0)) * cc[None, :]
    envelopes = cc * np.minimum(2.0, a2 * eigencorrelator_profile(spec, lam, -1, center)[ys])
    violations = int(np.sum(values > envelopes[None, :] + DOMINATION_SLACK))
    rows = _shell_rows(shells, (("commutator_sup", values.max(axis=0)), ("commutator_envelope", envelopes)))
    return rows, {"domination_violations": violations}, {}


def _kernel_pq(config, box, spec, index):
    lam = config.lambda0_value()
    center = config.center_index()
    shells = _shell_sites(box, center, config.shell_values())
    ys = np.concatenate(list(shells.values()))
    times = _time_grid(config, spec)
    qq, qp, pp = (np.abs(v) for v in propagator_sums(spec, lam, center, ys, times, (-1, 0, 1)))
    env_minus, env_zero, env_plus = (eigencorrelator_profile(spec, lam, s, center)[ys] for s in (-1, 0, 1))
    violations = int(
        np.sum(qq > env_minus[None, :] + DOMINATION_SLACK)
        + np.sum(qp > env_zero[None, :] + DOMINATION_SLACK)
        + np.sum(pp > env_plus[None, :] + DOMINATION_SLACK)
    )
    quantities = (
        ("qq_sup", qq.max(axis=0)),
        ("qp_sup", qp.max(axis=0)),
        ("pq_sup", qp.max(axis=0)),
        ("pp_sup", pp.max(axis=0)),
        ("envelope_minus", env_minus),
        ("envelope_zero", env_zero),
        ("envelope_plus", env_plus),
    )
    return _shell_rows(shells, quantities), {"domination_violations": violations}, {}


def _kernel_correlations(config, box, spec, index):
    lam = config.lambda0_value()
    S = localized_modes(spec, lam)
    cnt = S.size
    center = config.center_index()
    shells = _shell_sites(box, center, config.shell_values())
    ys = np.concatenate(list(shells.values()))
    a = config.amplitude
    times = _time_grid(config, spec)
    c = _delta_restriction(spec, cnt, a, np.concatenate([[center], ys]))
    cc = c[0] * c[1:]
    alphas = _alpha_family(config, spec, S, index)

    gam = spec.gammas[:cnt]
    sq = np.sqrt(gam)
    w_center = spec.modes[center, :cnt] / sq
    eta = a * np.exp(2j * times[:, None] * gam[None, :]) * w_center[None, :]  # (T, modes)
    eta_re, eta_im = eta.real.copy(), eta.imag.copy()
    # |eta_j(t)| does not depend on t, so |eta|^2/2 and d_eta are per sample
    x_eta = (a * np.abs(w_center)) ** 2 / 2.0
    d_eta = diagonal_products(alphas, x_eta)[:, None]

    xis = a * (spec.modes[ys, :cnt] / sq[None, :])  # (sites, modes)
    x_xis = xis * xis / 2.0
    d_xis = diagonal_products(alphas, x_xis)  # (A, sites)
    overlap = a * a * eigencorrelator_profile(spec, lam, -1, center)[ys]

    sups = np.empty(ys.size)
    violations = 0
    for pos, xi in enumerate(xis):
        # xi is real: Im<eta, xi> = -Im(eta) . xi and |eta + xi|^2/2 expands
        theta = -(eta_im @ xi)
        x_joint = eta_re * xi + (x_eta + x_xis[pos])
        d_joint = diagonal_products(alphas, x_joint)  # (A, T)
        mags = np.abs(cc[pos] * (np.exp(-0.5j * theta) * d_joint - d_eta * d_xis[:, pos, None]))
        violations += int(np.sum(mags > 2.0 + DOMINATION_SLACK))
        sups[pos] = mags.max()
    rows = _shell_rows(shells, (("correlation_sup", sups), ("overlap_sum", overlap)))
    return rows, {"correlation_bound_violations": violations}, {}


def _kernel_quasi_locality(config, box, spec, index):
    lam = config.lambda0_value()
    S = localized_modes(spec, lam)
    cnt = S.size
    center = config.center_index()
    a = config.amplitude
    times = _time_grid(config, spec)
    c_f = _delta_restriction(spec, cnt, a, [center])[0]
    gam = spec.gammas[:cnt]
    sq = np.sqrt(gam)
    alphas = _alpha_family(config, spec, S, index)
    per_state = np.sqrt(2.0 * (alphas.max(axis=1, initial=0) + 1))[:, None]

    # X f_t in position space for the whole grid at once, the real and the
    # imaginary part side by side: (sites, 2 * times)
    eta = a * np.exp(2j * gam[:, None] * times[None, :]) * (spec.modes[center, :cnt] / sq)[:, None]
    phi = spec.modes[:, :cnt]
    pos = phi @ np.hstack([sq[:, None] * eta.real, eta.imag / sq[:, None]])
    steps = times.size

    # V f_{n,t} for the radii in decreasing order: one product over the sites
    # outside the largest X(n), then each smaller radius adds back its ring.
    # Nothing is subtracted, so small tails keep their relative accuracy.
    dist = l1_distances_from(box, center)
    vr = np.zeros((2 * steps, cnt))
    reached = np.inf
    per_n = {}
    for n in sorted(config.n_range(), reverse=True):
        ring = (dist > n) & (dist <= reached)
        vr += pos[ring].T @ phi[ring]
        reached = n
        mod_sq = np.square(vr[:steps] / sq) + np.square(vr[steps:] * sq)  # (T, modes)
        norms = np.sqrt(np.sum(mod_sq, axis=1))
        err = c_f * np.sqrt(np.maximum(0.0, 2.0 - 2.0 * diagonal_products(alphas, mod_sq / 2.0)))
        bound = float(np.sqrt(2.0 * (config.kappa + 1)) * norms.max())
        per_n[n] = (
            [((int(n), "error_sup"), float(err.max())), ((int(n), "bound_sup"), bound)],
            int(np.sum(err > per_state * norms + DOMINATION_SLACK)),
        )
    rows = [row for n in config.n_range() for row in per_n[n][0]]
    violations = sum(per_n[n][1] for n in config.n_range())
    return rows, {"bound_violations": violations}, {}


def _energy_density_sample(config, index):
    disorder = _disorder_config(config)
    lam = config.lambda0_value()
    grid_max = config.lambda_grid_max
    if grid_max is None:
        grid_max = 4.0 * 1 + config.k_max  # nu = 1 ladder boxes
    rows = []
    bracketing = 0
    ordering = 0
    degenerate = 0
    for length in config.lengths_ladder:
        box = BoxGeometry.of_lengths([int(length)])
        sample = sample_disorder(disorder, box, index)
        spec_n = spectrum(assemble(box, sample, "neumann"), "neumann")
        spec_d = spectrum(assemble(box, sample, "dirichlet"), "dirichlet")
        degenerate += int(spec_n.flag_degenerate() or spec_d.flag_degenerate())
        grid = np.linspace(0.0, grid_max, config.lambda_grid_points)
        diff = counting_function(spec_n, grid) - counting_function(spec_d, grid)
        limit = box_boundary(box).size
        bracketing += int(np.sum((diff < 0) | (diff > limit)))
        rho_n = excitation_energy_density(spec_n, lam, config.kappa)
        rho_d = excitation_energy_density(spec_d, lam, config.kappa)
        ordering += int(rho_n < rho_d - DOMINATION_SLACK)
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
    disorder = _disorder_config(config)
    box = config.box()
    spec = spectrum(assemble(box, sample_disorder(disorder, box, index)))
    gap = spec.min_gap()
    rel = gap / spec.norm
    mb_box = BoxGeometry.of_lengths([config.mb_length])
    mb_spec = spectrum(assemble(mb_box, sample_disorder(disorder, mb_box, index)))
    occ = config.mb_occupation
    grids = np.meshgrid(*[np.arange(occ + 1)] * mb_box.n_sites, indexing="ij")
    alphas = np.stack([g.ravel() for g in grids], axis=1)
    energies = np.sort((2 * alphas + 1) @ mb_spec.gammas)
    mb_gap = float(np.min(np.diff(energies)))
    rows = [
        (("one_body_min_gap",), float(gap)),
        (("one_body_rel_gap",), float(rel)),
        (("many_body_min_gap",), mb_gap),
    ]
    flags = {
        "one_body_gap_violations": int(rel <= DEGENERACY_RTOL),
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

KEY_FIELDS = {
    "eigencorrelator": ("distance", "quantity"),
    "lr-bound": ("distance", "quantity"),
    "pq-bound": ("distance", "quantity"),
    "correlations": ("distance", "quantity"),
    "quasi-locality": ("n", "quantity"),
    "energy-density": ("L", "quantity"),
    "gap-stats": ("quantity",),
}


def run_sample(config: ExperimentConfig, index: int) -> SampleOutcome:
    """Evaluate one disorder realization; pure in (config, index)."""
    kind = config.experiment
    if kind == "energy-density":
        return _energy_density_sample(config, index)
    if kind == "gap-stats":
        return _gap_stats_sample(config, index)
    box = config.box()
    sample = sample_disorder(_disorder_config(config), box, index)
    spec = diagonalize(assemble(box, sample))
    rows, flags, extrema = KERNELS[kind](config, box, spec, index)
    flags["degenerate_samples"] = flags.get("degenerate_samples", 0) + int(spec.flag_degenerate())
    return SampleOutcome(index=index, rows=rows, flags=flags, extrema=extrema)


def _reduce(config: ExperimentConfig, outcomes: list[SampleOutcome]) -> EnsembleResult:
    outcomes = sorted(outcomes, key=lambda o: o.index)
    per_key: dict = {}
    order: list = []
    flags: dict = {}
    extrema: dict = {}
    for outcome in outcomes:
        for key, value in outcome.rows:
            if key not in per_key:
                per_key[key] = []
                order.append(key)
            per_key[key].append(value)
        for name, count in outcome.flags.items():
            flags[name] = flags.get(name, 0) + int(count)
        for name, value in outcome.extrema.items():
            extrema[name] = min(extrema.get(name, np.inf), value)

    rows = []
    for key in order:
        vals = np.asarray(per_key[key], dtype=float)
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        rows.append(ResultRow(key=key, mean=mean, stderr=stderr, count=int(vals.size)))

    metadata = {
        "config_digest": config.digest(),
        "seed": config.seed,
        "kind": config.experiment,
        "samples": config.samples,
        "lambda0": config.lambda0 if config.lambda0 == "full" else float(config.lambda0),
        "kappa": config.kappa,
        **{k: int(v) for k, v in sorted(flags.items())},
        **{k: float(v) for k, v in sorted(extrema.items())},
    }
    return EnsembleResult(
        kind=config.experiment,
        key_fields=KEY_FIELDS[config.experiment],
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
