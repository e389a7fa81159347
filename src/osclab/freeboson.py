"""Free-boson quantities the experiments read: time grids and energies.

Everything is evaluated spectrally through ``Spectrum`` or
``SpectralData``; no series approximations anywhere.  The map V, the field
dynamics V^{-1} e^{2 i t gamma} V and the projection X live in the
reference layer ``fock_oracle``; the kernels read their sums over sites
and modes from ``anderson.propagator_sums``.
"""

from __future__ import annotations

import numpy as np

from .anderson import SpectralData, Spectrum
from .errors import NumericError


def default_time_grid(spec: SpectralData, points: int, t_max: float | None = None) -> tuple[float, float, int]:
    """np.linspace's (0, T, points) of a uniform grid on [0, T]; by default T = 4 pi / (min gamma spacing).

    A derived T that is not finite (a repeated gamma, so a zero spacing)
    is a NumericError: no finite grid resolves it, so pass ``t_max``.
    """
    if t_max is None:
        if spec.n < 2:
            scale, spacing, name = 2 * np.pi, np.float64(spec.gammas[0]), "gamma"
        else:
            scale, spacing, name = 4 * np.pi, np.min(np.diff(spec.gammas)), "minimum gamma spacing"
        with np.errstate(divide="ignore", over="ignore"):
            t_max = scale / spacing
        if not np.isfinite(t_max):
            raise NumericError(f"default time horizon is not finite: {name} {float(spacing):.3g}; set t_max")
    return 0.0, float(t_max), int(points)


def many_body_energy(spec: Spectrum, alphas) -> np.ndarray:
    """E_alpha = sum_j gamma_j (2 alpha_j + 1) for each row alpha of an (A, n) family."""
    alphas = np.asarray(alphas, dtype=int)
    if alphas.ndim != 2 or alphas.shape[1] != spec.n:
        raise ValueError(f"occupation family has shape {alphas.shape}, expected (A, {spec.n})")
    if np.min(alphas, initial=0) < 0:
        raise ValueError("occupations must be nonnegative")
    # one float temporary, 2 alpha + 1 exactly; in C order, as numpy casts the int form for the
    # product, since the order of the rows' sums, and so their bits, follows the memory order
    weights = alphas.astype(float, order="C")
    weights *= 2
    weights += 1
    return weights @ spec.gammas


def excitation_energy_density(spec: Spectrum, lambda0: float, kappa: int) -> float:
    """(2 kappa / n) * sum of gamma_j over localized modes.

    Energy density per site of the state with kappa excitations in every
    localized mode, relative to the ground state.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return 2.0 * kappa * float(np.sum(spec.gammas[: spec.localized_count(lambda0)])) / spec.n
