"""Free-boson reduction: the real-linear map V, effective dynamics, energies.

Complex fields f: sites -> C are plain complex vectors in site order.  The
map V sends them to mode space,

    V f = gamma^{-1/2} O^T Re[f] + i gamma^{1/2} O^T Im[f],

with inverse V^{-1} g = O gamma^{1/2} Re[g] + i O gamma^{-1/2} Im[g].  The
Weyl dynamics acts as f_t = V^{-1} e^{2 i t gamma} V f and the spectral
projection onto modes with gamma^2 <= lambda0 is X = V^{-1} 1_S V, which
coincides with the matrix O 1_S O^T.  All functions of h are evaluated
spectrally through ``SpectralData``; no series approximations anywhere.
"""

from __future__ import annotations

import numpy as np

from .anderson import SpectralData, Spectrum, localized_modes
from .errors import NumericError


def delta_field(n_sites: int, x: int, amplitude: complex = 1.0) -> np.ndarray:
    """Field equal to ``amplitude`` at site x and zero elsewhere."""
    f = np.zeros(n_sites, dtype=complex)
    f[int(x)] = amplitude
    return f


def _every_mode(spec: SpectralData):
    if spec.modes.shape[1] != spec.n:
        raise ValueError(f"V needs all {spec.n} modes, but only {spec.modes.shape[1]} were kept")


def v_map(spec: SpectralData, f: np.ndarray) -> np.ndarray:
    """Mode vector V f.  Real-linear, not complex-linear."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({spec.n},)")
    _every_mode(spec)
    re = spec.modes.T @ f.real
    im = spec.modes.T @ f.imag
    return re / np.sqrt(spec.gammas) + 1j * np.sqrt(spec.gammas) * im


def v_inverse(spec: SpectralData, g: np.ndarray) -> np.ndarray:
    """Field V^{-1} g."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (spec.n,):
        raise ValueError(f"mode vector has shape {g.shape}, expected ({spec.n},)")
    _every_mode(spec)
    re = spec.modes @ (np.sqrt(spec.gammas) * g.real)
    im = spec.modes @ (g.imag / np.sqrt(spec.gammas))
    return re + 1j * im


def evolve(spec: SpectralData, f: np.ndarray, t: float) -> np.ndarray:
    """Effective Weyl dynamics f_t = V^{-1} e^{2 i t gamma} V f."""
    return v_inverse(spec, np.exp(2j * float(t) * spec.gammas) * v_map(spec, f))


def project_localized(spec: SpectralData, lambda0: float, f: np.ndarray) -> np.ndarray:
    """X f: spectral projection of the field onto modes with gamma^2 <= lambda0."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({spec.n},)")
    S = localized_modes(spec, lambda0)
    if S.size == 0:
        return np.zeros_like(f)
    phi = spec.modes[:, S]
    return phi @ (phi.T @ f)


def default_time_grid(spec: SpectralData, points: int = 2000, t_max: float | None = None) -> np.ndarray:
    """Uniform grid on [0, T]; by default T = 4 pi / (min gamma spacing).

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
    return np.linspace(0.0, float(t_max), int(points))


def many_body_energy(spec: SpectralData, alpha) -> float:
    """E_alpha = sum_j gamma_j (2 alpha_j + 1)."""
    alpha = np.asarray(alpha, dtype=int)
    if alpha.shape != (spec.n,):
        raise ValueError(f"occupation vector has shape {alpha.shape}, expected ({spec.n},)")
    if np.any(alpha < 0):
        raise ValueError("occupations must be nonnegative")
    return float(np.sum(spec.gammas * (2 * alpha + 1)))


def excitation_energy_density(spec: Spectrum, lambda0: float, kappa: int) -> float:
    """(2 kappa / n) * sum of gamma_j over localized modes.

    Energy density per site of the state with kappa excitations in every
    localized mode, relative to the ground state.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    S = localized_modes(spec, lambda0)
    return 2.0 * kappa * float(np.sum(spec.gammas[S])) / spec.n


def counting_function(spec: Spectrum, lambda_grid) -> np.ndarray:
    """N(lambda) = number of eigenvalues strictly below lambda, per grid point."""
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda grid must be a nonempty vector")
    if np.any(np.diff(grid) < 0):
        raise ValueError("lambda grid must be ascending")
    return np.searchsorted(spec.eigenvalues, grid, side="left").astype(int)
