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
from .lattice import BoxGeometry


def delta_field(n_sites: int, x: int, amplitude: complex = 1.0) -> np.ndarray:
    """Field equal to ``amplitude`` at site x and zero elsewhere."""
    f = np.zeros(n_sites, dtype=complex)
    f[int(x)] = amplitude
    return f


def support(f: np.ndarray) -> np.ndarray:
    """Indices where the field is nonzero."""
    return np.flatnonzero(f)


def v_map(spec: SpectralData, f: np.ndarray) -> np.ndarray:
    """Mode vector V f.  Real-linear, not complex-linear."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (spec.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({spec.n},)")
    re = spec.modes.T @ f.real
    im = spec.modes.T @ f.imag
    return re / np.sqrt(spec.gammas) + 1j * np.sqrt(spec.gammas) * im


def v_inverse(spec: SpectralData, g: np.ndarray) -> np.ndarray:
    """Field V^{-1} g."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (spec.n,):
        raise ValueError(f"mode vector has shape {g.shape}, expected ({spec.n},)")
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


def dynamics_block_matrix(spec: SpectralData, lambda0: float, t: float):
    """The four real blocks mapping (Re g, Im g) to (Re[X g_t], Im[X g_t]).

    Returns (upper_left, upper_right, lower_left, lower_right) =
    (cos(2t sqrt(h)) X, -sin(2t sqrt(h)) sqrt(h) X,
     sin(2t sqrt(h)) h^{-1/2} X, cos(2t sqrt(h)) X).
    """
    S = localized_modes(spec, lambda0)
    n = spec.n
    if S.size == 0:
        z = np.zeros((n, n))
        return z, z.copy(), z.copy(), z.copy()
    phi = spec.modes[:, S]
    g = spec.gammas[S]
    c, s = np.cos(2 * t * g), np.sin(2 * t * g)
    cos_block = (phi * c) @ phi.T
    upper_right = -(phi * (s * g)) @ phi.T
    lower_left = (phi * (s / g)) @ phi.T
    return cos_block, upper_right, lower_left, cos_block.copy()


def _overlap_mode_coefficients(spec, lambda0, f, g):
    """Per-mode (A, B, C, D) with <f, X g_t> = sum_j (A cos + B sin) + i (C cos + D sin).

    The angle is 2 t gamma_j per mode j in S.
    """
    S = localized_modes(spec, lambda0)
    phiT = spec.modes[:, S].T
    gam = spec.gammas[S]
    rf, imf = phiT @ np.real(f), phiT @ np.imag(f)
    rg, img = phiT @ np.real(g), phiT @ np.imag(g)
    A = rf * rg + imf * img
    B = imf * rg / gam - gam * rf * img
    C = rf * img - imf * rg
    D = rf * rg / gam + gam * imf * img
    return gam, A, B, C, D


def sup_t_overlap(spec: SpectralData, lambda0: float, f, g, times) -> tuple[float, float]:
    """Bracket sup_t |<f, X g_t>| by (grid maximum, per-mode envelope).

    The lower bound is the maximum over the time grid; the upper bound sums
    the largest singular value of each mode's 2x2 coefficient matrix
    [[A, B], [C, D]], a rigorous triangle-inequality envelope that the grid
    value can never exceed.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("time grid must be nonempty")
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    gam, A, B, C, D = _overlap_mode_coefficients(spec, lambda0, f, g)
    if gam.size == 0:
        return 0.0, 0.0
    ang = 2.0 * times[:, None] * gam[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    vals = (cos @ A + sin @ B) + 1j * (cos @ C + sin @ D)
    lower = float(np.max(np.abs(vals)))
    # sigma_max of [[A,B],[C,D]] via the closed form for 2x2 singular values
    frob2 = A * A + B * B + C * C + D * D
    det = A * D - B * C
    disc = np.sqrt(np.maximum(frob2 * frob2 - 4.0 * det * det, 0.0))
    upper = float(np.sum(np.sqrt((frob2 + disc) / 2.0)))
    # the envelope dominates mathematically; guard against rounding at saturation
    return lower, max(upper, lower)


def default_time_grid(spec: SpectralData, points: int = 2000, t_max: float | None = None) -> np.ndarray:
    """Uniform grid on [0, T]; by default T = 4 pi / (min gamma spacing)."""
    if t_max is None:
        if spec.n < 2:
            t_max = 2 * np.pi / float(spec.gammas[0])
        else:
            gap = float(np.min(np.diff(spec.gammas)))
            t_max = 4 * np.pi / max(gap, np.finfo(float).tiny)
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
