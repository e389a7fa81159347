"""Numerical laboratory for disordered harmonic oscillator lattices."""

__version__ = "0.1.0"

from .lattice import (
    BoxGeometry,
    boundary,
    l1_distance,
    neighborhood,
)
from .anderson import (
    DisorderConfig,
    DisorderSample,
    SpectralData,
    Spectrum,
    Tridiagonal,
    assemble,
    diagonalize,
    eigencorrelator,
    localized_modes,
    propagator_sums,
    sample_disorder,
    spectrum,
)
from .freeboson import (
    counting_function,
    delta_field,
    evolve,
    excitation_energy_density,
    many_body_energy,
    project_localized,
    v_inverse,
    v_map,
)
from .weyl import (
    laguerre,
    matrix_element_1d,
)
