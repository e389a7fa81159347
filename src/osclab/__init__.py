"""Numerical laboratory for disordered harmonic oscillator lattices."""

__version__ = "0.1.0"

from .lattice import (
    BoxGeometry,
    boundary,
    dirichlet_laplacian,
    l1_distance,
    neighborhood,
    neumann_laplacian,
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
    dynamic_correlation,
    laguerre,
    lr_weyl_commutator_norm,
    matrix_element,
    matrix_element_1d,
    pq_commutator_matrix,
    quasi_locality_bound,
    quasi_locality_error,
    restriction_constant,
)
