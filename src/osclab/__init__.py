"""Numerical laboratory for disordered harmonic oscillator lattices."""

__version__ = "0.1.0"

from .lattice import BoxGeometry
from .anderson import (
    DisorderConfig,
    SpectralData,
    Spectrum,
    Stencil,
    assemble,
    diagonalize,
    eigencorrelator_profile,
    propagator_sums,
    sample_disorder,
    spectrum,
    tails,
)
from .freeboson import (
    excitation_energy_density,
    many_body_energy,
)
