import numpy as np
import pytest

from osclab import ensembles
from osclab.anderson import DisorderConfig, assemble, diagonalize, localized_modes, sample_disorder
from osclab.lattice import BoxGeometry


def make_chain_spec(n_sites, seed=11, k_max=1.0, bc="neumann"):
    """SpectralData for a 1D chain with a reproducible disorder sample."""
    box = BoxGeometry.of_lengths([n_sites])
    cfg = DisorderConfig(k_max=k_max, master_seed=seed)
    sample = sample_disorder(cfg, box, 0)
    return box, diagonalize(assemble(box, sample, bc), bc)


@pytest.fixture
def chain12():
    return make_chain_spec(12)


@pytest.fixture
def pair_spec():
    """Two-site system, the workhorse for oracle comparisons."""
    return make_chain_spec(2, seed=5)


def laguerre_direct(n, k, x):
    """Direct-summation Laguerre oracle (finite sum definition), n < 12 only."""
    from math import comb, factorial

    assert n < 12
    return sum(comb(n + k, n - j) * (-1) ** j * x**j / factorial(j) for j in range(n + 1))


def random_field(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def kernel_family(config, spec):
    """The occupation vectors a kernel takes its suprema over, padded to one entry per mode."""
    S = localized_modes(spec, config.lambda0_value())
    short = ensembles._alpha_family(config, spec, S, 0)
    family = np.zeros((short.shape[0], spec.n), dtype=int)
    family[:, : S.size] = short
    return family
