import numpy as np
import pytest

from osclab import _lapack, ensembles
from osclab.anderson import DisorderConfig, Stencil, assemble, diagonalize, sample_disorder
from osclab.lattice import BoxGeometry


def pytest_addoption(parser):
    parser.addoption(
        "--without-lapack",
        action="store_true",
        help="unbind numpy's LAPACK routines, so that every solve takes numpy's eigvalsh/eigh",
    )


def pytest_configure(config):
    # before the test modules import, so that their skip conditions read the patched binding
    if config.getoption("--without-lapack"):
        _lapack.binding = lambda: None


def make_chain_spec(n_sites, seed=11, k_max=1.0, bc="neumann", **regime):
    """SpectralData for a 1D chain with a reproducible disorder sample; ``regime`` goes to ``diagonalize``."""
    box = BoxGeometry([n_sites])
    cfg = DisorderConfig(k_max=k_max, master_seed=seed)
    return box, diagonalize(assemble(box, sample_disorder(cfg, box, 0), bc), **regime)


def chain_stencil(d):
    """h on a chain of len(d) sites: diagonal d and -1 between neighbours."""
    return Stencil(BoxGeometry([len(d)]), d)


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
    short = ensembles.sup_alpha_strategy(config, spec.localized_count(config.lambda0_value()), 0)
    family = np.zeros((short.shape[0], spec.n), dtype=int)
    family[:, : short.shape[1]] = short
    return family
