import numpy as np
import pytest

from etoff.entropy import check_table
from etoff.harness import conjugate_qubit_pair, sample_instance, saturation_instance


def random_joint(rng, nx, ny):
    t = rng.random((nx, ny))
    return check_table(t / t.sum())


def sample_one(dim, seed):
    """``sample_instance`` of one seed, as its (X, Z, M) instance rather than stacks of one."""
    return tuple(stack[0] for stack in sample_instance(dim, [seed]))


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240807)


@pytest.fixture
def qubit_pair():
    return conjugate_qubit_pair()


@pytest.fixture
def anchor():
    return saturation_instance()
