"""Closed-form oracle: the unsharp Lüders measurement of the qubit X.

With sharpness lambda the instrument has Kraus operators
K_+- = a Pi_+- + b Pi_-+, a = sqrt((1 + lambda)/2), b = sqrt((1 - lambda)/2),
Pi_+- the X projectors.  Its noise against X is that of a binary symmetric
channel with flip probability (1 - lambda)/2, and the best correction
against the conjugate Z leaves a binary symmetric channel with flip
probability P_e = (1 - sqrt(1 - lambda**2))/2, so every value below is
known in closed form.
"""

import math

import numpy as np
import pytest

from etoff.bounds import MARGIN_SLACK, certify
from etoff.entropy import EntropyOrder
from etoff.harness import conjugate_qubit_pair
from etoff.noise_disturbance import SearchConfig, disturbance, noise
from etoff.quantum import QuantumInstrument

SHARPNESS = (0.0, 0.3, 0.5, 1 / math.sqrt(2), 0.8, 0.95, 1.0)
ORDERS = (EntropyOrder.shannon(), EntropyOrder.tsallis(2.0), EntropyOrder.renyi(2.0))
SEARCH = SearchConfig(4, 2000, 7)


def unsharp_x(lam: float):
    """(X, Z, M): the conjugate qubit pair and the unsharp Lüders measurement of X."""
    x_obs, z_obs = conjugate_qubit_pair()
    a, b = math.sqrt((1 + lam) / 2), math.sqrt((1 - lam) / 2)
    plus, minus = x_obs.projectors
    kraus = np.stack([a * plus + b * minus, a * minus + b * plus])
    return x_obs, z_obs, QuantumInstrument(2, 2, ("m0", "m1"), kraus, np.arange(2))


def binary_entropy(p: float) -> float:
    return -sum(q * math.log(q) for q in (p, 1 - p) if q > 0)


@pytest.mark.parametrize("lam", SHARPNESS)
def test_unsharp_noise_and_disturbance_in_closed_form(lam):
    x_obs, z_obs, inst = unsharp_x(lam)
    p_e = (1 - math.sqrt(1 - lam ** 2)) / 2
    want_noise = (binary_entropy((1 - lam) / 2), (1 - lam ** 2) / 2, -math.log((1 + lam ** 2) / 2))
    want_dist = (binary_entropy(p_e), lam ** 2 / 2, -math.log(1 - lam ** 2 / 2))
    (noises,) = noise(x_obs[None], inst[None], list(ORDERS))
    (dists,) = disturbance(z_obs[None], inst[None], list(ORDERS), [SEARCH])
    for order, got, want in zip(ORDERS, noises, want_noise):
        assert abs(got - want) <= 1e-12, (order, lam)
    for order, res, want in zip(ORDERS, dists, want_dist):
        assert abs(res.best_value - want) <= 1e-9, (order, lam)


@pytest.mark.parametrize("relation, lam", [("Prop1", lam) for lam in
                                           (0.3, 0.6, 1 / math.sqrt(2), 0.9)]
                         + [("Prop2", 1 / math.sqrt(2))])
def test_unsharp_measurement_saturates_the_minimised_bound(relation, lam):
    cert = certify(*unsharp_x(lam), 2.0, 2.0, relation, SEARCH)
    assert abs(cert.margin) <= MARGIN_SLACK, (relation, lam, cert.margin)
