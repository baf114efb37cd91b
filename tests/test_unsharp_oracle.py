"""Closed-form oracle: the unsharp Lüders measurement of the qubit X.

With sharpness lambda the instrument has Kraus operators
K_+- = a Pi_+- + b Pi_-+, a = sqrt((1 + lambda)/2), b = sqrt((1 - lambda)/2),
Pi_+- the X projectors (``harness.unsharp_luders_instance``).  Its noise
against X is that of a binary symmetric channel with flip probability
(1 - lambda)/2, and the best correction against the conjugate Z leaves a
binary symmetric channel with flip probability
P_e = (1 - sqrt(1 - lambda**2))/2, so every value below is known in
closed form.  Measuring Z on the output, the flag-discarding identity,
is itself a Helstrom measurement here, since the two states each outcome
leaves are mirror images about the Z axis; so the support-angle search
is also checked on its own.
"""

import json
import math

import numpy as np
import pytest

from etoff.bounds import MARGIN_SLACK, certify
from etoff.cli import main
from etoff.entropy import EntropyOrder, conditional_entropy
from etoff.harness import instance_to_json, unsharp_luders_instance
from etoff.noise_disturbance import (
    SearchConfig,
    _angle_search,
    _flagged,
    disturbance,
    disturbance_joint,
    noise,
)

SHARPNESS = (0.0, 0.3, 0.5, 1 / math.sqrt(2), 0.8, 0.95, 1.0)
ORDERS = (EntropyOrder.shannon(), EntropyOrder.tsallis(2.0), EntropyOrder.renyi(2.0))
SEARCH = SearchConfig(1, 150)  # the sweep's budget


def binary_entropy(p: float) -> float:
    return -sum(q * math.log(q) for q in (p, 1 - p) if q > 0)


def closed_forms(lam: float) -> tuple:
    """(noise, disturbance) per order of ORDERS."""
    p_e = (1 - math.sqrt(1 - lam ** 2)) / 2
    return ((binary_entropy((1 - lam) / 2), (1 - lam ** 2) / 2, -math.log((1 + lam ** 2) / 2)),
            (binary_entropy(p_e), lam ** 2 / 2, -math.log(1 - lam ** 2 / 2)))


def test_unsharp_kraus_operators_are_the_closed_form():
    for lam in SHARPNESS:
        x_obs, _, inst = unsharp_luders_instance(lam)
        a, b = math.sqrt((1 + lam) / 2), math.sqrt((1 - lam) / 2)
        plus, minus = x_obs.projectors
        assert np.allclose(inst.kraus, [a * plus + b * minus, a * minus + b * plus], atol=1e-15)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="sharpness"):
            unsharp_luders_instance(bad)


@pytest.mark.parametrize("lam", SHARPNESS)
def test_unsharp_noise_and_disturbance_in_closed_form(lam):
    x_obs, z_obs, inst = unsharp_luders_instance(lam)
    want_noise, want_dist = closed_forms(lam)
    (noises,) = noise(x_obs[None], inst[None], list(ORDERS))
    values, _, _, converged, names = (a[0] for a in disturbance(
        z_obs[None], inst[None], list(ORDERS), SEARCH, [7]))
    for order, got, want in zip(ORDERS, noises, want_noise):
        assert abs(got - want) <= 1e-12, (order, lam)
    for order, value, closed, name, want in zip(ORDERS, values, converged, names, want_dist):
        assert abs(value - want) <= 1e-9, (order, lam)
        assert closed, (order, lam)
        assert name in ("discard_flag", "support_angle"), (order, lam)


@pytest.mark.parametrize("lam", [lam for lam in SHARPNESS if 0 < lam < 1])
def test_unsharp_support_angle_alone_meets_the_helstrom_value(lam):
    # the flag-discarding identity ties with the angle here, and ties go to it, so the
    # angle's own best point is scored directly
    _, z_obs, inst = unsharp_luders_instance(lam)
    rho = _flagged(z_obs[None], inst[None])[0] / 2
    povms, _, closed = _angle_search(rho, list(ORDERS))
    for k, (order, want) in enumerate(zip(ORDERS, closed_forms(lam)[1])):
        got = conditional_entropy(disturbance_joint(z_obs, inst, povms[0, k]), order)
        assert abs(got - want) <= 1e-9, (order, lam)
        assert closed[0, k], (order, lam)


@pytest.mark.parametrize("relation, lam", [("Prop1", lam) for lam in
                                           (0.3, 0.6, 1 / math.sqrt(2), 0.9)]
                         + [("Prop2", 1 / math.sqrt(2))])
def test_unsharp_measurement_saturates_the_minimised_bound(relation, lam):
    (margin,) = certify(*unsharp_luders_instance(lam), 2.0, 2.0, relation, SEARCH).margin
    assert abs(margin) <= MARGIN_SLACK, (relation, lam, margin)


@pytest.mark.parametrize("relation", ["Prop1", "Prop2"])
def test_certify_replays_the_saturating_instance_from_its_file(tmp_path, relation):
    path, out = tmp_path / "half.json", tmp_path / "cert.json"
    path.write_text(json.dumps(instance_to_json(*unsharp_luders_instance(1 / math.sqrt(2)))))
    assert main(["certify", str(path), "--relation", relation, "--alpha", "2", "--beta", "2",
                 "--restarts", "1", "--seed", "7", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert abs(cert["margin"]) <= MARGIN_SLACK and cert["search"]["converged"], cert
