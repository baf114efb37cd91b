"""Entropic noise-disturbance trade-off certification for quantum instruments."""

from .bounds import (
    AdmissibilityError,
    CertificateTable,
    admissible_grid,
    bbar_bound,
    certify,
    certify_grid,
    mu_bounds,
    overlap,
)
from .decision import (
    fano_upper_bounds,
    lower_bounds,
    standard_decision,
)
from .entropy import (
    EntropyOrder,
    alpha_log,
    binary_tsallis,
    check_table,
    conditional_entropy,
    entropy,
)
from .noise_disturbance import (
    SearchConfig,
    discard_flag_correction,
    disturbance,
    disturbance_joint,
    noise,
    noise_joint,
    reprepare_correction,
    two_picture_gap,
)
from .quantum import (
    ProjectiveObservable,
    QuantumInstrument,
    basis_observable,
    flag_apply,
    luders_instrument,
    observable_from_basis,
    sample_haar_unitary,
    sample_random_instrument,
    sample_random_observable,
    trivial_instrument,
)

__version__ = "0.1.0"
