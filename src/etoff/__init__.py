"""Entropic noise-disturbance trade-off certification for quantum instruments."""

from .bounds import (
    AdmissibilityError,
    BoundValue,
    ConstraintViolation,
    OverlapCharacteristic,
    TradeoffCertificate,
    bbar_bound,
    certify,
    certify_grid,
    mu_bounds,
    overlap,
)
from .decision import (
    DecisionRule,
    ErrorReport,
    error_of_rule,
    fano_upper_bounds,
    lower_bounds,
    standard_decision,
)
from .entropy import (
    EntropyOrder,
    JointDistribution,
    alpha_log,
    binary_tsallis,
    cond_renyi,
    cond_shannon,
    cond_tsallis_first,
    cond_tsallis_second,
    conditional_entropy,
    renyi_entropy,
    shannon_entropy,
    tsallis_entropy,
)
from .linalg import (
    NumericalFailure,
    eigh,
    fidelity,
    partial_trace,
    trace_norm,
)
from .noise_disturbance import (
    ConsistencyReport,
    CorrectionSearchResult,
    DegenerateObservable,
    DisturbanceExperiment,
    NoiseExperiment,
    OrderOutOfRange,
    SearchConfig,
    discard_flag_correction,
    disturbance,
    disturbance_experiment,
    disturbance_joint,
    error_and_fidelity,
    noise,
    noise_experiment,
    noise_joint,
    reprepare_correction,
    ricochet_oracle,
)
from .quantum import (
    Channel,
    ProjectiveObservable,
    QuantumInstrument,
    apply_cp,
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
