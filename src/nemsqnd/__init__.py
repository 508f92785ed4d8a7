"""Phonon-number readout and entanglement in capacitively coupled resonators.

Two transmission-line resonators share a vibrating-plate capacitor; the
plate's phonon number shifts the inter-resonator exchange rate, which a
driven probe converts into a photocurrent and, run coherently, into
three-body entangled states.  The package covers the classical circuit
model, the dispersive readout chain, the analytic entangled-layer
construction and a brute-force Fock-space oracle used to cross-check all
of it.  The oracle evolves its truncated state photon-number sector by
sector (``entanglement.exchange_evolve``); the dense operator algebra it
is tested against is not part of the package.
"""

from .circuit import (
    EPS0,
    HBAR,
    ClassicalCircuitConfig,
    EffectiveParams,
    PhysicalCircuitParams,
    circuit_energy,
    effective_params,
    equilibrium_capacitance,
    estimate_dominant_frequency,
    simulate_classical_circuit,
    Trajectory,
    x_rms,
)
from .config import RunConfig, default_config_text, load_config, parse_config_text
from .entanglement import (
    CatStateReport,
    CoherentTriple,
    ConditionedState,
    EntropyReport,
    SeparabilityReport,
    branch_amplitudes,
    brute_force_entropies,
    cat_state_check,
    conditioned_state,
    entropy_series,
    exchange_evolve,
    initial_product_state,
    linear_entropies,
    oracle_dims,
    separability_check_12,
    transmittance,
)
from .errors import (
    ConditioningError,
    ConfigError,
    EstimationError,
    IntegrationError,
    RegimeError,
    RegimeWarning,
    SimulationError,
    TruncationError,
    VerificationFailure,
)
from .fock import (
    DensityMatrix,
    StateVector,
    TruncatedSpace,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
    reduced_density,
)
from .readout import (
    MeanTrace,
    PhononDistribution,
    ReadoutParams,
    TwoModeTrace,
    adiabatic_elimination_error,
    full_two_mode_mean_dynamics,
    integrate_mean_qsde,
    mean_amplitude,
    mean_photocurrent,
    stationary_current_statistics,
    stationary_mean_amplitude,
    stationary_two_mode,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "EPS0",
    "HBAR",
    "CatStateReport",
    "CheckResult",
    "ClassicalCircuitConfig",
    "CoherentTriple",
    "ConditionedState",
    "ConditioningError",
    "ConfigError",
    "DensityMatrix",
    "EffectiveParams",
    "EntropyReport",
    "EstimationError",
    "IntegrationError",
    "MeanTrace",
    "PhononDistribution",
    "PhysicalCircuitParams",
    "ReadoutParams",
    "RegimeError",
    "RegimeWarning",
    "RunConfig",
    "SeparabilityReport",
    "SimulationError",
    "StateVector",
    "Trajectory",
    "TruncatedSpace",
    "TruncationError",
    "TwoModeTrace",
    "VerificationFailure",
    "adiabatic_elimination_error",
    "branch_amplitudes",
    "brute_force_entropies",
    "cat_state_check",
    "circuit_energy",
    "conditioned_state",
    "default_config_text",
    "effective_params",
    "entropy_series",
    "equilibrium_capacitance",
    "estimate_dominant_frequency",
    "exchange_evolve",
    "full_two_mode_mean_dynamics",
    "initial_product_state",
    "integrate_mean_qsde",
    "linear_entropies",
    "linear_entropy",
    "load_config",
    "mean_amplitude",
    "mean_photocurrent",
    "min_fock_dim",
    "oracle_dims",
    "parse_config_text",
    "poisson_tail",
    "reduced_density",
    "run_all",
    "separability_check_12",
    "simulate_classical_circuit",
    "stationary_current_statistics",
    "stationary_mean_amplitude",
    "stationary_two_mode",
    "transmittance",
    "x_rms",
]
