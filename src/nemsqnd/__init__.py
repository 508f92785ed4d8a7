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

import importlib

__version__ = "0.1.0"

#: public name -> submodule defining it, imported on first use (SPEC 1 lazy loading)
_SOURCE = {
    "EPS0": "circuit",
    "HBAR": "circuit",
    "CatStateReport": "entanglement",
    "CheckResult": "verify",
    "ClassicalCircuitConfig": "circuit",
    "CoherentTriple": "entanglement",
    "ConditioningError": "errors",
    "ConfigError": "errors",
    "EffectiveParams": "circuit",
    "EstimationError": "errors",
    "IntegrationError": "errors",
    "PhysicalCircuitParams": "circuit",
    "ReadoutParams": "readout",
    "RegimeWarning": "errors",
    "RunConfig": "config",
    "SimulationError": "errors",
    "TruncationError": "errors",
    "adiabatic_elimination_error": "readout",
    "brute_force_entropies": "entanglement",
    "cat_state_check": "entanglement",
    "conditioned_state": "entanglement",
    "default_config_text": "config",
    "effective_params": "circuit",
    "entropy_n12_series": "entanglement",
    "equilibrium_capacitance": "circuit",
    "estimate_dominant_frequency": "circuit",
    "exchange_evolve": "entanglement",
    "full_two_mode_mean_dynamics": "readout",
    "initial_product_state": "entanglement",
    "integrate_mean_qsde": "readout",
    "linear_entropies": "entanglement",
    "linear_entropy": "fock",
    "load_config": "config",
    "mean_photocurrent": "readout",
    "min_fock_dim": "fock",
    "oracle_dims": "entanglement",
    "parse_config_text": "config",
    "poisson_tail": "fock",
    "reduced_density": "fock",
    "run_all": "verify",
    "separability_check_12": "entanglement",
    "simulate_classical_circuit": "circuit",
}

__all__ = list(_SOURCE)


def __getattr__(name):
    # PEP 562: a public name is looked up in its submodule on each access,
    # so importing the package (and the scalar `sim` subcommands) loads no numpy
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
