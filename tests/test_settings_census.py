"""Census of the package's settable values: every default it declares.

A default that no caller varies is a setting with one value, which only
adds configurations to test and document.  Each parameter of a public
function or method, and each field of a record, that has a default is
listed in ``SETTINGS`` with that default and either the two package
callers that pass it different values, or ``INPUT``: a physical or
command-line input the caller states, not a numerical setting.
``RunConfig`` is left out: ``config.SCHEMA`` is its own literal table of
keys, which the config tests audit.
"""

import importlib
import inspect
import math
import pkgutil

import nemsqnd

INPUT = "input of the run"

#: "module.owner.name" -> (default, why it stays settable)
SETTINGS = {
    # 1.0 in the toy circuit's unit scale, the CODATA value in the run's circuit
    "circuit.PhysicalCircuitParams.eps0": (
        8.8541878128e-12, ("config.toy_weak_coupling_circuit", "config.RunConfig.physical")),
    # the run's n_b and RESONANCE_RTOL, against 0 and no check on the toy circuit
    "circuit.effective_params.n_b": (
        0.0, ("config.RunConfig.effective", "circuit.classical_averaging")),
    "circuit.effective_params.resonance_rtol": (
        None, ("config.RunConfig.effective", "circuit.classical_averaging")),
    "circuit.ClassicalCircuitConfig.x0": (0.0, INPUT),
    "circuit.ClassicalCircuitConfig.q1": (0.0, INPUT),
    "circuit.ClassicalCircuitConfig.p1": (0.0, INPUT),
    "circuit.ClassicalCircuitConfig.q2": (0.0, INPUT),
    "circuit.ClassicalCircuitConfig.p2": (0.0, INPUT),
    "circuit.ClassicalCircuitConfig.t_span": ((0.0, 1.0), INPUT),
    "circuit.ClassicalCircuitConfig.n_samples": (4096, INPUT),
    "cli.main.argv": (None, INPUT),
    # 1e-10 after the evolution, 1e-12 on the initial product state
    "fock.pure_state.norm_tol": (
        1e-12, ("entanglement.exchange_evolve", "entanglement.initial_product_state")),
    # 1e-15 for the resonator cutoffs, TAIL_TOL for the phonon layers
    "fock.min_fock_dim.tail_tol": (1e-12, ("entanglement.oracle_dims", "entanglement._layers")),
    # T/16 on the driven circuit, no cap on the readout's mean equation
    "ode.solve.max_step": (
        math.inf, ("circuit.simulate_classical_circuit", "readout.integrate_mean_qsde")),
    "readout.adiabatic_elimination_error.n_b": (1.0, INPUT),
}


def _public(namespace):
    return [(name, obj) for name, obj in vars(namespace).items() if not name.startswith("_")]


def _declared_defaults():
    """``"module.owner.name" -> default`` over every submodule of the package."""
    found = {}
    for info in pkgutil.iter_modules(nemsqnd.__path__):
        module = importlib.import_module(f"nemsqnd.{info.name}")
        for name, obj in _public(module):
            if getattr(obj, "__module__", None) != module.__name__ or name == "RunConfig":
                continue
            functions = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                functions += [(f"{name}.{attr}", fn) for attr, fn in _public(obj)
                              if inspect.isfunction(fn)]
                for field, default in getattr(obj, "_field_defaults", {}).items():
                    found[f"{info.name}.{name}.{field}"] = default
            for owner, fn in functions:
                for param in inspect.signature(fn).parameters.values():
                    if param.default is not param.empty:
                        found[f"{info.name}.{owner}.{param.name}"] = param.default
    return found


def test_every_default_is_listed_and_every_listed_default_exists():
    found = _declared_defaults()
    assert sorted(set(found) - set(SETTINGS)) == [], "defaults missing from SETTINGS"
    assert sorted(set(SETTINGS) - set(found)) == [], "SETTINGS names a default that is gone"
    for key, (default, _) in SETTINGS.items():
        assert found[key] == default, key


def test_every_listed_caller_names_what_it_varies():
    """Each named caller exists in the package and its source names the
    function or record whose default it varies."""
    for key, (_, why) in SETTINGS.items():
        if why == INPUT:
            continue
        assert len(set(why)) == 2, key
        owner = key.split(".")[1]
        for caller in why:
            module, *path = caller.split(".")
            obj = importlib.import_module(f"nemsqnd.{module}")
            for part in path:
                obj = getattr(obj, part)
            assert owner in inspect.getsource(obj), (key, caller)
