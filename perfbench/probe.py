"""Run one `sim` subcommand in-process with timers around public functions.

Usage::

    PYTHONPATH=src python3 perfbench/probe.py SPANS.json SUBCOMMAND [ARGS...]

The timers wrap the functions from outside, by rebinding every name in
the ``nemsqnd`` modules that refers to them, so the program's code is
unchanged.  A function that no longer exists is skipped and its span is
absent from the report.  Besides inclusive seconds and call counts per
function, the report holds the wall time of ``cli.main`` and two counts:
the largest layer count of any conditioned state, and the right-hand
side evaluations of the classical integrator (calls of the plate drive
``x_drive`` minus the ``4 * n_samples`` samples of the contact guard).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import nemsqnd.cli

TIMED = {
    "config": ("load_config",),
    "circuit": ("simulate_classical_circuit", "estimate_dominant_frequency"),
    "readout": ("integrate_mean_qsde", "full_two_mode_mean_dynamics"),
    "entanglement": ("conditioned_state", "linear_entropies",
                     "initial_product_state", "exchange_evolve"),
    "fock": ("reduced_density", "linear_entropy"),
    "verify": ("check_classical_averaging", "check_current_ode", "check_elimination",
               "check_entropy_oracle", "check_cat_fidelity", "check_separability"),
}


class Recorder:
    def __init__(self):
        self.spans: dict[str, list] = {}
        self.rhs_calls = 0
        self.max_terms = 0

    def timed(self, name: str, fn):
        total = self.spans.setdefault(name, [0.0, 0])
        observe = {
            "entanglement.conditioned_state": self._terms,
            "circuit.simulate_classical_circuit": self._count_rhs,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, *args, **kwargs)
            finally:
                total[0] += time.perf_counter() - start
                total[1] += 1
        return wrapper

    # The two observers read attributes defensively: a later change to
    # these types should only lose the count, never fail the run.

    def _terms(self, fn, *args, **kwargs):
        state = fn(*args, **kwargs)
        self.max_terms = max(self.max_terms, getattr(state, "n_terms", 0))
        return state

    def _count_rhs(self, fn, cfg, *args, **kwargs):
        drive = getattr(cfg, "x_drive", None)
        if drive is None or not hasattr(cfg, "n_samples"):
            return fn(cfg, *args, **kwargs)
        calls = [0]

        def counted(t):
            calls[0] += 1
            return drive(t)

        cfg.x_drive = counted
        try:
            return fn(cfg, *args, **kwargs)
        finally:
            cfg.x_drive = drive
            self.rhs_calls += calls[0] - 4 * cfg.n_samples


def install(recorder: Recorder) -> None:
    for module_name, names in TIMED.items():
        try:
            module = importlib.import_module(f"nemsqnd.{module_name}")
        except ModuleNotFoundError:
            continue
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            wrapped = recorder.timed(f"{module_name}.{name}", fn)
            holders = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "nemsqnd" or key.startswith("nemsqnd."))]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapped)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    start = time.perf_counter()
    try:
        return nemsqnd.cli.main(argv)
    finally:
        report = {
            "command": argv[0],
            "main_s": time.perf_counter() - start,
            "spans": recorder.spans,
            "rhs_calls": recorder.rhs_calls,
            "max_terms": recorder.max_terms,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
