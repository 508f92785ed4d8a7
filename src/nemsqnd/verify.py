"""Cross-check suite behind ``sim verify``.

Each check pits a closed-form result against an independent numerical
route and reports the worst residual together with the tolerance it was
judged by.  The suite is deterministic and needs no input files; all
tolerances come from the run configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    ClassicalCircuitConfig,
    PhysicalCircuitParams,
    effective_params,
    estimate_dominant_frequency,
    simulate_classical_circuit,
)
from .config import RunConfig
from .entanglement import (
    CoherentTriple,
    brute_force_entropies,
    cat_state_check,
    conditioned_state,
    linear_entropies,
    oracle_dims,
    separability_check_12,
)
from .readout import ReadoutParams, adiabatic_elimination_error, integrate_mean_qsde, mean_photocurrent


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str

    def as_dict(self) -> dict:
        # numpy scalars sneak in through comparisons; JSON wants natives
        return {
            "name": str(self.name),
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "detail": str(self.detail),
        }


def toy_weak_coupling_circuit(nu: float) -> PhysicalCircuitParams:
    """Unit-scale circuit with a coupling capacitor 50x the resonator C.

    With the coupling this weak the two normal modes sit within 0.5% of
    the effective single-resonator frequency, so a spectral peak of
    either charge coordinate lands on it well inside the 2% gate no
    matter how the modes are excited.  Dimensionless units throughout
    (the ODEs are unit-agnostic).
    """
    return PhysicalCircuitParams(
        L1=1.0, L2=1.0, C1=1.0, C2=1.0, d=1.0, A=50.0, m=1.0, nu=nu,
        eps0=1.0, hbar=1.0,
    )


def classical_scenario(cfg: RunConfig) -> tuple[ClassicalCircuitConfig, float, float]:
    """Assemble the averaging-validation run from the configuration.

    Returns ``(run_config, omega_reference, nu_drive)``; the reference is
    the effective resonator frequency the spectral peak is judged
    against.  Initial charges are equal on both resonators so a single
    normal mode dominates the spectrum.
    """
    if cfg.classical_toy:
        base = toy_weak_coupling_circuit(nu=1.0)
        nu_drive = cfg.classical_nu_factor * effective_params(base).omega_tilde1
        params = toy_weak_coupling_circuit(nu=nu_drive)
    else:
        params = cfg.physical()
        nu_drive = cfg.classical_nu_factor * effective_params(params).omega_tilde1
    eff = effective_params(params)
    period = 2.0 * math.pi / eff.omega_tilde1
    run = ClassicalCircuitConfig(
        params=params,
        x0=cfg.classical_x0_over_d * params.d,
        nu=nu_drive,
        q1=params.C1, q2=params.C1,
        t_span=(0.0, cfg.classical_periods * period),
        n_samples=cfg.classical_samples,
        rtol=cfg.classical_rtol,
    )
    return run, eff.omega_tilde1, nu_drive


def check_classical_averaging(cfg: RunConfig) -> CheckResult:
    """Fast plate motion must leave the resonance where averaging puts it."""
    run, omega_ref, nu_drive = classical_scenario(cfg)
    traj = simulate_classical_circuit(run)
    dt = traj.t[1] - traj.t[0]
    est = estimate_dominant_frequency(traj.q1, dt)
    residual = abs(est - omega_ref) / omega_ref
    return CheckResult(
        name="classical_averaging",
        passed=residual <= cfg.tol_classical_peak,
        residual=residual,
        tolerance=cfg.tol_classical_peak,
        detail=(
            f"peak {est:.6e} vs effective {omega_ref:.6e} rad/s "
            f"(drive at {nu_drive:.3e}, x0/d = {cfg.classical_x0_over_d:.3e})"
        ),
    )


def check_current_ode(cfg: RunConfig, strict: bool = False) -> CheckResult:
    """Closed-form mean current against direct integration of the mean equation."""
    p = cfg.readout(strict)
    t_max = 2.0 * cfg.current_tau_max / p.decay_total
    worst = 0.0
    for n_b in (1.0, 2.0, 3.0):
        trace = integrate_mean_qsde(p, n_b, (0.0, t_max),
                                    n_samples=cfg.current_points, rtol=1e-11)
        analytic = mean_photocurrent(trace.t, n_b, p)
        scale = abs(p.gain) * n_b
        worst = max(worst, float(np.max(np.abs(trace.current - analytic)) / scale))
    return CheckResult(
        name="current_ode",
        passed=worst <= cfg.tol_current_ode,
        residual=worst,
        tolerance=cfg.tol_current_ode,
        detail=f"max relative residual over n_b in {{1,2,3}}, {cfg.current_points} samples",
    )


def check_elimination(cfg: RunConfig) -> CheckResult:
    """Eliminated model against the integrated two-mode system, decade sweep.

    Rate units: kappa1 = 1, kappa2 = 2.  The stationary signal error must
    be inside the tolerance at theta0/kappa2 = 1e-2 and fall at least
    quadratically per decade of theta0/kappa2.
    """
    kappa1, kappa2 = 1.0, 2.0
    ratios = (1e-1, 1e-2, 1e-3)
    errors = []
    for ratio in ratios:
        theta0 = ratio * kappa2
        p = ReadoutParams(
            F=2.5j * kappa2, kappa1=kappa1, kappa2=kappa2,
            theta0=theta0, theta=-1e-3 * theta0, omega_tilde=1.0, L=1.0,
        )
        errors.append(adiabatic_elimination_error(p, n_b=1.0, from_ode=True))
    slopes = [
        math.log10(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    ok = errors[1] <= cfg.tol_elimination and all(s >= 1.9 for s in slopes)
    return CheckResult(
        name="adiabatic_elimination",
        passed=ok,
        residual=errors[1],
        tolerance=cfg.tol_elimination,
        detail=(
            "errors " + ", ".join(f"{e:.3e}" for e in errors)
            + " at theta0/kappa2 " + ", ".join(f"{r:g}" for r in ratios)
            + "; per-decade slopes " + ", ".join(f"{s:.2f}" for s in slopes)
        ),
    )


_ORACLE_POINTS: tuple[tuple[complex, complex, complex, float], ...] = (
    (2.0, 2.0, 2.0, math.pi / 2),
    (2.0, 2.0, 2.0, 0.5),
    (1.0, 1.5, 0.8 + 0.6j, 1.0),
    (1.5, 1.0 + 1.0j, 1.0, 2.0),
    (0.5, 2.0, 2.0, 2.5),
    (2.0, 1.2 - 0.8j, 0.5 + 1.1j, math.pi),
)


def check_entropy_oracle(cfg: RunConfig) -> CheckResult:
    """Analytic entropy sums against brute-force partial traces.

    ``verify_theta_scale`` multiplies the phase fed to the analytic side
    only; any value other than 1 is a deliberate mismatch and must trip
    this check (that property is itself under test elsewhere).
    """
    worst = 0.0
    worst_at = ""
    for a, b, g, theta_t in _ORACLE_POINTS:
        triple = CoherentTriple(a, b, g)
        dims = oracle_dims(triple, cfg.oracle_dim)
        brute = brute_force_entropies(triple, theta_t, dims)
        analytic = linear_entropies(
            conditioned_state(triple, theta_t * cfg.verify_theta_scale)
        )
        disc = max(abs(x - y) for x, y in zip(analytic.as_tuple(), brute))
        if disc > worst:
            worst, worst_at = disc, (f"(alpha={a}, beta={b}, gamma={g}, "
                                     f"theta_t={theta_t:.3f}), dims {dims}")
    return CheckResult(
        name="entropy_oracle",
        passed=worst <= cfg.tol_entropy_oracle,
        residual=worst,
        tolerance=cfg.tol_entropy_oracle,
        detail=f"worst at {worst_at}",
    )


def check_cat_fidelity(cfg: RunConfig) -> CheckResult:
    """Half-period conditional states against the even/odd superpositions.

    The projection products ``|beta, gamma>`` and ``|-beta, -gamma>``
    overlap by ``ov = exp(-2|beta|^2 - 2|gamma|^2)``, so each conditional
    state carries an ``ov^2`` admixture of the other cat.  With the
    even/odd cat weights ``P+- = (1 +- exp(-2|alpha|^2)) / 2`` (Dodonov,
    Malkin & Man'ko, Physica 72, 597 (1974)) the exact fidelities are
    ``P+ / (P+ + P- ov^2)`` and ``P- / (P- + P+ ov^2)``; the brute-force
    fidelities are judged against those, not against 1.
    """
    triple = cfg.triple()
    report = cat_state_check(triple, oracle_dims(triple, cfg.oracle_dim))
    exp_term = math.exp(-2.0 * abs(triple.alpha) ** 2)
    p_even, p_odd = 0.5 * (1.0 + exp_term), 0.5 * (1.0 - exp_term)
    ov2 = math.exp(-4.0 * (abs(triple.beta) ** 2 + abs(triple.gamma) ** 2))
    even_target = p_even / (p_even + p_odd * ov2)
    odd_target = p_odd / (p_odd + p_even * ov2)
    residuals = [abs(report.even_fidelity - even_target),
                 abs(1.0 - report.reassembled_norm),
                 1.0 - report.reassembly_fidelity]
    odd = "n/a"
    if report.odd_fidelity is not None:
        residuals.append(abs(report.odd_fidelity - odd_target))
        odd = f"{report.odd_fidelity:.12f} (closed form {odd_target:.12f})"
    residual = max(residuals)
    return CheckResult(
        name="cat_fidelity",
        passed=residual <= cfg.tol_cat_fidelity,
        residual=residual,
        tolerance=cfg.tol_cat_fidelity,
        detail=(
            f"even {report.even_fidelity:.12f} (closed form {even_target:.12f}), odd {odd}"
            f", weights ({report.even_weight:.6f}, {report.odd_weight:.6f})"
            f", dims {report.dims}"
        ),
    )


def check_separability(cfg: RunConfig) -> CheckResult:
    """Brute-force rho_12 against the explicit separable mixture."""
    triple = cfg.triple()
    report = separability_check_12(triple, math.pi / 2, oracle_dims(triple, cfg.oracle_dim))
    return CheckResult(
        name="separability_12",
        passed=report.max_abs_deviation <= cfg.tol_separability,
        residual=report.max_abs_deviation,
        tolerance=cfg.tol_separability,
        detail=f"mixture trace {report.mixture_trace:.12f}, dims {report.dims}",
    )


def run_all(cfg: RunConfig, strict: bool = False) -> list[CheckResult]:
    return [
        check_classical_averaging(cfg),
        check_current_ode(cfg, strict),
        check_elimination(cfg),
        check_entropy_oracle(cfg),
        check_cat_fidelity(cfg),
        check_separability(cfg),
    ]
