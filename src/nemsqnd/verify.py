"""Cross-check suite behind ``sim verify``.

Each check pits a closed-form result against an independent numerical
route and reports the worst residual together with the tolerance it was
judged by.  The suite is deterministic and needs no input files; all
tolerances come from the run configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import classical_averaging
from .config import RunConfig
from .entanglement import (
    CoherentTriple,
    brute_force_entropies,
    cat_state_check,
    entropy_n12_series,
    linear_entropies,
    oracle_dims,
    separability_check_12,
)
from .readout import ReadoutParams, _nan_high, adiabatic_elimination_error, current_transients


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str

    def as_dict(self) -> dict:
        # numpy scalars sneak in through comparisons; JSON wants natives,
        # and strict JSON has no NaN or infinity, so those residuals are null
        residual = float(self.residual)
        return {
            "name": str(self.name),
            "passed": bool(self.passed),
            "residual": residual if math.isfinite(residual) else None,
            "tolerance": float(self.tolerance),
            "detail": str(self.detail),
        }


def check_classical_averaging(cfg: RunConfig) -> CheckResult:
    """Fast plate motion must leave the resonance where averaging puts it."""
    run = cfg.classical()
    report = classical_averaging(run)
    return CheckResult(
        name="classical_averaging",
        passed=report.rel_error <= cfg.tol_classical_peak,
        residual=report.rel_error,
        tolerance=cfg.tol_classical_peak,
        detail=(
            f"peak {report.estimated_omega:.6e} vs effective "
            f"{report.predicted_omega:.6e} rad/s "
            f"(drive at {run.params.nu:.3e}, x0/d = {cfg.classical_x0_over_d:.3e})"
        ),
    )


def check_current_ode(cfg: RunConfig) -> CheckResult:
    """Closed-form mean current against direct integration of the mean
    equation: the largest residual ``sim current`` writes."""
    transients = current_transients(cfg.readout(), cfg.current_tau_max,
                                     cfg.current_points)
    worst = transients.max_residual
    return CheckResult(
        name="current_ode",
        passed=worst <= cfg.tol_current_ode,
        residual=worst,
        tolerance=cfg.tol_current_ode,
        detail=f"max relative residual over n_b in {{1,2,3}}, {cfg.current_points} samples",
    )


def check_elimination(cfg: RunConfig) -> CheckResult:
    """Eliminated model against the integrated two-mode system, decade
    sweep, all in one solve.

    Rate units: kappa1 = 1, kappa2 = 2.  The stationary signal error must
    be inside the tolerance at theta0/kappa2 = 1e-2 and fall at least
    quadratically per decade of theta0/kappa2.
    """
    kappa1, kappa2 = 1.0, 2.0
    ratios = (1e-1, 1e-2, 1e-3)
    sweep = [ReadoutParams(F=2.5j * kappa2, kappa1=kappa1, kappa2=kappa2, theta0=theta0,
                           theta=-1e-3 * theta0, omega_tilde=1.0, L=1.0)
             for theta0 in (ratio * kappa2 for ratio in ratios)]
    errors = adiabatic_elimination_error(sweep, n_b=1.0)
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

    ``entropy_n12_series``, the alpha grid's E_N|12, is judged too.
    ``verify_theta_scale`` multiplies the phase fed to the analytic side
    only; any value other than 1 is a deliberate mismatch and must trip
    this check (that property is itself under test elsewhere).
    """
    worst = 0.0
    worst_at = ""
    for a, b, g, theta_t in _ORACLE_POINTS:
        triple = CoherentTriple(a, b, g)
        dims = oracle_dims(triple)
        brute = brute_force_entropies(triple, theta_t, dims)
        phase = [theta_t * cfg.verify_theta_scale]
        *analytic, _ = linear_entropies(triple, phase)
        analytic.append(entropy_n12_series(triple, phase)[0])
        disc = max((abs(x[0] - y) for x, y in zip(analytic, (*brute, brute[0]))),
                   key=_nan_high)
        if _nan_high(disc) > _nan_high(worst):
            worst, worst_at = disc, (f"(alpha={a}, beta={b}, gamma={g}, "
                                     f"theta_t={theta_t:.3f}), dims {dims}")
    return CheckResult(
        name="entropy_oracle",
        passed=worst <= cfg.tol_entropy_oracle,
        residual=worst,
        tolerance=cfg.tol_entropy_oracle,
        detail=f"worst at {worst_at}",
    )


def cat_fidelity_targets(triple: CoherentTriple) -> tuple[float, float]:
    """Exact even and odd half-period conditional-state fidelities.

    The projection products ``|beta, gamma>`` and ``|-beta, -gamma>``
    overlap by ``ov = exp(-2|beta|^2 - 2|gamma|^2)``, so each conditional
    state carries an ``ov^2`` admixture of the other cat.  With the
    even/odd cat weights ``P+- = (1 +- exp(-2|alpha|^2)) / 2`` (Dodonov,
    Malkin & Man'ko, Physica 72, 597 (1974)) the fidelities are
    ``P+ / (P+ + P- ov^2)`` and ``P- / (P- + P+ ov^2)``.
    """
    # expm1 keeps P- accurate at small |alpha|, where 1 - exp cancels
    p_odd = -0.5 * math.expm1(-2.0 * abs(triple.alpha) ** 2)
    p_even = 1.0 - p_odd
    ov2 = math.exp(-4.0 * (abs(triple.beta) ** 2 + abs(triple.gamma) ** 2))
    return p_even / (p_even + p_odd * ov2), p_odd / (p_odd + p_even * ov2)


def check_cat_fidelity(cfg: RunConfig) -> CheckResult:
    """Half-period conditional states against the even/odd superpositions.

    The brute-force fidelities are judged against the exact ones of
    ``cat_fidelity_targets``, not against 1.
    """
    triple = cfg.triple()
    report = cat_state_check(triple, oracle_dims(triple))
    even_target, odd_target = cat_fidelity_targets(triple)
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
    report = separability_check_12(triple, math.pi / 2, oracle_dims(triple))
    return CheckResult(
        name="separability_12",
        passed=report.deviation_bound <= cfg.tol_separability,
        residual=report.deviation_bound,
        tolerance=cfg.tol_separability,
        detail=f"mixture trace {report.mixture_trace:.12f}, dims {report.dims}",
    )


def run_all(cfg: RunConfig) -> list[CheckResult]:
    return [
        check_classical_averaging(cfg),
        check_current_ode(cfg),
        check_elimination(cfg),
        check_entropy_oracle(cfg),
        check_cat_fidelity(cfg),
        check_separability(cfg),
    ]
