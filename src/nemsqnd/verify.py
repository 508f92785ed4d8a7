"""Cross-check suite behind ``sim verify``.

Each check pits a closed-form result against an independent numerical
route and reports the worst residual together with the tolerance it was
judged by.  The suite is deterministic and needs no input files.

Three checks judge the run a subcommand writes: ``current_ode`` and
``classical_averaging`` at the tolerances of the run configuration, and
``cat_fidelity``, the ``sim cat`` run, at a derived gate.  The other
checks derive their gates too, from the inputs they hold, and no config
can loosen a derived gate.  ``adiabatic_elimination`` is gated by the
leading-order error of the elimination.  The three oracle checks are
gated by ``oracle_gate``: a multiple of the Poisson mass the oracle's
cutoffs discard, plus a roundoff term.  Each check's docstring gives its
derivation, and ``verify.json`` records the gate as its ``tolerance``.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .circuit import classical_averaging
from .config import RunConfig
from .entanglement import (
    CoherentTriple,
    brute_force_entropies,
    cat_dims,
    cat_state_check,
    cat_weights,
    entropy_n12_series,
    linear_entropies,
    oracle_dims,
    separability_check_12,
)
from .errors import ConditioningError
from .fock import poisson_tail
from .readout import ReadoutParams, _nan_high, adiabatic_elimination_error, current_transients


class CheckResult(NamedTuple):
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

    Rate units: kappa1 = 1, kappa2 = 2.  The stationary signal error at
    theta0/kappa2 = 1e-2 is judged by the elimination's leading-order
    error, and the error must fall at least quadratically per decade of
    theta0/kappa2.  The full model's stationary amplitude is ``<a1> =
    -4 g F / (kappa1 kappa2 + 4 g^2)`` at exchange rate ``g = theta0 +
    theta n_b``, and the eliminated signal ``-4 F theta n_b / (kappa1
    kappa2 + 2 theta0^2)`` is its change with n_b to first order in ``x =
    4 theta0^2 / (kappa1 kappa2)``.  The full change is ``(1 - x)(1 +
    x/2)/(1 + x)^2`` times that, so the relative error is ``x (2.5 + 1.5
    x)/(1 + x)^2 = 2.5 x - 3.5 x^2 + ...``, never above ``2.5 x = 10
    theta0^2 / (kappa1 kappa2)``: 2e-3 here.
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
    gate = 10.0 * sweep[1].theta0 ** 2 / (kappa1 * kappa2)
    ok = errors[1] <= gate and all(s >= 1.9 for s in slopes)
    return CheckResult(
        name="adiabatic_elimination",
        passed=ok,
        residual=errors[1],
        tolerance=gate,
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


def oracle_gate(triple: CoherentTriple, dims: tuple[int, int, int], weight: float) -> float:
    """``weight`` times the mass the oracle cutoffs ``dims`` discard, plus roundoff.

    The truncated evolution is exact on phonon numbers below d_N and on
    the complete photon-number sectors n1 + n2 < min(d_1, d_2) (see
    ``separability_check_12``); the initial ``|alpha>|beta>|gamma>`` puts
    mass ``t_N + t_J`` outside them, the Poisson tails of |alpha|^2 at d_N
    and of |beta|^2 + |gamma|^2 at min(d_1, d_2).  Every other vector the
    checks truncate discards no more: a resonator tail, or one of a branch
    ``beta_n``, ``gamma_n`` (|beta_n|^2 + |gamma_n|^2 = |beta|^2 +
    |gamma|^2), lies inside t_J.  A unit vector renormalized after its
    cutoff discards mass t moves by t/2 along itself and by sqrt(t)
    outside, so by Cauchy-Schwarz on the outside parts an overlap of two
    such vectors moves by at most the sum of their masses, to first
    order; each check's docstring counts the overlaps into ``weight``.

    Roundoff: every sum the two routes form has fewer than S^2 terms, S =
    d_N + d_1 + d_2 (an inner product of a partial trace has D / min(dims)
    <= S^2 / 4, a purity or an analytic layer sum at most max(dims)^2), of
    unit-bounded products, and n such terms round to within n u, u = eps /
    2 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    eq. (3.5)), so the two routes differ by at most S^2 eps from roundoff.
    """
    d_n, d_1, d_2 = dims
    discarded = (poisson_tail(abs(triple.alpha) ** 2, d_n)
                 + poisson_tail(abs(triple.beta) ** 2 + abs(triple.gamma) ** 2, min(d_1, d_2)))
    return weight * discarded + (d_n + d_1 + d_2) ** 2 * sys.float_info.epsilon


def check_entropy_oracle(cfg: RunConfig) -> CheckResult:
    """Analytic entropy sums against brute-force partial traces.

    ``entropy_n12_series``, the alpha grid's E_N|12, is judged too.  Each
    point has its own gate: the analytic ``tail_bound`` of
    ``linear_entropies`` plus ``oracle_gate`` of weight 2, since a purity
    is a probability-weighted sum of squared overlaps of the evolved
    state's layers, each of which moves by twice the discarded mass.  The
    report gives the largest residual above its gate, or else the largest
    residual, with that point's gate.  ``verify_theta_scale`` multiplies
    the phase fed to the analytic side only; any value other than 1 is a
    deliberate mismatch and must trip this check (that property is itself
    under test elsewhere).
    """
    worst, worst_gate, worst_at, worst_rank = 0.0, 1.0, "", (False, 0.0)
    for a, b, g, theta_t in _ORACLE_POINTS:
        triple = CoherentTriple(a, b, g)
        dims = oracle_dims(triple)
        brute = brute_force_entropies(triple, theta_t, dims)
        phase = [theta_t * cfg.verify_theta_scale]
        *analytic, tail_bound = linear_entropies(triple, phase)
        analytic.append(entropy_n12_series(triple, phase)[0])
        disc = max((abs(x[0] - y) for x, y in zip(analytic, (*brute, brute[0]))),
                   key=_nan_high)
        gate = tail_bound + oracle_gate(triple, dims, 2.0)
        rank = (not disc <= gate, _nan_high(disc))
        if rank > worst_rank:
            worst_rank, worst, worst_gate, worst_at = rank, disc, gate, (
                f"(alpha={a}, beta={b}, gamma={g}, theta_t={theta_t:.3f}), dims {dims}")
    return CheckResult(
        name="entropy_oracle",
        passed=worst <= worst_gate,
        residual=worst,
        tolerance=worst_gate,
        detail=f"worst at {worst_at}",
    )


def cat_fidelity_targets(triple: CoherentTriple) -> tuple[float, float]:
    """Exact even and odd half-period conditional-state fidelities.

    The projection products ``|beta, gamma>`` and ``|-beta, -gamma>``
    overlap by ``ov = exp(-2|beta|^2 - 2|gamma|^2)``, so each conditional
    state carries an ``ov^2`` admixture of the other cat.  With the
    even/odd cat weights ``P+-`` of ``entanglement.cat_weights`` the
    fidelities are ``P+ / (P+ + P- ov^2)`` and ``P- / (P- + P+ ov^2)``.
    """
    p_even, p_odd = cat_weights(triple.alpha)
    ov2 = math.exp(-4.0 * (abs(triple.beta) ** 2 + abs(triple.gamma) ** 2))
    return p_even / (p_even + p_odd * ov2), p_odd / (p_odd + p_even * ov2)


#: cap on the cat gate: the precision the cat check claims even where its
#: lighter branch is too light for the derived gate to reach it
CAT_GATE_CAP = 1e-10


def check_cat_fidelity(cfg: RunConfig) -> CheckResult:
    """Half-period conditional states against the even/odd superpositions.

    The brute-force fidelities are judged against the exact ones of
    ``cat_fidelity_targets``, not against 1, on the run ``sim cat``
    writes: ``cat_state_check`` at the ``entanglement.cat_dims`` cutoffs,
    whose phonon cutoff counts the mass it discards relative to the
    lighter branch weight.  The gate is ``oracle_gate`` of weight 8 over
    the lighter judged weight: each fidelity is a squared overlap of the
    evolved state with a product of truncated vectors (a cat vector and a
    projection product, t_N + t_J between them) over the branch's squared
    norm, and each of the two moves by at most 4 (t_N + t_J), plus
    roundoff.  The gate is capped at ``CAT_GATE_CAP``, which it reaches
    where the lighter branch weighs a few percent or less.

    An odd residual past the gate by no more than roundoff can move the
    odd fidelity is inconclusive: the check refuses it with a
    ``ConditioningError`` naming the odd weight w-.  The even layers'
    projection onto ``|-beta, -gamma>``, of norm ov sqrt(P+) (ov =
    exp(-2 |beta|^2 - 2 |gamma|^2)), cancels from unit scale and keeps an
    overlap's whole roundoff, ``oracle_gate``'s S^2 eps; in F- = |a|^2 / w-
    that moves F- by up to 2 F- ov sqrt(P+) S^2 eps / w-.
    """
    triple = cfg.triple()
    dims = cat_dims(triple)
    report = cat_state_check(triple, dims)
    p_even, p_odd = cat_weights(triple.alpha)
    even_target, odd_target = cat_fidelity_targets(triple)
    residuals = [abs(report.even_fidelity - even_target), 1.0 - report.reassembly_fidelity]
    odd, lighter, odd_residual, roundoff = "n/a", p_even, 0.0, 0.0
    if report.odd_fidelity is not None:
        odd_residual = abs(report.odd_fidelity - odd_target)
        leak = math.sqrt(p_even) * math.exp(-2.0 * (abs(triple.beta) ** 2
                                                    + abs(triple.gamma) ** 2))
        roundoff = 2.0 * odd_target * leak * oracle_gate(triple, dims, 0.0) / report.odd_weight
        residuals.append(odd_residual)
        odd, lighter = f"{report.odd_fidelity:.12f} (closed form {odd_target:.12f})", p_odd
    residual = max(residuals)
    gate = min(oracle_gate(triple, dims, 8.0) / lighter, CAT_GATE_CAP)
    # only the odd residual fails, and by no more than its roundoff
    if max(residuals[:2]) <= gate < odd_residual <= gate + roundoff:
        raise ConditioningError(
            f"odd projection branch weighs {report.odd_weight:.3e}: its fidelity is off by "
            f"{odd_residual:.3e}, within the {roundoff:.3e} that roundoff can move it")
    return CheckResult(
        name="cat_fidelity",
        passed=residual <= gate,
        residual=residual,
        tolerance=gate,
        detail=(
            f"even {report.even_fidelity:.12f} (closed form {even_target:.12f}), odd {odd}"
            f", weights ({report.even_weight:.6f}, {report.odd_weight:.6f})"
            f", dims {dims}"
        ),
    )


def check_separability(cfg: RunConfig) -> CheckResult:
    """Brute-force rho_12 against the explicit separable mixture.

    The residual is ``separability_check_12``'s bound on the distance on
    the complete photon-number sectors plus the mass outside them, judged
    by ``oracle_gate`` of weight 6.  On the complete sectors the truncated
    layer ``P a_n`` is exactly parallel to ``P b_n``, so ``T_n`` is the
    difference of their squared norms, first order in the masses their
    two renormalizations discard: t_N for the phonons, and within t_J
    each for the two resonators of the initial state and of the branch.
    That is t_N + 4 t_J over all layers, and the two outside masses add
    at most t_J each.
    """
    triple = cfg.triple()
    dims = oracle_dims(triple)
    bound = separability_check_12(triple, math.pi / 2, dims)
    gate = oracle_gate(triple, dims, 6.0)
    return CheckResult(
        name="separability_12",
        passed=bound <= gate,
        residual=bound,
        tolerance=gate,
        detail=f"dims {dims}",
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
