"""Mean-field readout chain for the phonon-number measurement.

Resonator 2 is driven at its (effective) resonance with amplitude F and
decays fast (kappa2); its steady coherent amplitude is
``alpha2 = -2iF/kappa2``.  Eliminating it adiabatically leaves resonator 1
with an induced decay ``Gamma = 2 theta0^2 / kappa2`` and a forcing
proportional to the phonon number, since the exchange rate between the
resonators is ``theta0 + theta * n_b``.  Everything in this module works
at the level of means: the input noise operators have zero mean and no
other property of theirs is used.

Mean intracavity amplitude of the measured resonator, starting from
``<a1>(0) = 0``::

    <a1>(t) = -2i alpha2 theta n_b / (Gamma + kappa1) * (1 - exp(-(Gamma + kappa1) t / 2))

Photocurrent convention
-----------------------
The measured current is the quadrature of resonator 1 locked to the
drive phase:

    I(t) = sqrt(2 hbar omega_tilde / L) * Im( <a1>(t) * exp(-i arg alpha2) )

For a purely imaginary F (making alpha2 real and positive) this is
exactly ``i sqrt(hbar omega_tilde / 2 L) <a1^dag - a1>``; for any other
drive phase the detection quadrature rotates along with it, so the
current magnitude is independent of the phase of F.  With theta < 0 (the
sign the circuit reduction produces) the current is positive and equal
to ``gain * n_b`` in the stationary limit.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gammaln

from .circuit import HBAR
from .errors import IntegrationError, RegimeError, RegimeWarning
from .fock import poisson_tail

#: elimination is trusted while theta0/kappa2 and |theta|/kappa2 stay below this
REGIME_LIMIT = 0.1


@dataclass(frozen=True)
class ReadoutParams:
    """Rates and conversion constants of the measurement chain.

    ``F`` is the drive amplitude (rad/s, complex); ``kappa1``/``kappa2``
    the resonator energy decay rates; ``theta0``/``theta`` the exchange
    rates produced by the circuit reduction; ``omega_tilde`` the common
    effective resonator frequency; ``L`` the inductance of the measured
    resonator.  ``strict=True`` turns regime violations from warnings
    into errors.
    """

    F: complex
    kappa1: float
    kappa2: float
    theta0: float
    theta: float
    omega_tilde: float
    L: float
    hbar: float = HBAR
    strict: bool = False

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "omega_tilde", "L", "hbar"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, got {val!r}")
        if self.theta0 < 0 or not math.isfinite(self.theta0):
            raise ValueError(f"theta0 must be finite and >= 0, got {self.theta0!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if not cmath.isfinite(complex(self.F)):
            raise ValueError(f"F must be finite, got {self.F!r}")
        object.__setattr__(self, "F", complex(self.F))

    @property
    def alpha2(self) -> complex:
        """Steady amplitude of the driven resonator, -2iF/kappa2."""
        return -2j * self.F / self.kappa2

    @property
    def Gamma(self) -> float:
        """Decay induced on resonator 1 by the eliminated resonator 2."""
        return 2.0 * self.theta0**2 / self.kappa2

    @property
    def decay_total(self) -> float:
        return self.Gamma + self.kappa1

    @property
    def current_scale(self) -> float:
        """Amplitude-to-current conversion, sqrt(2 hbar omega_tilde / L)."""
        return math.sqrt(2.0 * self.hbar * self.omega_tilde / self.L)

    @property
    def gain(self) -> float:
        """Stationary current per phonon (A).  Positive for theta < 0."""
        return -self.theta * abs(self.alpha2) * self.current_scale * 2.0 / self.decay_total

    def regime_ratios(self) -> dict[str, float]:
        return {
            "theta0/kappa2": self.theta0 / self.kappa2,
            "|theta|/kappa2": abs(self.theta) / self.kappa2,
        }

    def enforce_regime(self) -> None:
        """Flag parameter sets outside the adiabatic-elimination regime.

        Raises :class:`RegimeError` in strict mode, else emits a
        :class:`RegimeWarning`.  Only the eliminated-model operations
        call this; the full two-mode model is exempt on purpose, since
        probing regime breakdown is what it is for.
        """
        for name, ratio in self.regime_ratios().items():
            if ratio >= REGIME_LIMIT:
                msg = (
                    f"{name} = {ratio:.3e} is outside the adiabatic-elimination "
                    f"regime (limit {REGIME_LIMIT})"
                )
                if self.strict:
                    raise RegimeError(msg)
                warnings.warn(msg, RegimeWarning, stacklevel=3)


def _check_nonneg(name, value):
    arr = np.asarray(value, dtype=float)
    if arr.size and float(arr.min()) < 0:
        raise ValueError(f"{name} must be nonnegative")
    return arr


def mean_amplitude(p: ReadoutParams, n_b, t):
    """Closed-form ``<a1>(t)`` of the eliminated model, from ``<a1>(0) = 0``.

    Broadcasts over ``n_b`` and ``t``.
    """
    p.enforce_regime()
    tt = _check_nonneg("t", t)
    nn = _check_nonneg("n_b", n_b)
    g = p.decay_total
    out = (-2j * p.alpha2 * p.theta / g) * nn * (1.0 - np.exp(-0.5 * g * tt))
    return complex(out) if np.isscalar(t) and np.isscalar(n_b) else out


def current_from_amplitude(p: ReadoutParams, a1):
    """Drive-phase-locked current of resonator 1 for a mean amplitude."""
    phase = cmath.phase(p.alpha2) if p.alpha2 != 0 else 0.0
    locked = np.asarray(a1) * cmath.exp(-1j * phase)
    out = p.current_scale * locked.imag
    return float(out) if np.isscalar(a1) or np.asarray(a1).ndim == 0 else out


def mean_photocurrent(t, n_b, p: ReadoutParams):
    """Mean current of the measured resonator (A), zero initial amplitude.

    Equal to ``p.gain * n_b * (1 - exp(-(Gamma + kappa1) t / 2))``: linear
    in the phonon number at every instant, monotonically saturating in t.
    """
    p.enforce_regime()
    tt = _check_nonneg("t", t)
    nn = _check_nonneg("n_b", n_b)
    out = p.gain * nn * (1.0 - np.exp(-0.5 * p.decay_total * tt))
    return float(out) if np.isscalar(t) and np.isscalar(n_b) else out


def stationary_mean_amplitude(p: ReadoutParams, n_b: float) -> complex:
    """Long-time limit -2i alpha2 theta n_b / (Gamma + kappa1)."""
    p.enforce_regime()
    _check_nonneg("n_b", n_b)
    return -2j * p.alpha2 * p.theta * n_b / p.decay_total


# ---------------------------------------------------------------------------
# numerical integration (the independent route to the closed forms above)


@dataclass(frozen=True)
class MeanTrace:
    t: np.ndarray
    a1: np.ndarray
    current: np.ndarray


@dataclass(frozen=True)
class TwoModeTrace:
    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


def _solve_complex(rhs, t_span, y0, n_samples, rtol, scale):
    t_eval = np.linspace(t_span[0], t_span[1], n_samples)
    atol = rtol * max(scale, 1e-30) * 1e-2
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        raise IntegrationError(f"mean-field integration failed: {sol.message}")
    return sol


def integrate_mean_qsde(p: ReadoutParams, n_b: float, t_span: tuple[float, float],
                        a1_init: complex = 0j, n_samples: int = 200,
                        rtol: float = 1e-10) -> MeanTrace:
    """Integrate the eliminated mean equation

        d<a1>/dt = -i theta alpha2 n_b - (Gamma + kappa1)/2 <a1>

    numerically.  This duplicates :func:`mean_amplitude` on purpose — the
    integrator never sees the closed form, so agreement between the two
    is a real check, not a tautology.
    """
    p.enforce_regime()
    _check_nonneg("n_b", n_b)
    if not t_span[1] > t_span[0] >= 0:
        raise ValueError("t_span must be increasing and nonnegative")
    forcing = -1j * p.theta * p.alpha2 * n_b
    halfdecay = 0.5 * p.decay_total

    def rhs(_t, y):
        a1 = y[0] + 1j * y[1]
        da = forcing - halfdecay * a1
        return (da.real, da.imag)

    scale = max(abs(a1_init), abs(forcing) / max(halfdecay, 1e-300))
    sol = _solve_complex(rhs, t_span, [a1_init.real, a1_init.imag],
                         n_samples, rtol, scale)
    a1 = sol.y[0] + 1j * sol.y[1]
    return MeanTrace(sol.t, a1, current_from_amplitude(p, a1))


def full_two_mode_mean_dynamics(p: ReadoutParams, n_b: float,
                                t_span: tuple[float, float],
                                n_samples: int = 200,
                                rtol: float = 1e-10) -> TwoModeTrace:
    """Integrate the coupled mean equations of both resonators from rest.

        d<a1>/dt = -i (theta0 + theta n_b) <a2> - (kappa1/2) <a1>
        d<a2>/dt = -i (theta0 + theta n_b) <a1> - iF - (kappa2/2) <a2>

    The phonon number operator is a constant of motion, so it enters
    purely as the scalar ``n_b``.  No adiabatic elimination and no
    regime check: this is the reference the eliminated model is judged
    against, including outside its validity range.
    """
    _check_nonneg("n_b", n_b)
    if not t_span[1] > t_span[0] >= 0:
        raise ValueError("t_span must be increasing and nonnegative")
    g = p.theta0 + p.theta * n_b
    k1h, k2h = 0.5 * p.kappa1, 0.5 * p.kappa2
    F = p.F

    def rhs(_t, y):
        a1 = y[0] + 1j * y[1]
        a2 = y[2] + 1j * y[3]
        da1 = -1j * g * a2 - k1h * a1
        da2 = -1j * g * a1 - 1j * F - k2h * a2
        return (da1.real, da1.imag, da2.real, da2.imag)

    sol = _solve_complex(rhs, t_span, [0.0, 0.0, 0.0, 0.0],
                         n_samples, rtol, abs(p.alpha2))
    return TwoModeTrace(sol.t, sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3])


def stationary_two_mode(p: ReadoutParams, n_b: float) -> tuple[complex, complex]:
    """Exact fixed point of the coupled mean equations.

    Solving the stationary linear system gives

        <a1>_inf = -2i g kappa2 alpha2 / (kappa1 kappa2 + 4 g^2)
        <a2>_inf = alpha2 kappa1 kappa2 / (kappa1 kappa2 + 4 g^2)

    with g = theta0 + theta n_b.  Algebra only — used to cross-check the
    long-time limit of :func:`full_two_mode_mean_dynamics`.
    """
    _check_nonneg("n_b", n_b)
    g = p.theta0 + p.theta * n_b
    denom = p.kappa1 * p.kappa2 + 4.0 * g * g
    a2 = p.alpha2 * p.kappa1 * p.kappa2 / denom
    a1 = -2j * g * p.kappa2 * p.alpha2 / denom
    return a1, a2


def adiabatic_elimination_error(p: ReadoutParams, n_b: float = 1.0,
                                from_ode: bool = False) -> float:
    """Relative error of the eliminated model's stationary phonon signal.

    The full model's stationary ``<a1>`` contains a phonon-independent
    offset driven by the bare exchange rate theta0; the measurement
    signal is what n_b adds on top of it.  This compares

        full:        <a1>_inf(n_b) - <a1>_inf(0)
        eliminated:  -2i alpha2 theta n_b / (Gamma + kappa1)

    and returns |full - eliminated| / |eliminated|.  With ``from_ode``
    the full-model values come from integrations of the coupled mean
    equations over 80 of the slower decay times, at rtol 1e-12, instead
    of the algebraic fixed point.
    """
    if n_b <= 0:
        raise ValueError("n_b must be positive to carry a signal")
    if from_ode:
        t_end = 80.0 / min(p.kappa1, p.kappa2)
        on = full_two_mode_mean_dynamics(p, n_b, (0.0, t_end), n_samples=3, rtol=1e-12)
        off = full_two_mode_mean_dynamics(p, 0.0, (0.0, t_end), n_samples=3, rtol=1e-12)
        full = on.a1[-1] - off.a1[-1]
    else:
        full = stationary_two_mode(p, n_b)[0] - stationary_two_mode(p, 0.0)[0]
    eliminated = -2j * p.alpha2 * p.theta * n_b / p.decay_total
    if eliminated == 0:
        raise ValueError("eliminated-model signal is zero; nothing to compare")
    return abs(full - eliminated) / abs(eliminated)


# ---------------------------------------------------------------------------
# current statistics over a phonon-number distribution


@dataclass(frozen=True)
class PhononDistribution:
    """Probabilities over phonon Fock states 0..N, normalized to 1."""

    probabilities: np.ndarray

    def __post_init__(self):
        pr = np.asarray(self.probabilities, dtype=float).ravel()
        if pr.size == 0:
            raise ValueError("distribution needs at least one entry")
        if float(pr.min()) < -1e-15:
            raise ValueError(f"negative probability {pr.min()!r}")
        pr = np.clip(pr, 0.0, None)
        total = float(pr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        pr.setflags(write=False)
        object.__setattr__(self, "probabilities", pr)

    @classmethod
    def fock(cls, n: int, size: int | None = None) -> "PhononDistribution":
        """Point mass at phonon number ``n``."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        size = n + 1 if size is None else size
        if size <= n:
            raise ValueError(f"size {size} cannot hold Fock state {n}")
        pr = np.zeros(size)
        pr[n] = 1.0
        return cls(pr)

    @classmethod
    def poisson(cls, mean: float) -> "PhononDistribution":
        """Poisson phonon statistics, truncated and renormalized.

        The cutoff is chosen so the discarded tail is at most 1e-13,
        keeping mean and variance of the truncated distribution within
        ~1e-13 of the exact values.
        """
        if mean < 0:
            raise ValueError("mean must be nonnegative")
        if mean == 0:
            return cls(np.array([1.0]))
        size = 2
        while poisson_tail(mean, size) > 1e-13:
            size += 1
            if size > 100000:
                raise ValueError("Poisson cutoff search diverged")
        n = np.arange(size)
        logp = -mean + n * math.log(mean) - gammaln(n + 1)
        pr = np.exp(logp)
        return cls(pr / pr.sum())

    def mean(self) -> float:
        n = np.arange(self.probabilities.size)
        return float(np.dot(n, self.probabilities))

    def variance(self) -> float:
        n = np.arange(self.probabilities.size)
        mu = self.mean()
        return float(np.dot((n - mu) ** 2, self.probabilities))


def stationary_current_statistics(dist: PhononDistribution,
                                  p: ReadoutParams) -> tuple[float, float]:
    """Mean and variance of the stationary current over phonon statistics.

    The stationary current is ``gain * n`` for phonon number n, so the
    mean is ``gain * <n>`` and the signal variance ``gain^2 * Var(n)``.
    Vacuum and measurement added noise are excluded by contract: this is
    the spread of the phonon-conditioned current levels only.
    """
    p.enforce_regime()
    g = p.gain
    return g * dist.mean(), g * g * dist.variance()
