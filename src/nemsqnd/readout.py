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
from typing import TYPE_CHECKING, NamedTuple

from .circuit import HBAR
from .errors import RegimeWarning

if TYPE_CHECKING:
    import numpy as np

#: elimination is trusted while theta0/kappa2 and |theta|/kappa2 stay below this
REGIME_LIMIT = 0.1


@dataclass(frozen=True)
class ReadoutParams:
    """Rates and conversion constants of the measurement chain.

    ``F`` is the drive amplitude (rad/s, complex); ``kappa1``/``kappa2``
    the resonator energy decay rates; ``theta0``/``theta`` the exchange
    rates produced by the circuit reduction; ``omega_tilde`` the common
    effective resonator frequency; ``L`` the inductance of the measured
    resonator.
    """

    F: complex
    kappa1: float
    kappa2: float
    theta0: float
    theta: float
    omega_tilde: float
    L: float
    hbar: float = HBAR

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

        Emits a :class:`RegimeWarning`, which a warnings filter (as
        ``sim --strict`` sets) turns into an error.  Only the
        eliminated-model operations call this; the full two-mode model is
        exempt on purpose, since probing regime breakdown is what it is for.
        """
        for name, ratio in self.regime_ratios().items():
            if ratio >= REGIME_LIMIT:
                warnings.warn(
                    f"{name} = {ratio:.3e} is outside the adiabatic-elimination "
                    f"regime (limit {REGIME_LIMIT})", RegimeWarning, stacklevel=3,
                )


def _check_nonneg(name, value):
    import numpy as np

    arr = np.asarray(value, dtype=float)
    if arr.size and float(arr.min()) < 0:
        raise ValueError(f"{name} must be nonnegative")
    return arr


def current_from_amplitude(p: ReadoutParams, a1):
    """Drive-phase-locked current of resonator 1 for a mean amplitude."""
    import numpy as np

    locked = np.asarray(a1) * cmath.exp(-1j * cmath.phase(p.alpha2))
    return p.current_scale * locked.imag


def mean_photocurrent(t, n_b, p: ReadoutParams):
    """Mean current of the measured resonator (A), zero initial amplitude.

    Equal to ``p.gain * n_b * (1 - exp(-(Gamma + kappa1) t / 2))``: linear
    in the phonon number at every instant, monotonically saturating in t.
    """
    import numpy as np

    p.enforce_regime()
    tt = _check_nonneg("t", t)
    nn = _check_nonneg("n_b", n_b)
    return p.gain * nn * (1.0 - np.exp(-0.5 * p.decay_total * tt))


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
    """Complex samples, shape (len(y0), n_samples), on a uniform grid over ``t_span``.

    DOP853 at ``rtol`` (``nemsqnd.ode``); each sample is one step from
    the accepted node nearest to it.
    """
    import numpy as np

    from . import ode

    t = np.linspace(t_span[0], t_span[1], n_samples)
    atol = rtol * max(scale, 1e-30) * 1e-2
    nodes, states = ode.solve(rhs, t_span, np.asarray(y0, dtype=complex), rtol, atol)
    near = ode.nearest(nodes, t)
    return t, ode.step(rhs, nodes[near], states[near].T, t)


def integrate_mean_qsde(p: ReadoutParams, n_b: float, t_span: tuple[float, float],
                        n_samples: int = 200, rtol: float = 1e-10) -> MeanTrace:
    """Integrate the eliminated mean equation from rest

        d<a1>/dt = -i theta alpha2 n_b - (Gamma + kappa1)/2 <a1>,  <a1>(0) = 0

    numerically.  This duplicates the closed-form ``<a1>(t)`` of the
    module docstring on purpose — the integrator never sees the closed
    form, so agreement between the two is a real check, not a tautology.
    """
    p.enforce_regime()
    _check_nonneg("n_b", n_b)
    if not t_span[1] > t_span[0] >= 0:
        raise ValueError("t_span must be increasing and nonnegative")
    forcing = -1j * p.theta * p.alpha2 * n_b
    halfdecay = 0.5 * p.decay_total

    def rhs(_t, y):
        return forcing - halfdecay * y

    scale = abs(forcing) / max(halfdecay, 1e-300)
    t, (a1,) = _solve_complex(rhs, t_span, [0j], n_samples, rtol, scale)
    return MeanTrace(t, a1, current_from_amplitude(p, a1))


# a NamedTuple: a frozen dataclass costs about 1 ms more at `sim` start-up
class CurrentTransients(NamedTuple):
    """Normalized current transients on a grid of ``tau = (Gamma + kappa1) t / 2``.

    ``normalized`` is a (4, n) array whose row k is the closed-form
    ``I / gain`` at ``n_b = k`` for k = 0, 1, 2, 3; ``residual`` is, per
    sample, the largest deviation of the integrated mean equation from it
    over n_b = 1, 2, 3, in units of ``gain * n_b``.
    """

    tau: np.ndarray
    normalized: np.ndarray
    residual: np.ndarray


def current_transients(p: ReadoutParams, tau_max: float, n_samples: int) -> CurrentTransients:
    """Closed-form transients of ``sim current`` and their ODE residual.

    The mean equation is integrated at rtol 1e-11 on the same
    ``n_samples`` points the closed form is evaluated on.
    """
    import numpy as np

    if p.gain == 0.0:
        raise ValueError("current gain is zero; normalized curves are undefined")
    tau = np.linspace(0.0, tau_max, n_samples)
    t = 2.0 * tau / p.decay_total
    normalized = mean_photocurrent(t, np.arange(4.0)[:, None], p) / p.gain
    residual = np.zeros_like(tau)
    for n, ref in zip((1.0, 2.0, 3.0), normalized[1:]):
        trace = integrate_mean_qsde(p, n, (0.0, float(t[-1])), n_samples=n_samples, rtol=1e-11)
        residual = np.maximum(residual, np.abs(trace.current / p.gain - ref) / n)
    return CurrentTransients(tau, normalized, residual)


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
    import numpy as np

    g = p.theta0 + p.theta * n_b
    k1h, k2h = 0.5 * p.kappa1, 0.5 * p.kappa2
    F = p.F

    def rhs(_t, y):
        a1, a2 = y
        return np.array((-1j * g * a2 - k1h * a1, -1j * g * a1 - 1j * F - k2h * a2))

    t, (a1, a2) = _solve_complex(rhs, t_span, [0.0, 0.0], n_samples, rtol, abs(p.alpha2))
    return TwoModeTrace(t, a1, a2)


def adiabatic_elimination_error(p: ReadoutParams, n_b: float = 1.0) -> float:
    """Relative error of the eliminated model's stationary phonon signal.

    The full model's stationary ``<a1>`` contains a phonon-independent
    offset driven by the bare exchange rate theta0; the measurement
    signal is what n_b adds on top of it.  This compares

        full:        <a1>_inf(n_b) - <a1>_inf(0)
        eliminated:  -2i alpha2 theta n_b / (Gamma + kappa1)

    and returns |full - eliminated| / |eliminated|.  The full-model
    values come from integrations of the coupled mean equations over 80
    of the slower decay times, at rtol 1e-12.
    """
    if n_b <= 0:
        raise ValueError("n_b must be positive to carry a signal")
    eliminated = -2j * p.alpha2 * p.theta * n_b / p.decay_total
    if eliminated == 0:
        raise ValueError("eliminated-model signal is zero; nothing to compare")
    t_end = 80.0 / min(p.kappa1, p.kappa2)
    on = full_two_mode_mean_dynamics(p, n_b, (0.0, t_end), n_samples=3, rtol=1e-12)
    off = full_two_mode_mean_dynamics(p, 0.0, (0.0, t_end), n_samples=3, rtol=1e-12)
    full = on.a1[-1] - off.a1[-1]
    return abs(full - eliminated) / abs(eliminated)
