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
from typing import NamedTuple

from .circuit import HBAR
from .config import REGIME_LIMIT, checked_make
from .errors import RegimeWarning


class _ReadoutFields(NamedTuple):
    F: complex
    kappa1: float
    kappa2: float
    theta0: float
    theta: float
    omega_tilde: float
    L: float


class ReadoutParams(_ReadoutFields):
    """Rates and conversion constants of the measurement chain.

    ``F`` is the drive amplitude (rad/s, complex); ``kappa1``/``kappa2``
    the resonator energy decay rates; ``theta0``/``theta`` the exchange
    rates produced by the circuit reduction; ``omega_tilde`` the common
    effective resonator frequency; ``L`` the inductance of the measured
    resonator.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("kappa1", "kappa2", "omega_tilde", "L"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, got {val!r}")
        if self.theta0 < 0 or not math.isfinite(self.theta0):
            raise ValueError(f"theta0 must be finite and >= 0, got {self.theta0!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        self = super().__new__(cls, complex(self.F), *self[1:])
        # refuses a non-finite F, and finite F and kappa2 that overflow alpha2 or |alpha2|
        try:
            finite = cmath.isfinite(self.alpha2) and math.isfinite(self.gain)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"F = {self.F!r} and kappa2 = {self.kappa2!r} give a non-finite "
                             "probe amplitude -2iF/kappa2 or current gain")
        return self

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
        return math.sqrt(2.0 * HBAR * self.omega_tilde / self.L)

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


def _nonnegative(name, x) -> list[float]:
    """The sequence ``x`` as a list of floats; refuses a negative or NaN
    entry by name."""
    values = [float(v) for v in x]
    for v in values:
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative, got {v!r}")
    return values


def _phonon_number(n_b) -> float:
    """``n_b`` as one float; refuses a sequence, or a negative or NaN number, by name."""
    try:
        iter(n_b)
    except TypeError:
        return _nonnegative("n_b", [n_b])[0]
    raise ValueError(f"n_b must be one number, got a sequence {n_b!r}")


def current_from_amplitude(p: ReadoutParams, a1) -> list[float]:
    """Drive-phase-locked current of resonator 1, one per mean amplitude
    of the sequence ``a1``."""
    scale, rotation = p.current_scale, cmath.exp(-1j * cmath.phase(p.alpha2))
    return [scale * (a * rotation).imag for a in a1]


def mean_photocurrent(t, n_b, p: ReadoutParams) -> list[list[float]]:
    """Mean current of the measured resonator (A), zero initial amplitude.

    Equal to ``p.gain * n_b * (1 - exp(-(Gamma + kappa1) t / 2))``: linear
    in the phonon number at every instant, monotonically saturating in t.
    ``t`` and ``n_b`` are sequences of numbers; the result holds one list
    over ``t`` per phonon number.
    """
    p.enforce_regime()
    times, counts = _nonnegative("t", t), _nonnegative("n_b", n_b)
    rate, gain = -0.5 * p.decay_total, p.gain
    rise = [1.0 - math.exp(rate * s) for s in times]
    return [[gain * n * r for r in rise] for n in counts]


# ---------------------------------------------------------------------------
# numerical integration (the independent route to the closed forms above)


def integrate_mean_qsde(p: ReadoutParams, n_b: float, t) -> list[complex]:
    """Integrate the eliminated mean equation from rest

        d<a1>/dt = -i theta alpha2 n_b - (Gamma + kappa1)/2 <a1>,  <a1>(0) = 0

    numerically, on Python complex numbers: one DOP853 solve at rtol 1e-11
    to the latest time of the sequence ``t``, then one step from the
    nearest node to each time gives the list of ``<a1>``.  This
    duplicates the closed-form ``<a1>(t)`` of the module docstring on
    purpose — the integrator never sees the closed form, so agreement
    between the two is a real check, not a tautology.
    """
    from . import ode

    p.enforce_regime()
    n_b = _phonon_number(n_b)
    times = _nonnegative("t", t)
    if not (times and 0 < max(times) < math.inf):
        raise ValueError("t must hold a positive time and only finite ones")
    forcing = -1j * p.theta * p.alpha2 * n_b
    halfdecay = 0.5 * p.decay_total

    def rhs(_t, y):
        return forcing - halfdecay * y

    scale = max(abs(forcing) / max(halfdecay, 1e-300), 1e-30)
    nodes, states = ode.solve(rhs, (0.0, max(times)), 0j, 1e-11, scale)
    return [ode.step(rhs, nodes[i], states[i], s)
            for i, s in zip(ode.nearest(nodes, times), times)]


def _nan_high(x: float) -> float:
    """Rank for a largest-residual search: NaN outranks every number, so
    a NaN residual is kept (and fails its check) wherever it occurs."""
    return math.inf if math.isnan(x) else x


class CurrentTransients(NamedTuple):
    """Normalized current transients on a grid of ``tau = (Gamma + kappa1) t / 2``.

    ``normalized`` holds four lists; list k is the closed-form ``I /
    gain`` at ``n_b = k`` for k = 0, 1, 2, 3.  ``residual`` is, per
    sample, the largest deviation from it of n_b times the integrated
    n_b = 1 current, over n_b = 1, 2, 3, in units of ``gain * n_b``.
    """

    tau: list[float]
    normalized: list[list[float]]
    residual: list[float]

    @property
    def max_residual(self) -> float:
        """Largest residual, or NaN if any sample is NaN."""
        return max(self.residual, key=_nan_high)


def current_transients(p: ReadoutParams, tau_max: float, points: int) -> CurrentTransients:
    """Closed-form transients of ``sim current`` and their ODE residual.

    The mean equation is linear in n_b, so it is integrated once, at
    n_b = 1 and rtol 1e-11, and n_b times that run is compared with the
    closed form at n_b = 1, 2, 3 at the same ``points`` times.
    """
    gain, decay = p.gain, p.decay_total
    if gain == 0.0:
        raise ValueError("current gain is zero; normalized curves are undefined")
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points!r}")
    # numpy.linspace(0, tau_max, points), bit for bit
    step = tau_max / (points - 1)
    tau = [i * step for i in range(points - 1)] + [tau_max]
    t = [2.0 * s / decay for s in tau]
    normalized = [[v / gain for v in row]
                  for row in mean_photocurrent(t, (0.0, 1.0, 2.0, 3.0), p)]
    current = current_from_amplitude(p, integrate_mean_qsde(p, 1.0, t))
    residual = [max((abs(n * c / gain - r) / n for n, r in enumerate(refs, 1)), key=_nan_high)
                for c, refs in zip(current, zip(*normalized[1:]))]
    return CurrentTransients(tau, normalized, residual)


def full_two_mode_mean_dynamics(runs, t_end: float):
    """Integrate the coupled mean equations of both resonators from rest

        d<a1>/dt = -i (theta0 + theta n_b) <a2> - (kappa1/2) <a1>
        d<a2>/dt = -i (theta0 + theta n_b) <a1> - iF - (kappa2/2) <a2>

    for each ``(p, n_b)`` pair of the sequence ``runs``, and return
    ``(a1, a2)`` at ``t_end``: two arrays, entry j for run j.  The runs
    are the columns of one ``ode.solve`` call at rtol 1e-12, each with
    its own coupling, rates, drive and natural size |alpha2|, so they
    share one step sequence, and its last node is the result.

    The phonon number operator is a constant of motion, so it enters
    purely as the scalar ``n_b``.  No adiabatic elimination and no
    regime check: this is the reference the eliminated model is judged
    against, including outside its validity range.
    """
    import numpy as np

    from . import ode

    runs = [(p, _phonon_number(n_b)) for p, n_b in runs]
    if not runs:
        raise ValueError("runs must hold at least one (p, n_b) pair")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    g = np.array([p.theta0 + p.theta * n_b for p, n_b in runs])
    k1h = np.array([0.5 * p.kappa1 for p, _ in runs])
    k2h = np.array([0.5 * p.kappa2 for p, _ in runs])
    drive = np.array([1j * p.F for p, _ in runs])

    def rhs(_t, y):
        a1, a2 = y
        return np.array((-1j * g * a2 - k1h * a1, -1j * g * a1 - drive - k2h * a2))

    scale = np.maximum([abs(p.alpha2) for p, _ in runs], 1e-30)
    _, states = ode.solve(rhs, (0.0, t_end), np.zeros((2, len(runs)), complex), 1e-12, scale)
    return tuple(states[-1])


def adiabatic_elimination_error(sweep, n_b: float = 1.0) -> list[float]:
    """Relative error of the eliminated model's stationary phonon signal,
    one per ``ReadoutParams`` of the sequence ``sweep``.

    The full model's stationary ``<a1>`` contains a phonon-independent
    offset driven by the bare exchange rate theta0; the measurement
    signal is what n_b adds on top of it.  This compares

        full:        <a1>_inf(n_b) - <a1>_inf(0)
        eliminated:  -2i alpha2 theta n_b / (Gamma + kappa1)

    and returns |full - eliminated| / |eliminated|.  The full-model
    values come from one solve of the coupled mean equations, at n_b and
    at 0 for every entry, over 80 of the slowest decay times of the
    sweep, at rtol 1e-12.
    """
    if not n_b > 0:
        raise ValueError("n_b must be positive to carry a signal")
    sweep = list(sweep)
    eliminated = [-2j * p.alpha2 * p.theta * n_b / p.decay_total for p in sweep]
    if 0 in eliminated:
        raise ValueError("eliminated-model signal is zero; nothing to compare")
    t_end = 80.0 / min(min(p.kappa1, p.kappa2) for p in sweep)
    runs = [(p, n) for p in sweep for n in (n_b, 0.0)]
    final, _ = full_two_mode_mean_dynamics(runs, t_end)
    return [abs(on - off - e) / abs(e) for on, off, e in zip(final[::2], final[1::2], eliminated)]
