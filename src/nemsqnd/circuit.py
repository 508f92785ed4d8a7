"""Physical circuit parameters and the classical Kirchhoff validator.

Two LC resonators (inductances L1, L2; capacitances C1, C2) are coupled
through a mechanical element: a conducting plate of face area A suspended
midway between two fixed plates a distance d from each, forming the
position-dependent capacitances

    C_1(t) = eps0 A / (d - x(t)),    C_2(t) = eps0 A / (d + x(t)),

with equilibrium value C_eq = eps0 A / d.  Expanding the circuit
Hamiltonian in x/d renormalizes each resonator capacitance to

    1 / Ctilde_i = 1 / C_i + 1 / (2 C_eq)

and couples the charges through (d^2 - x^2(t)) / (2 d eps0 A) Q1 Q2.
The effective resonator frequencies satisfy

    omega_tilde_i^2 = omega_i^2 + omega_eq_i^2 / 2

where omega_i^2 = 1/(L_i C_i) and omega_eq_i^2 = 1/(C_eq L_i).  The
mechanical zero-point motion enters through x_rms^2 = hbar (n_b + 1/2) / (m nu);
its fractional correction x_rms^2/d^2 (about 1e-6 at the default desk
values) is reported but, by convention, dropped from the frequencies.

The classical validator integrates the unaveraged Kirchhoff equations
with the plate on a declared harmonic drive x(t) = x0 cos(nu t).  The
circuit is then linear in the charges and momenta y = (Q1, P1, Q2, P2),
and the plate enters only through x^2, so the coefficients repeat with
period T = pi / nu.  By Floquet theory (Yakubovich & Starzhinskii,
Linear Differential Equations with Periodic Coefficients, 1975) one
period of the 4x4 fundamental matrix Phi(s), Phi(0) = 1, gives the
whole trajectory:

    y(t0 + m T + s) = Phi(s) M^m y(t0),    M = Phi(T),  0 <= s <= T.

Phi is an ordinary numerical integration of the unaveraged equations,
exact to the integrator's tolerance, so a spectral check on this
trajectory tests the x^2 averaging behind the effective parameters
without assuming it.

The module boundary is SI: farads, henries, meters, kilograms, rad/s.
All frequencies, including the mechanical one, are angular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .config import DRIVE_PERIOD_CAP
from .errors import EstimationError

if TYPE_CHECKING:
    import numpy as np

#: CODATA values; overridable only for unit tests via PhysicalCircuitParams.
HBAR = 1.054571817e-34
EPS0 = 8.8541878128e-12


@dataclass(frozen=True)
class PhysicalCircuitParams:
    """SI description of the coupled resonator-mechanics circuit.

    All entries strictly positive.  ``nu`` is the angular mechanical
    frequency in rad/s; a value quoted in Hz must be multiplied by 2 pi
    before it goes in here.
    """

    L1: float
    L2: float
    C1: float
    C2: float
    d: float
    A: float
    m: float
    nu: float
    eps0: float = EPS0
    hbar: float = HBAR

    def __post_init__(self):
        for name in ("L1", "L2", "C1", "C2", "d", "A", "m", "nu", "eps0", "hbar"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be a finite positive number, got {val!r}")


@dataclass(frozen=True)
class EffectiveParams:
    """Derived circuit quantities, all SI (farads and rad/s).

    ``theta0`` is the phonon-independent exchange rate between the two
    resonators; ``theta`` is the (negative) shift of that rate per
    phonon, theta = -(hbar / (d^2 m nu)) * theta0.
    """

    c_eq: float
    c_tilde1: float
    c_tilde2: float
    omega1: float
    omega2: float
    omega_eq1: float
    omega_eq2: float
    omega_tilde1: float
    omega_tilde2: float
    theta0: float
    theta: float
    x_rms_sq_over_d_sq: float

    @property
    def theta_ratio(self) -> float:
        return self.theta / self.theta0

    @property
    def resonance_mismatch(self) -> float:
        """Relative splitting of the two effective frequencies."""
        return abs(self.omega_tilde1 - self.omega_tilde2) / max(
            self.omega_tilde1, self.omega_tilde2
        )


def equilibrium_capacitance(p: PhysicalCircuitParams) -> float:
    """Plate capacitance at mechanical equilibrium, eps0 A / d."""
    return p.eps0 * p.A / p.d


def effective_params(
    p: PhysicalCircuitParams,
    n_b: float = 0.0,
    resonance_rtol: float | None = None,
) -> EffectiveParams:
    """Reduce SI circuit values to the effective coupled-mode parameters.

    Parameters
    ----------
    n_b
        Mean phonon number used for the reported ``x_rms_sq_over_d_sq``;
        the frequencies drop that correction by convention.
    resonance_rtol
        When given, reject parameter sets whose effective frequencies
        differ by more than this relative tolerance.

    Raises
    ------
    ValueError
        If a derived capacitance, frequency or rate is not finite and
        positive (``theta`` negative): finite circuit values far from
        the desk scale can underflow a product to zero or overflow a
        square.
    """
    try:
        c_eq = equilibrium_capacitance(p)
        r = p.hbar * (n_b + 0.5) / (p.m * p.nu * p.d**2)

        c_tilde1 = 1.0 / (1.0 / p.C1 + 1.0 / (2.0 * c_eq))
        c_tilde2 = 1.0 / (1.0 / p.C2 + 1.0 / (2.0 * c_eq))
        omega1 = 1.0 / math.sqrt(p.L1 * p.C1)
        omega2 = 1.0 / math.sqrt(p.L2 * p.C2)
        omega_eq1 = 1.0 / math.sqrt(c_eq * p.L1)
        omega_eq2 = 1.0 / math.sqrt(c_eq * p.L2)
        omega_tilde1 = math.sqrt(omega1**2 + omega_eq1**2 / 2.0)
        omega_tilde2 = math.sqrt(omega2**2 + omega_eq2**2 / 2.0)

        theta0 = omega_tilde1 * c_tilde1 / (4.0 * c_eq)
        theta = -(p.hbar / (p.d**2 * p.m * p.nu)) * theta0
        derived = (c_eq, c_tilde1, c_tilde2, omega1, omega2, omega_eq1, omega_eq2,
                   omega_tilde1, omega_tilde2, theta0, -theta)
        valid = all(0.0 < v < math.inf for v in derived)
    except (ZeroDivisionError, OverflowError):
        valid = False
    if not valid:
        values = ", ".join(f"{name} = {getattr(p, name)!r}"
                           for name in ("L1", "L2", "C1", "C2", "d", "A", "m", "nu"))
        raise ValueError(
            f"circuit values {values} give a capacitance, frequency or rate "
            "that is not finite and positive"
        )

    eff = EffectiveParams(
        c_eq=c_eq,
        c_tilde1=c_tilde1,
        c_tilde2=c_tilde2,
        omega1=omega1,
        omega2=omega2,
        omega_eq1=omega_eq1,
        omega_eq2=omega_eq2,
        omega_tilde1=omega_tilde1,
        omega_tilde2=omega_tilde2,
        theta0=theta0,
        theta=theta,
        x_rms_sq_over_d_sq=r,
    )
    if resonance_rtol is not None and eff.resonance_mismatch > resonance_rtol:
        raise ValueError(
            f"effective frequencies differ by {eff.resonance_mismatch:.3e} "
            f"(tolerance {resonance_rtol:.3e}); the exchange-coupling model "
            "assumes resonant resonators"
        )
    return eff


# ---------------------------------------------------------------------------
# classical Kirchhoff dynamics (Floquet propagation, see the module docstring)

#: samples stepped at once from their nearest nodes (0.85 MB of stages)
SAMPLE_BLOCK = 2**11


@dataclass(frozen=True)
class ClassicalCircuitConfig:
    """Inputs for a classical simulation of the coupled circuit.

    The plate follows the declared drive x(t) = x0 cos(nu t) at the
    mechanical frequency ``nu = params.nu``, with ``x0`` in meters (0,
    the default, holds the plate at rest).  Initial conditions at
    ``t_span[0]`` are charges (coulomb) and their conjugate momenta
    (weber).
    """

    params: PhysicalCircuitParams
    x0: float = 0.0
    q1: float = 0.0
    p1: float = 0.0
    q2: float = 0.0
    p2: float = 0.0
    t_span: tuple[float, float] = (0.0, 1.0)
    n_samples: int = 4096
    rtol: float = 1e-10

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must be increasing")
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ValueError(f"rtol must be finite and positive, got {self.rtol!r}")
        periods = (self.t_span[1] - self.t_span[0]) * self.params.nu / math.pi
        if not periods <= DRIVE_PERIOD_CAP:
            raise ValueError(
                f"t_span covers {periods:.3e} drive periods, above the cap "
                f"{DRIVE_PERIOD_CAP}"
            )


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    q1: np.ndarray
    p1: np.ndarray
    q2: np.ndarray
    p2: np.ndarray


def floquet_powers(monodromy: np.ndarray, y0, n: int) -> np.ndarray:
    """Rows ``M^m y0`` for m < n (and up to b - 1 more), ``M`` the 4x4
    ``monodromy``.

    With b = isqrt(n), row m = j b + r is M^r (M^b)^j y0: the powers
    M^r, r < b, and the vectors (M^b)^j y0 are two running products of
    about sqrt(n) terms each, and one ``einsum`` forms every product of
    the two in place.  At 23,361 periods the rows deviate from an
    extended-precision running product by 4.2e-14 of each coordinate's
    size (a double running product of all n rows: 1.3e-14; repeated
    squaring: 2.8e-13).
    """
    import numpy as np

    b = math.isqrt(n)
    powers = np.empty((b, 4, 4))
    powers[0] = np.eye(4)
    for r in range(1, b):
        powers[r] = powers[r - 1] @ monodromy
    stride = powers[-1] @ monodromy
    jumps = np.empty((-(-n // b), 4))
    jumps[0] = y0
    for j in range(1, jumps.shape[0]):
        jumps[j] = stride @ jumps[j - 1]
    rows = np.empty((jumps.shape[0], b, 4))
    np.einsum("rik,jk->jri", powers, jumps, out=rows)
    return rows.reshape(-1, 4)


def simulate_classical_circuit(cfg: ClassicalCircuitConfig) -> Trajectory:
    """Integrate the Kirchhoff equations of the coupled circuit.

    The equations of motion follow from the circuit Hamiltonian:

        dQ1/dt = P1 / L1
        dP1/dt = -Q1 / Ctilde1(t) - c(t) Q2
        dQ2/dt = P2 / L2
        dP2/dt = -Q2 / Ctilde2(t) - c(t) Q1

    with c(t) = (d^2 - x^2(t)) / (2 d eps0 A), x(t) = x0 cos(nu t) and the
    instantaneous 1/Ctilde_i(t) = 1/C_i + c(t).  The fundamental matrix
    is integrated over one period T = pi/nu (or the span, if shorter)
    with DOP853 at ``rtol`` (``nemsqnd.ode``), the step at most T/16.
    Each sample is then Phi((t - t0) mod T) M^m y0: one step from the
    accepted node s_k nearest to the sample's phase, applied to the
    vector Phi(s_k) M^m y0, in blocks of ``SAMPLE_BLOCK`` samples.  The
    M^m y0 come from ``floquet_powers`` in sqrt(n) blocks, n the number
    of periods the samples start in.
    The natural size of each entry of Phi, which sets its absolute
    tolerance, is the ratio of its row and column variables' natural
    sizes (charge against momentum, P ~ omega L Q), so its floor means
    the same for coulomb and weber entries.

    Raises
    ------
    ValueError
        If the drive amplitude reaches the plate separation (the plates
        would short); checked before anything is integrated.
    IntegrationError
        If the integrator reports failure.
    """
    import numpy as np

    from . import ode

    p = cfg.params
    if abs(cfg.x0) >= p.d:
        raise ValueError(
            f"drive amplitude |x0| = {abs(cfg.x0):.3e} m meets the plate "
            f"separation {p.d:.3e} m; the plates would short"
        )

    t0, t1 = cfg.t_span
    period = math.pi / p.nu
    t = np.linspace(t0, t1, cfg.n_samples)
    elapsed = t - t0
    whole = np.floor(elapsed / period).astype(np.int64)
    # rounding may put a phase a hair outside [0, T]; Phi is known on all of it
    phase = np.clip(elapsed - whole * period, 0.0, period)
    # a span shorter than T needs Phi only that far (and no M)
    horizon = min(period, t1 - t0)

    inv_l1, inv_l2 = 1.0 / p.L1, 1.0 / p.L2
    inv_c1, inv_c2 = 1.0 / p.C1, 1.0 / p.C2
    inv_2dea = 1.0 / (2.0 * p.d * p.eps0 * p.A)
    d2, x02, nu = p.d * p.d, cfg.x0 * cfg.x0, p.nu

    def rhs(s, y):
        # y[0:4] = (Q1, P1, Q2, P2); s broadcasts against the trailing axes
        cos = np.cos(nu * (t0 + s))
        c = (d2 - x02 * cos * cos) * inv_2dea
        q1, p1_, q2, p2_ = y
        return np.array((p1_ * inv_l1, -(inv_c1 + c) * q1 - c * q2,
                         p2_ * inv_l2, -(inv_c2 + c) * q2 - c * q1))

    c0 = d2 * inv_2dea
    size = np.array([1.0, math.sqrt(p.L1 * (inv_c1 + c0)), 1.0, math.sqrt(p.L2 * (inv_c2 + c0))])
    nodes, phi = map(np.array, ode.solve(rhs, (0.0, horizon), np.eye(4), cfg.rtol,
                                         np.outer(size, 1.0 / size), max_step=period / 16.0))

    starts = floquet_powers(phi[-1], (cfg.q1, cfg.p1, cfg.q2, cfg.p2), int(whole[-1]) + 1)
    y = np.empty((4, t.size))
    for i in range(0, t.size, SAMPLE_BLOCK):
        s = phase[i:i + SAMPLE_BLOCK]
        near = ode.nearest(nodes, s)
        v = np.einsum("kij,kj->ik", phi[near], starts[whole[i:i + SAMPLE_BLOCK]])
        y[:, i:i + SAMPLE_BLOCK] = ode.step(rhs, nodes[near], v, s)
    return Trajectory(t, *y)


# ---------------------------------------------------------------------------
# spectral estimation


def estimate_dominant_frequency(series: np.ndarray, dt: float) -> float:
    """Angular frequency of the strongest spectral line in a sampled signal.

    The mean is removed, a Gaussian window (sigma = N/6) is applied, and
    the peak of the discrete Fourier magnitude is refined by parabolic
    interpolation on the log magnitude of the three bins around the
    maximum.  For a windowed sinusoid the log magnitude is very nearly
    parabolic, which makes the three-point fit essentially exact.

    Returns rad/s for a sampling interval ``dt`` in seconds.
    """
    import numpy as np

    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 1024:
        raise EstimationError(f"need at least 1024 samples, got {n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = y - y.mean()
    amp = float(np.max(np.abs(y)))
    if amp == 0.0 or not np.isfinite(amp):
        raise EstimationError("series is constant; no dominant frequency")

    j = np.arange(n)
    window = np.exp(-0.5 * ((j - 0.5 * (n - 1)) / (n / 6.0)) ** 2)
    spec = np.abs(np.fft.rfft(y * window))
    k = 1 + int(np.argmax(spec[1:-1]))  # exclude DC and Nyquist bins
    left, mid, right = spec[k - 1], spec[k], spec[k + 1]
    if left <= 0.0 or mid <= 0.0 or right <= 0.0:
        raise EstimationError("spectral peak has empty neighbour bins")
    la, ma, ra = math.log(left), math.log(mid), math.log(right)
    denom = la - 2.0 * ma + ra
    if denom >= 0.0:
        raise EstimationError("spectral peak is not locally concave")
    delta = 0.5 * (la - ra) / denom
    return (k + delta) * 2.0 * math.pi / (n * dt)


# ---------------------------------------------------------------------------
# averaging check


# a NamedTuple: a frozen dataclass costs about 1 ms more at `sim` start-up
class AveragingReport(NamedTuple):
    """Spectral peak of a classical run against the averaged resonance."""

    trajectory: Trajectory
    estimated_omega: float
    predicted_omega: float
    rel_error: float


def classical_averaging(run: ClassicalCircuitConfig) -> AveragingReport:
    """Simulate ``run`` and judge the spectral peak of Q1 by the averaged model.

    The prediction is ``omega_tilde1`` of ``run.params``, the frequency
    the x^2 averaging behind the effective parameters gives resonator 1.
    """
    traj = simulate_classical_circuit(run)
    est = estimate_dominant_frequency(traj.q1, traj.t[1] - traj.t[0])
    predicted = effective_params(run.params).omega_tilde1
    return AveragingReport(traj, est, predicted, abs(est - predicted) / predicted)
