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
values) is reported but, by convention, dropped from the frequencies
unless explicitly requested.

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

import numpy as np
from scipy.integrate import solve_ivp

from .errors import EstimationError, IntegrationError

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


def x_rms(p: PhysicalCircuitParams, n_b: float = 0.0) -> float:
    """Root-mean-square mechanical displacement at mean phonon number n_b."""
    if n_b < 0:
        raise ValueError("n_b must be nonnegative")
    return math.sqrt(p.hbar * (n_b + 0.5) / (p.m * p.nu))


def effective_params(
    p: PhysicalCircuitParams,
    n_b: float = 0.0,
    apply_xrms_correction: bool = False,
    resonance_rtol: float | None = None,
) -> EffectiveParams:
    """Reduce SI circuit values to the effective coupled-mode parameters.

    Parameters
    ----------
    n_b
        Mean phonon number used for the reported ``x_rms_sq_over_d_sq``.
    apply_xrms_correction
        When True the capacitance renormalization keeps the factor
        ``(1 - x_rms^2/d^2)``; the default drops it, which is the
        convention the rest of the package relies on (the correction is
        of order 1e-6 at the desk values).
    resonance_rtol
        When given, reject parameter sets whose effective frequencies
        differ by more than this relative tolerance.
    """
    c_eq = equilibrium_capacitance(p)
    r = p.hbar * (n_b + 0.5) / (p.m * p.nu * p.d**2)
    shrink = (1.0 - r) if apply_xrms_correction else 1.0

    c_tilde1 = 1.0 / (1.0 / p.C1 + shrink / (2.0 * c_eq))
    c_tilde2 = 1.0 / (1.0 / p.C2 + shrink / (2.0 * c_eq))
    omega1 = 1.0 / math.sqrt(p.L1 * p.C1)
    omega2 = 1.0 / math.sqrt(p.L2 * p.C2)
    omega_eq1 = 1.0 / math.sqrt(c_eq * p.L1)
    omega_eq2 = 1.0 / math.sqrt(c_eq * p.L2)
    omega_tilde1 = math.sqrt(omega1**2 + shrink * omega_eq1**2 / 2.0)
    omega_tilde2 = math.sqrt(omega2**2 + shrink * omega_eq2**2 / 2.0)

    theta0 = omega_tilde1 * c_tilde1 / (4.0 * c_eq)
    theta = -(p.hbar / (p.d**2 * p.m * p.nu)) * theta0

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

#: most drive periods one run may span; each holds one M^m y0 vector
DRIVE_PERIOD_CAP = 2**20


@dataclass
class ClassicalCircuitConfig:
    """Inputs for a classical simulation of the coupled circuit.

    The plate follows the declared drive x(t) = x0 cos(nu t): ``x0`` in
    meters (0, the default, holds the plate at rest) and ``nu`` in rad/s,
    defaulting to the plate's mechanical frequency ``params.nu``.
    Initial conditions at ``t_span[0]`` are charges (coulomb) and their
    conjugate momenta (weber).
    """

    params: PhysicalCircuitParams
    x0: float = 0.0
    nu: float | None = None
    q1: float = 0.0
    p1: float = 0.0
    q2: float = 0.0
    p2: float = 0.0
    t_span: tuple[float, float] = (0.0, 1.0)
    n_samples: int = 4096
    rtol: float = 1e-10

    def __post_init__(self):
        if self.nu is None:
            self.nu = self.params.nu
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be a finite positive number")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must be increasing")
        if self.rtol <= 0:
            raise ValueError("rtol must be positive")
        periods = (self.t_span[1] - self.t_span[0]) * self.nu / math.pi
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
    with DOP853 at ``rtol``, the step at most T/16 since the samples come
    from its dense interpolant.  Each sample is then
    Phi((t - t0) mod T) M^m y0, the M^m y0 built by a running product.
    The absolute tolerance of each entry of Phi is scaled by the ratio of
    its row and column variables' natural sizes (charge against momentum,
    P ~ omega L Q), so its floor means the same for coulomb and weber
    entries.

    Raises
    ------
    ValueError
        If the drive amplitude reaches the plate separation (the plates
        would short); checked before anything is integrated.
    IntegrationError
        If the integrator reports failure.
    """
    p = cfg.params
    if abs(cfg.x0) >= p.d:
        raise ValueError(
            f"drive amplitude |x0| = {abs(cfg.x0):.3e} m meets the plate "
            f"separation {p.d:.3e} m; the plates would short"
        )

    t0, t1 = cfg.t_span
    period = math.pi / cfg.nu
    t = np.linspace(t0, t1, cfg.n_samples)
    elapsed = t - t0
    whole = np.floor(elapsed / period).astype(np.int64)
    # rounding may put a phase a hair outside [0, T]; Phi is known on all of it
    phase = np.clip(elapsed - whole * period, 0.0, period)
    # a span shorter than T needs Phi only that far (and no M); otherwise T
    # closes the grid, so M = Phi(T) is its last entry
    horizon = min(period, t1 - t0)
    grid, slot = np.unique(np.append(phase, horizon), return_inverse=True)

    inv_l1, inv_l2 = 1.0 / p.L1, 1.0 / p.L2
    inv_c1, inv_c2 = 1.0 / p.C1, 1.0 / p.C2
    inv_2dea = 1.0 / (2.0 * p.d * p.eps0 * p.A)
    d2, x02, nu = p.d * p.d, cfg.x0 * cfg.x0, cfg.nu

    def rhs(s, phi):
        cos = math.cos(nu * (t0 + s))
        c = (d2 - x02 * cos * cos) * inv_2dea
        q1, p1_, q2, p2_ = phi.reshape(4, 4)
        return np.concatenate((
            p1_ * inv_l1,
            -(inv_c1 + c) * q1 - c * q2,
            p2_ * inv_l2,
            -(inv_c2 + c) * q2 - c * q1,
        ))

    c0 = d2 * inv_2dea
    size = np.array([1.0, math.sqrt(p.L1 * (inv_c1 + c0)), 1.0, math.sqrt(p.L2 * (inv_c2 + c0))])
    atol = 1e-2 * cfg.rtol * np.outer(size, 1.0 / size).ravel()
    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        np.eye(4).ravel(),
        method="DOP853",
        rtol=cfg.rtol,
        atol=atol,
        max_step=period / 16.0,
        t_eval=grid,
    )
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    phi = sol.y.T.reshape(-1, 4, 4)
    monodromy = phi[-1]

    starts = np.empty((int(whole[-1]) + 1, 4))
    starts[0] = (cfg.q1, cfg.p1, cfg.q2, cfg.p2)
    for m in range(1, starts.shape[0]):
        starts[m] = monodromy @ starts[m - 1]
    y = np.matmul(phi[slot[:-1]], starts[whole][:, :, None])[:, :, 0]
    return Trajectory(t, y[:, 0], y[:, 1], y[:, 2], y[:, 3])


def circuit_energy(
    p: PhysicalCircuitParams,
    q1: np.ndarray,
    p1: np.ndarray,
    q2: np.ndarray,
    p2: np.ndarray,
    x: float | np.ndarray = 0.0,
):
    """Instantaneous circuit Hamiltonian along a trajectory."""
    c = (p.d**2 - np.asarray(x) ** 2) / (2.0 * p.d * p.eps0 * p.A)
    return (
        p1**2 / (2.0 * p.L1)
        + p2**2 / (2.0 * p.L2)
        + 0.5 * (1.0 / p.C1 + c) * q1**2
        + 0.5 * (1.0 / p.C2 + c) * q2**2
        + c * q1 * q2
    )


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
    if spec.size < 4:
        raise EstimationError("spectrum too short")
    k = 1 + int(np.argmax(spec[1:-1]))  # exclude DC and Nyquist bins
    if k < 1 or k > spec.size - 2:
        raise EstimationError("spectral peak sits at the edge of the band")
    left, mid, right = spec[k - 1], spec[k], spec[k + 1]
    if left <= 0.0 or mid <= 0.0 or right <= 0.0:
        raise EstimationError("spectral peak has empty neighbour bins")
    la, ma, ra = math.log(left), math.log(mid), math.log(right)
    denom = la - 2.0 * ma + ra
    if denom >= 0.0:
        raise EstimationError("spectral peak is not locally concave")
    delta = 0.5 * (la - ra) / denom
    return (k + delta) * 2.0 * math.pi / (n * dt)
