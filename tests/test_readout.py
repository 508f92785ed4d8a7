"""Mean-field readout: closed forms vs numerics, regime policing."""

import cmath
import math
import warnings

import numpy as np
import pytest

from nemsqnd import readout, verify
from nemsqnd.config import RunConfig
from nemsqnd.errors import RegimeWarning
from nemsqnd.readout import (
    ReadoutParams,
    adiabatic_elimination_error,
    current_from_amplitude,
    full_two_mode_mean_dynamics,
    integrate_mean_qsde,
    mean_photocurrent,
)


def unit_chain(**over):
    """Unit-scale measurement chain, comfortably inside the elimination regime.

    F is purely imaginary so alpha2 comes out real and positive and the
    locked quadrature is plain Im<a1>.
    """
    base = dict(F=10j, kappa1=1.0, kappa2=40.0, theta0=0.5, theta=-0.02,
                omega_tilde=2.0, L=1.0, hbar=1.0)
    base.update(over)
    return ReadoutParams(**base)


def mean_amplitude(p, n_b, t):
    """Closed-form ``<a1>(t)`` of the eliminated model from ``<a1>(0) = 0``.

    The reference the integrator is judged against; broadcasts over
    ``n_b`` and ``t``.
    """
    g = p.decay_total
    return (-2j * p.alpha2 * p.theta / g) * np.asarray(n_b) * (1.0 - np.exp(-0.5 * g * np.asarray(t)))


def stationary_mean_amplitude(p, n_b):
    """Long-time limit -2i alpha2 theta n_b / (Gamma + kappa1) of ``mean_amplitude``."""
    return -2j * p.alpha2 * p.theta * n_b / p.decay_total


def stationary_two_mode(p, n_b):
    """Exact fixed point of the coupled mean equations.

    Solving the stationary linear system gives

        <a1>_inf = -2i g kappa2 alpha2 / (kappa1 kappa2 + 4 g^2)
        <a2>_inf = alpha2 kappa1 kappa2 / (kappa1 kappa2 + 4 g^2)

    with g = theta0 + theta n_b: the closed-form reference for the
    long-time limit of ``full_two_mode_mean_dynamics``.
    """
    g = p.theta0 + p.theta * n_b
    denom = p.kappa1 * p.kappa2 + 4.0 * g * g
    a2 = p.alpha2 * p.kappa1 * p.kappa2 / denom
    a1 = -2j * g * p.kappa2 * p.alpha2 / denom
    return a1, a2


def algebraic_elimination_error(p, n_b):
    """``adiabatic_elimination_error`` with the full model's stationary
    signal taken from the fixed point instead of the integrated equations."""
    full = stationary_two_mode(p, n_b)[0] - stationary_two_mode(p, 0.0)[0]
    eliminated = stationary_mean_amplitude(p, n_b)
    return abs(full - eliminated) / abs(eliminated)


# ---------------------------------------------------------------------------
# derived constants


def test_alpha2_and_gamma_from_first_principles():
    p = unit_chain()
    assert p.alpha2 == -2j * p.F / p.kappa2
    assert p.alpha2 == pytest.approx(0.5)
    assert p.Gamma == pytest.approx(2.0 * p.theta0**2 / p.kappa2, rel=1e-15)
    assert p.decay_total == pytest.approx(p.Gamma + p.kappa1, rel=1e-15)
    assert p.current_scale == pytest.approx(
        math.sqrt(2.0 * p.hbar * p.omega_tilde / p.L), rel=1e-15)


def test_gain_positive_for_negative_theta():
    p = unit_chain()
    assert p.theta < 0
    assert p.gain > 0
    expected = -p.theta * abs(p.alpha2) * p.current_scale * 2.0 / p.decay_total
    assert p.gain == pytest.approx(expected, rel=1e-15)


def test_steady_alpha2_helper():
    assert unit_chain(F=10j, kappa2=40.0).alpha2 == 0.5 + 0j
    assert unit_chain(F=3.0, kappa2=2.0).alpha2 == -3j
    with pytest.raises(ValueError, match="kappa2"):
        unit_chain(F=1j, kappa2=0.0)


@pytest.mark.parametrize("F,kappa2", [(1e308j, 1e-3), (8e307 + 8e307j, 1.0)])
def test_overflowing_probe_amplitude_refused(F, kappa2):
    """Finite F and kappa2 can overflow -2iF/kappa2 (the first pair) or
    its modulus in the gain (the second); both are refused by name."""
    with pytest.raises(ValueError, match=r"^F = .* and kappa2 = .* give a non-finite"):
        unit_chain(F=F, kappa2=kappa2)


@pytest.mark.parametrize("field,value", [
    ("kappa1", 0.0),
    ("kappa2", -1.0),
    ("omega_tilde", math.inf),
    ("L", 0.0),
    ("theta0", -0.1),
    ("theta", math.nan),
    ("F", complex(math.inf, 0.0)),
])
def test_params_validation(field, value):
    with pytest.raises(ValueError, match=field.rstrip("0")[:5]):
        unit_chain(**{field: value})


# ---------------------------------------------------------------------------
# regime enforcement


def test_regime_ratios_reported():
    p = unit_chain()
    ratios = p.regime_ratios()
    assert ratios["theta0/kappa2"] == pytest.approx(0.0125)
    assert ratios["|theta|/kappa2"] == pytest.approx(5e-4)


def test_good_regime_is_silent():
    p = unit_chain()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean_photocurrent(1.0, 1.0, p)


def test_bad_regime_warns_then_raises():
    """theta0/kappa2 = 0.2 is outside the trusted window; an error filter
    on ``RegimeWarning`` (what ``sim --strict`` sets) makes it raise."""
    bad = unit_chain(theta0=8.0)
    with pytest.warns(RegimeWarning, match="theta0/kappa2"):
        mean_photocurrent(1.0, 1.0, bad)
    with pytest.warns(RegimeWarning, match="theta0/kappa2"):
        integrate_mean_qsde(bad, 1.0, (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeWarning)
        with pytest.raises(RegimeWarning, match="outside the adiabatic-elimination"):
            mean_photocurrent(1.0, 1.0, bad)
        with pytest.raises(RegimeWarning):
            integrate_mean_qsde(bad, 1.0, (0.0, 1.0))


def test_full_model_is_exempt_from_regime_check():
    # The two-mode integrator exists to probe elimination breakdown, so it
    # must run on parameters the eliminated model would reject.
    bad = unit_chain(theta0=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = full_two_mode_mean_dynamics([(bad, 1.0)], (0.0, 2.0))
        adiabatic_elimination_error([bad], 1.0)
    assert trace.t[-1] == 2.0


# ---------------------------------------------------------------------------
# eliminated model: closed form vs independent integration


def test_mean_amplitude_closed_form_and_broadcast():
    """The library's current is the locked quadrature of the closed-form
    amplitude: one list over t per n_b for two sequences, one list for a
    sequence and a number, and a float for two numbers."""
    p = unit_chain()
    t = np.linspace(0.0, 12.0, 7)
    n_b = [0.0, 1.0, 3.0]
    out = mean_photocurrent(t, n_b, p)
    assert len(out) == 3 and all(isinstance(row, list) and len(row) == 7 for row in out)
    np.testing.assert_allclose(
        out, current_from_amplitude(p, mean_amplitude(p, np.array(n_b)[:, None], t)),
        rtol=1e-14)
    assert out[0] == [0.0] * 7
    assert mean_photocurrent(t, 3.0, p) == out[2]
    assert mean_photocurrent(5.0, n_b, p) == [row[-1] for row in
                                                mean_photocurrent([0.0, 5.0], n_b, p)]
    scalar = mean_photocurrent(5.0, 2.0, p)
    assert isinstance(scalar, float)


def test_mean_photocurrent_saturates_at_gain_times_nb():
    p = unit_chain()
    t_late = 80.0 / p.decay_total
    for n_b in (0.0, 1.0, 2.5):
        assert mean_photocurrent(t_late, n_b, p) == pytest.approx(
            p.gain * n_b, abs=1e-12 * p.gain)
    assert mean_photocurrent(0.0, 5.0, p) == 0.0
    # linear in n_b at every instant
    t = np.linspace(0.0, 8.0, 50)
    np.testing.assert_allclose(mean_photocurrent(t, 3.0, p),
                               3.0 * np.array(mean_photocurrent(t, 1.0, p)), rtol=1e-14)


def test_current_is_locked_quadrature():
    p = unit_chain()  # alpha2 real positive -> plain Im
    a1 = 0.3 + 0.7j
    assert current_from_amplitude(p, a1) == pytest.approx(
        p.current_scale * 0.7, rel=1e-15)
    amp = stationary_mean_amplitude(p, 4.0)
    assert current_from_amplitude(p, amp) == pytest.approx(p.gain * 4.0, rel=1e-13)


def test_ode_reproduces_closed_form():
    """The integrator never sees the closed form, so this is a real check."""
    p = unit_chain()
    n_b = 2.0
    trace = integrate_mean_qsde(p, n_b, (0.0, 15.0), n_samples=200, rtol=1e-12)
    expected = mean_amplitude(p, n_b, trace.t)
    scale = abs(stationary_mean_amplitude(p, n_b))
    assert np.max(np.abs(trace.a1 - expected)) <= 1e-11 * scale
    np.testing.assert_allclose(trace.current,
                               mean_photocurrent(trace.t, n_b, p),
                               atol=1e-11 * p.gain * n_b)


@pytest.mark.parametrize("phi", [0.3, math.pi / 2, 2.0, -1.1])
def test_drive_phase_gauge_invariance(phi):
    """Rotating F rotates the detection quadrature with it: same current."""
    p = unit_chain()
    rotated = unit_chain(F=p.F * cmath.exp(1j * phi))
    t = np.linspace(0.0, 10.0, 31)
    np.testing.assert_allclose(mean_photocurrent(t, 1.5, rotated),
                               mean_photocurrent(t, 1.5, p), rtol=1e-12)
    a_rot = mean_amplitude(rotated, 1.5, t[1:])
    np.testing.assert_allclose(
        current_from_amplitude(rotated, a_rot),
        current_from_amplitude(p, mean_amplitude(p, 1.5, t[1:])), rtol=1e-12)


def test_decoupled_chain_carries_no_signal():
    p = unit_chain(theta0=0.0, theta=0.0)
    assert p.gain == 0.0
    assert mean_photocurrent(np.linspace(0, 10, 5), 3.0, p) == [0.0] * 5
    trace = full_two_mode_mean_dynamics([(p, 3.0)], (0.0, 400.0))
    assert abs(trace.a1[-1, 0]) == 0.0
    assert trace.a2[-1, 0] == pytest.approx(p.alpha2, rel=1e-10)


# ---------------------------------------------------------------------------
# full two-mode model


def test_stationary_point_solves_mean_equations():
    p = unit_chain()
    n_b = 2.0
    a1, a2 = stationary_two_mode(p, n_b)
    g = p.theta0 + p.theta * n_b
    da1 = -1j * g * a2 - 0.5 * p.kappa1 * a1
    da2 = -1j * g * a1 - 1j * p.F - 0.5 * p.kappa2 * a2
    assert abs(da1) <= 1e-13 * abs(p.F)
    assert abs(da2) <= 1e-13 * abs(p.F)


def test_stationary_point_matches_linear_solve():
    p = unit_chain(kappa1=0.7, kappa2=3.0, theta0=0.25, theta=-0.01, F=1.0 + 2.0j)
    for n_b in (0.0, 1.0, 4.0):
        g = p.theta0 + p.theta * n_b
        coeff = np.array([[0.5 * p.kappa1, 1j * g],
                          [1j * g, 0.5 * p.kappa2]])
        rhs = np.array([0.0, -1j * p.F])
        ref = np.linalg.solve(coeff, rhs)
        a1, a2 = stationary_two_mode(p, n_b)
        assert a1 == pytest.approx(ref[0], rel=1e-13)
        assert a2 == pytest.approx(ref[1], rel=1e-13)


def test_full_dynamics_settles_to_fixed_point():
    p = unit_chain()
    n_b = 1.0
    trace = full_two_mode_mean_dynamics([(p, n_b)], (0.0, 120.0), rtol=1e-12)
    a1_inf, a2_inf = stationary_two_mode(p, n_b)
    assert trace.a1[-1, 0] == pytest.approx(a1_inf, rel=1e-9)
    assert trace.a2[-1, 0] == pytest.approx(a2_inf, rel=1e-9)


def test_gain_fixed_under_kappa2_scaling():
    """Scaling kappa2 -> s*kappa2 with theta0 -> sqrt(s)*theta0 and F -> s*F
    keeps Gamma, alpha2 and hence the whole stationary signal unchanged."""
    p = unit_chain()
    for s in (4.0, 25.0):
        q = unit_chain(kappa2=s * p.kappa2, theta0=math.sqrt(s) * p.theta0,
                       F=s * p.F)
        assert q.alpha2 == pytest.approx(p.alpha2, rel=1e-15)
        assert q.Gamma == pytest.approx(p.Gamma, rel=1e-14)
        assert q.gain == pytest.approx(p.gain, rel=1e-14)
        assert mean_photocurrent(3.0, 2.0, q) == pytest.approx(
            mean_photocurrent(3.0, 2.0, p), rel=1e-14)


# ---------------------------------------------------------------------------
# elimination error


def sweep_params(ratio):
    kappa1, kappa2 = 1.0, 2.0
    theta0 = ratio * kappa2
    return ReadoutParams(F=2.5j * kappa2, kappa1=kappa1, kappa2=kappa2,
                         theta0=theta0, theta=-1e-3 * theta0,
                         omega_tilde=2.0, L=1.0, hbar=1.0)


def test_elimination_error_matches_exact_ratio():
    """The algebraic error must agree with the fixed-point formula worked out
    by hand: both stationary signals are exact, so the match is tight."""
    for ratio in (1e-1, 1e-2, 1e-3):
        p = sweep_params(ratio)
        n_b = 1.0
        g = p.theta0 + p.theta * n_b
        kk = p.kappa1 * p.kappa2
        full = -2j * p.kappa2 * p.alpha2 * (g / (kk + 4 * g * g)
                                            - p.theta0 / (kk + 4 * p.theta0**2))
        elim = -2j * p.alpha2 * p.theta * n_b / p.decay_total
        expected = abs(full - elim) / abs(elim)
        got = algebraic_elimination_error(p, n_b)
        assert got == pytest.approx(expected, rel=1e-12)


def test_elimination_error_shrinks_quadratically():
    errors = adiabatic_elimination_error([sweep_params(r) for r in (1e-1, 1e-2, 1e-3)])
    assert errors[1] < 1e-2
    slopes = np.diff(np.log10(errors)) / -1.0  # per decade of ratio
    assert np.all(slopes >= 1.9)


def test_elimination_error_ode_route_agrees():
    p = sweep_params(1e-2)
    algebraic = algebraic_elimination_error(p, 1.0)
    integrated, = adiabatic_elimination_error([p], 1.0)
    assert integrated == pytest.approx(algebraic, rel=1e-4)


def test_check_elimination_integrates_once(monkeypatch):
    """The decade sweep of ``check_elimination`` is one two-mode solve of
    six columns, and each of its three errors is that of the entry
    integrated alone to 1e-8 of the eliminated signal (the errors are
    relative to it, so the bound is absolute on them)."""
    solves, sweeps = [], []
    solve, error = readout.full_two_mode_mean_dynamics, verify.adiabatic_elimination_error

    def counted(runs, *args, **kwargs):
        solves.append(len(runs))
        return solve(runs, *args, **kwargs)

    def recorded(sweep, *args, **kwargs):
        sweeps.append((sweep, error(sweep, *args, **kwargs)))
        return sweeps[-1][1]

    monkeypatch.setattr(readout, "full_two_mode_mean_dynamics", counted)
    monkeypatch.setattr(verify, "adiabatic_elimination_error", recorded)
    result = verify.check_elimination(RunConfig())
    assert solves == [6] and len(sweeps) == 1
    sweep, errors = sweeps[0]
    assert len(errors) == 3 and result.residual == errors[1]
    alone = [error([p])[0] for p in sweep]
    assert solves == [6, 2, 2, 2]
    np.testing.assert_allclose(errors, alone, rtol=0.0, atol=1e-8)


def test_elimination_error_rejects_empty_signal():
    with pytest.raises(ValueError, match="positive"):
        adiabatic_elimination_error([unit_chain()], 0.0)
    with pytest.raises(ValueError, match="zero"):
        adiabatic_elimination_error([unit_chain(), unit_chain(theta=0.0)], 1.0)


@pytest.mark.parametrize("over", [dict(theta=0.0), dict(F=0.0)], ids=["theta=0", "F=0"])
def test_elimination_error_refuses_a_zero_signal_before_integrating(monkeypatch, over):
    """A zero eliminated signal (no phonon coupling, or no drive) in any
    entry of the sweep is refused without integrating a two-mode run."""
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a run whose signal is zero")

    monkeypatch.setattr(readout, "full_two_mode_mean_dynamics", integrate)
    with pytest.raises(ValueError, match="signal is zero"):
        adiabatic_elimination_error([unit_chain(), unit_chain(**over)], 1.0)


def test_negative_inputs_rejected():
    p = unit_chain()
    with pytest.raises(ValueError, match="nonnegative"):
        mean_photocurrent(1.0, -1.0, p)
    with pytest.raises(ValueError, match="nonnegative"):
        mean_photocurrent(-0.5, 1.0, p)
    # NaN fails every comparison, so it is refused by name, not passed through
    with pytest.raises(ValueError, match="^t must be nonnegative, got nan"):
        mean_photocurrent(math.nan, 1.0, p)
    with pytest.raises(ValueError, match="^n_b must be nonnegative, got nan"):
        mean_photocurrent(1e-9, math.nan, p)
    with pytest.raises(ValueError, match="^t must"):
        mean_photocurrent([0.0, math.nan], 1.0, p)
    with pytest.raises(ValueError, match="^n_b must"):
        mean_photocurrent(1.0, [1.0, math.nan], p)
    with pytest.raises(ValueError, match="^n_b must"):
        integrate_mean_qsde(p, math.nan, (0.0, 1.0))
    # the integrators take one phonon number, never a sequence of them
    with pytest.raises(ValueError, match="^n_b must be one number"):
        integrate_mean_qsde(p, [1.0], (0.0, 1e-6))
    with pytest.raises(ValueError, match="^n_b must be one number"):
        full_two_mode_mean_dynamics([(p, 1.0), (p, (1.0, 2.0))], (0.0, 1e-6))
    with pytest.raises(ValueError, match="t_span"):
        integrate_mean_qsde(p, 1.0, (2.0, 1.0))
    with pytest.raises(ValueError, match="t_span must be finite"):
        integrate_mean_qsde(p, 1.0, (0.0, math.inf))
    with pytest.raises(ValueError, match="t_span"):
        full_two_mode_mean_dynamics([(p, 1.0)], (-1.0, 1.0))
