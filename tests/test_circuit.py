import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from classical_reference import circuit_energy, reference_trajectory
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nemsqnd import circuit, ode
from nemsqnd.circuit import (
    EPS0,
    HBAR,
    ClassicalCircuitConfig,
    PhysicalCircuitParams,
    Trajectory,
    classical_averaging,
    effective_params,
    equilibrium_capacitance,
    estimate_dominant_frequency,
    simulate_classical_circuit,
)
from nemsqnd.cli import main
from nemsqnd.config import DRIVE_PERIOD_CAP, RunConfig, parse_config_text
from nemsqnd.errors import EstimationError


def desk_params() -> PhysicalCircuitParams:
    """The reference operating point used throughout the docs."""
    d, a, nu = 1e-8, 1e-10, 2 * math.pi * 1e9
    c_eq = EPS0 * a / d
    c = c_eq / 10
    ell = 1.0 / ((6e9) ** 2 * c)
    m = HBAR / (d**2 * nu * 1e-6)
    return PhysicalCircuitParams(L1=ell, L2=ell, C1=c, C2=c, d=d, A=a, m=m, nu=nu)


def unit_params(a_over_d: float = 50.0) -> PhysicalCircuitParams:
    return PhysicalCircuitParams(
        L1=1.0, L2=1.0, C1=1.0, C2=1.0, d=1.0, A=a_over_d, m=1.0, nu=1.0,
        eps0=1.0, hbar=1.0,
    )


# ---------------------------------------------------------------------------
# parameter reduction


def test_equilibrium_capacitance_desk_value():
    assert equilibrium_capacitance(desk_params()) == pytest.approx(8.8541878128e-14, rel=1e-12)


def x_rms(p: PhysicalCircuitParams, n_b: float = 0.0) -> float:
    """Root-mean-square mechanical displacement at mean phonon number n_b."""
    if n_b < 0:
        raise ValueError("n_b must be nonnegative")
    return math.sqrt(p.hbar * (n_b + 0.5) / (p.m * p.nu))


def test_x_rms_closed_form():
    p = desk_params()
    expected = math.sqrt(HBAR * 0.5 / (p.m * p.nu))
    assert x_rms(p) == pytest.approx(expected, rel=1e-14)
    assert x_rms(p, n_b=2.0) == pytest.approx(expected * math.sqrt(5.0), rel=1e-14)
    with pytest.raises(ValueError):
        x_rms(p, n_b=-0.5)
    # the reduction reports x_rms^2/d^2 at the phonon number it is given
    for n_b in (0.0, 2.0):
        assert effective_params(p, n_b=n_b).x_rms_sq_over_d_sq == pytest.approx(
            x_rms(p, n_b) ** 2 / p.d**2, rel=1e-14)


def test_effective_params_desk_point():
    eff = effective_params(desk_params())
    # C1 = C_eq/10, so 1/Ctilde = (10 + 1/2)/C_eq
    assert eff.c_tilde1 == pytest.approx(eff.c_eq / 10.5, rel=1e-13)
    assert eff.omega_tilde1 == pytest.approx(6e9 * math.sqrt(1.05), rel=1e-13)
    assert eff.theta0 == pytest.approx(eff.omega_tilde1 / 42.0, rel=1e-13)
    # the desk mass is tuned so the coupling ratio is exactly -1e-6
    assert eff.theta_ratio == pytest.approx(-1e-6, rel=1e-12)
    assert eff.theta < 0
    assert eff.x_rms_sq_over_d_sq == pytest.approx(5e-7, rel=1e-12)
    assert eff.resonance_mismatch == 0.0


def test_matched_capacitors_give_c_eq():
    """C1 = C2 = 2 C_eq collapses the loaded capacitance to C_eq itself."""
    p = desk_params()
    c_eq = equilibrium_capacitance(p)
    q = PhysicalCircuitParams(L1=p.L1, L2=p.L2, C1=2 * c_eq, C2=2 * c_eq,
                              d=p.d, A=p.A, m=p.m, nu=p.nu)
    eff = effective_params(q)
    assert eff.c_tilde1 == pytest.approx(c_eq, rel=1e-13)
    assert eff.c_tilde2 == pytest.approx(c_eq, rel=1e-13)


def test_xrms_correction_flag():
    """Keeping the zero-point factor (1 - x_rms^2/d^2) in the capacitance
    renormalization would shrink the coupling term by 5e-7 at the desk
    point; the reduction drops it by convention."""
    p = desk_params()
    plain = effective_params(p)
    shrink = 1.0 - x_rms(p) ** 2 / p.d**2
    corrected_inv = 1.0 / p.C1 + shrink / (2.0 * plain.c_eq)
    ratio = (corrected_inv - 1.0 / p.C1) / (1.0 / plain.c_tilde1 - 1.0 / p.C1)
    assert ratio == pytest.approx(1.0 - 5e-7, rel=1e-10)
    corrected_omega = math.sqrt(plain.omega1**2 + shrink * plain.omega_eq1**2 / 2.0)
    assert corrected_omega < plain.omega_tilde1
    assert plain.omega_tilde1 == math.sqrt(plain.omega1**2 + plain.omega_eq1**2 / 2.0)


def test_resonance_check():
    p = desk_params()
    effective_params(p, resonance_rtol=1e-9)  # equal circuits: no-op
    q = PhysicalCircuitParams(L1=p.L1, L2=1.02 * p.L2, C1=p.C1, C2=p.C2,
                              d=p.d, A=p.A, m=p.m, nu=p.nu)
    with pytest.raises(ValueError):
        effective_params(q, resonance_rtol=1e-9)
    # without the tolerance the reduction itself still succeeds
    assert effective_params(q).resonance_mismatch > 1e-3


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalCircuitParams(L1=0.0, L2=1, C1=1, C2=1, d=1, A=1, m=1, nu=1)
    with pytest.raises(ValueError):
        PhysicalCircuitParams(L1=1, L2=1, C1=1, C2=1, d=-1, A=1, m=1, nu=1)
    with pytest.raises(ValueError):
        PhysicalCircuitParams(L1=math.inf, L2=1, C1=1, C2=1, d=1, A=1, m=1, nu=1)


# ---------------------------------------------------------------------------
# classical dynamics


def test_uncoupled_limit_frequency():
    """A huge coupling capacitor decouples the circuits: each rings at 1/sqrt(LC)."""
    p = unit_params(a_over_d=1e4)
    run = ClassicalCircuitConfig(params=p, q1=1.0, t_span=(0.0, 200 * 2 * math.pi),
                                 n_samples=4096)
    traj = simulate_classical_circuit(run)
    est = estimate_dominant_frequency(traj.q1, traj.t[1] - traj.t[0])
    assert est == pytest.approx(1.0, rel=1e-4)


def test_energy_conservation_undriven():
    p = unit_params()
    eff = effective_params(p)
    period = 2 * math.pi / eff.omega_tilde1
    run = ClassicalCircuitConfig(params=p, q1=0.7, p2=-0.2,
                                 t_span=(0.0, 100 * period),
                                 n_samples=1024, rtol=1e-12)
    traj = simulate_classical_circuit(run)
    e = circuit_energy(p, traj.q1, traj.p1, traj.q2, traj.p2)
    assert np.abs(e - e[0]).max() / abs(e[0]) < 1e-9


def test_mirror_symmetry():
    """Flipping x -> -x and swapping the circuits mirrors the trajectory.

    Needs a drive voltage and a plate motion with no x -> -x symmetry of
    its own, so it runs on the callable reference integrator.
    """
    p = unit_params(a_over_d=5.0)
    x0 = 0.3

    def drive(t):
        return x0 * math.cos(3.0 * t)

    def drive_neg(t):
        return -x0 * math.cos(3.0 * t)

    v = lambda t: 0.05 * math.sin(1.7 * t)
    span = (0.0, 40.0)
    fwd = reference_trajectory(p, (0.4, 0.0, 0.0, 0.1), span, 512,
                               x_drive=drive, v_ct=v, rtol=1e-11)
    # swap circuits 1<->2, negate charges, flip the plate: same dynamics
    rev = reference_trajectory(p, (0.0, -0.1, -0.4, 0.0), span, 512,
                               x_drive=drive_neg, v_ct=v, rtol=1e-11)
    assert np.allclose(fwd.q1, -rev.q2, atol=1e-9)
    assert np.allclose(fwd.q2, -rev.q1, atol=1e-9)


def test_short_circuit_guard(monkeypatch):
    p = unit_params(a_over_d=5.0)
    with pytest.raises(ValueError, match="short"):
        reference_trajectory(p, (1.0, 0.0, 0.0, 0.0), (0.0, 10.0), 4096,
                             x_drive=lambda t: 1.5 * math.sin(t))

    # the declared drive is refused before anything is integrated
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated past the contact guard")

    monkeypatch.setattr(ode, "solve", no_integration)
    for x0 in (1.5, 1.0, -1.0):
        run = ClassicalCircuitConfig(params=p, x0=x0, q1=1.0, t_span=(0.0, 10.0))
        with pytest.raises(ValueError, match="short"):
            simulate_classical_circuit(run)


def test_drive_period_cap():
    p = unit_params()
    ClassicalCircuitConfig(params=p, t_span=(0.0, DRIVE_PERIOD_CAP * math.pi))
    with pytest.raises(ValueError, match="drive periods"):
        ClassicalCircuitConfig(params=p, t_span=(0.0, 1.01 * DRIVE_PERIOD_CAP * math.pi))
    with pytest.raises(ValueError, match="nu"):
        ClassicalCircuitConfig(params=dataclasses.replace(p, nu=0.0))


@pytest.mark.parametrize("rtol", [math.nan, math.inf, 0.0, -1e-10])
def test_classical_run_refuses_a_bad_rtol(rtol):
    with pytest.raises(ValueError, match="rtol must be finite and positive"):
        ClassicalCircuitConfig(params=unit_params(), rtol=rtol)


@pytest.mark.parametrize("rtol", [1e-300, 5e-324])
def test_classical_run_at_an_rtol_below_the_floor_runs_at_the_floor(rtol):
    """An rtol below 100 machine epsilons gives exactly the run at that
    floor, its absolute tolerance included, and warns of nothing.  An
    absolute tolerance from the unfloored rtol once made the first trial
    step 0.0 (1e-300) or divided by zero (5e-324)."""
    def run(r):
        cfg = ClassicalCircuitConfig(params=unit_params(), x0=0.2, q1=1.0,
                                     t_span=(0.0, 20 * math.pi), n_samples=1024, rtol=r)
        return simulate_classical_circuit(cfg)

    floor = run(100 * sys.float_info.epsilon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = run(rtol)
    for name in ("t", "q1", "p1", "q2", "p2"):
        np.testing.assert_array_equal(getattr(tiny, name), getattr(floor, name))


def test_classical_run_is_frozen():
    run = ClassicalCircuitConfig(params=unit_params())
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.x0 = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.params = dataclasses.replace(unit_params(), nu=2.0)


def _matched_reference(run: ClassicalCircuitConfig, rtol: float) -> Trajectory:
    """The callable reference integrating ``run``'s drive step by step."""
    p = run.params
    c0 = 1.0 / (2.0 * equilibrium_capacitance(p))
    size = np.array([1.0, math.sqrt(p.L1 * (1.0 / p.C1 + c0)),
                     1.0, math.sqrt(p.L2 * (1.0 / p.C2 + c0))])
    y0 = np.array([run.q1, run.p1, run.q2, run.p2])
    return reference_trajectory(
        p, tuple(y0), run.t_span, run.n_samples,
        x_drive=lambda t: run.x0 * math.cos(run.params.nu * t), rtol=rtol,
        atol=1e-2 * rtol * size * np.max(np.abs(y0) / size),
    )


def _worst_component_error(traj: Trajectory, ref: Trajectory) -> float:
    """Largest deviation, each coordinate measured against its own size."""
    return max(
        float(np.max(np.abs(getattr(traj, k) - getattr(ref, k)))
              / np.max(np.abs(getattr(ref, k))))
        for k in ("q1", "p1", "q2", "p2")
    )


def test_whole_period_sample_times():
    """Samples landing exactly on whole drive periods (and repeating the
    same phase many times over) come out as the step-by-step run's."""
    p = unit_params(a_over_d=1.0)
    # at nu = 7.66 some t - floor(t/T) T round below 0, at 9.14 above T
    for nu, (first, last), n_samples in ((7.66, (0, 40), 41),   # every sample at m T
                                         (9.14, (0, 100), 201),  # phases 0 and T/2 only
                                         (7.66, (3, 43), 161)):  # shifted start
        period = math.pi / nu
        t_span = (first * period, last * period)
        run = ClassicalCircuitConfig(params=dataclasses.replace(p, nu=nu), x0=0.5,
                                     q1=1.0, p2=0.3,
                                     t_span=t_span, n_samples=n_samples, rtol=1e-11)
        traj = simulate_classical_circuit(run)
        assert np.array_equal(traj.t, np.linspace(*t_span, n_samples))
        assert _worst_component_error(traj, _matched_reference(run, 1e-12)) < 1e-8


def test_classical_run_memory_is_bounded_by_the_block():
    """Samples are stepped ``SAMPLE_BLOCK`` at a time as 4-vectors; one
    4x4 fundamental matrix per sample would take 32 MB at 2**18 samples."""
    run = parse_config_text("classical_samples = 262144\n").classical()
    tracemalloc.start()
    try:
        traj = simulate_classical_circuit(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.t.size == 2**18 and np.isfinite(traj.q1).all()
    assert peak < 64 * 2**20


def test_classical_averaging_memory_at_the_defaults():
    """The default averaging run (its trajectory, the stage vectors of one
    ``SAMPLE_BLOCK`` and the spectrum) holds at most 2.5 MiB at once
    (traced on a second run, after the lazy imports are loaded)."""
    run = RunConfig().classical()
    classical_averaging(run)
    tracemalloc.start()
    try:
        classical_averaging(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_floquet_powers_match_an_extended_precision_running_product(monkeypatch):
    """At 23,361 drive periods, the longest run of the seeded classical
    benchmark configs, the sqrt(n)-blocked M^m y0 of the run's own
    monodromy M stay within 1e-12 of a ``np.longdouble`` running product,
    each coordinate judged against its own size."""
    cfg = RunConfig(classical_x0_over_d=0.0015101855507796153,
                    classical_nu_factor=31.147952658811658, classical_periods=375)
    calls, blocked = [], circuit.floquet_powers

    def recorded(monodromy, y0, n):
        calls.append((monodromy.copy(), np.array(y0, dtype=float), n))
        return blocked(monodromy, y0, n)

    monkeypatch.setattr(circuit, "floquet_powers", recorded)
    simulate_classical_circuit(cfg.classical())
    (monodromy, y0, n), = calls
    assert n == 23_361
    got = blocked(monodromy, y0, n)
    assert got.shape == (-(-n // math.isqrt(n)) * math.isqrt(n), 4)
    ref = np.empty((n, 4), dtype=np.longdouble)
    ref[0] = y0
    m = monodromy.astype(np.longdouble)
    for k in range(1, n):
        ref[k] = m @ ref[k - 1]
    deviation = np.max(np.abs(got[:n] - ref), axis=0) / np.max(np.abs(ref), axis=0)
    assert np.all(deviation <= 1e-12)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(si=st.booleans(), x0_over_d=st.floats(0.0, 0.9, exclude_max=True),
       nu_ratio=st.floats(0.1, 30.0), t0_periods=st.floats(0.0, 3.0),
       y0=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
@example(si=True, x0_over_d=0.0, nu_ratio=1.0, t0_periods=0.0, y0=[1.0, 0.0, 0.0, 0.0])
def test_floquet_matches_step_by_step_reference(si, x0_over_d, nu_ratio, t0_periods, y0):
    """The Floquet path agrees with the callable reference on short spans
    (below nu/omega = 1/8 the span is shorter than one drive period),
    each coordinate judged against its own size.  On the SI circuit the
    charges (~1e-14 C) and momenta (~1e-10 Wb) differ by four orders, so
    an error in the charges would hide under a whole-state norm."""
    assume(max(map(abs, y0)) > 0.1)
    p = desk_params() if si else unit_params(a_over_d=5.0)
    eff = effective_params(p)
    circuit_period = 2 * math.pi / eff.omega_tilde1
    scale = (p.C1, p.C1 * math.sqrt(p.L1 / eff.c_tilde1))
    run = ClassicalCircuitConfig(
        params=dataclasses.replace(p, nu=nu_ratio * eff.omega_tilde1), x0=x0_over_d * p.d,
        q1=y0[0] * scale[0], p1=y0[1] * scale[1], q2=y0[2] * scale[0], p2=y0[3] * scale[1],
        t_span=(t0_periods * circuit_period, (t0_periods + 4) * circuit_period),
        n_samples=257,
    )
    traj = simulate_classical_circuit(run)
    assert _worst_component_error(traj, _matched_reference(run, 1e-12)) < 1e-9


def test_averaging_beyond_leading_order():
    """Fast plate motion renormalizes the coupling by <x^2>/2, visibly.

    With C_eq equal to the resonator C and a swing of half the gap, the
    symmetric-mode frequency of the time-averaged circuit is
    sqrt(2 - x0^2/2) = 1.3693, clearly separated from the sqrt(2) the
    frozen (x = 0) circuit would give.  The simulated spectrum must land
    on the averaged value, not the frozen one.
    """
    p = unit_params(a_over_d=1.0)
    x0 = 0.5
    omega_avg = math.sqrt(2.0 - x0**2 / 2.0)
    omega_frozen = math.sqrt(2.0)
    run = ClassicalCircuitConfig(
        params=dataclasses.replace(p, nu=25.0 * omega_avg),
        x0=x0,
        q1=1.0, q2=1.0,
        t_span=(0.0, 250 * 2 * math.pi / omega_avg),
        n_samples=8192, rtol=1e-10,
    )
    traj = simulate_classical_circuit(run)
    est = estimate_dominant_frequency(traj.q1, traj.t[1] - traj.t[0])
    assert abs(est - omega_avg) / omega_avg < 1e-2
    assert abs(est - omega_frozen) / omega_frozen > 2e-2


def test_trajectory_csv(tmp_path):
    text = "classical_periods = 20\nclassical_samples = 1024\n"
    conf = tmp_path / "short.conf"
    conf.write_text(text)
    assert main(["classical", "--config", str(conf), "--out", str(tmp_path)]) == 0
    traj = simulate_classical_circuit(parse_config_text(text).classical())
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,Q1,P1,Q2,P2"
    assert len(lines) == 1025
    got = np.array([float(v) for v in lines[3].split(",")])
    assert got[1] == pytest.approx(traj.q1[2], rel=1e-12)


# ---------------------------------------------------------------------------
# spectral peak estimation


def test_peak_estimator_synthetic():
    fs = 50.0
    n = 4096
    t = np.arange(n) / fs
    omega = 2 * math.pi * 3.7  # deliberately off-bin
    series = 2.0 * np.cos(omega * t + 0.3) + 0.05
    est = estimate_dominant_frequency(series, 1.0 / fs)
    assert est == pytest.approx(omega, rel=1e-4)


def test_peak_estimator_two_tones_picks_stronger():
    fs = 40.0
    t = np.arange(8192) / fs
    series = np.cos(2 * math.pi * 2.0 * t) + 0.2 * np.cos(2 * math.pi * 7.3 * t)
    est = estimate_dominant_frequency(series, 1.0 / fs)
    assert est == pytest.approx(2 * math.pi * 2.0, rel=1e-3)


def test_peak_estimator_guards():
    with pytest.raises(EstimationError):
        estimate_dominant_frequency(np.zeros(2048), 0.1)  # no signal
    with pytest.raises(EstimationError):
        estimate_dominant_frequency(np.ones(100), 0.1)  # too short
