"""End-to-end acceptance gates.

Each test pins one headline claim of the package at its contracted
tolerance and wall-clock budget: exact stationary current ratios, the
quadratic validity window of the eliminated readout model, the analytic
entropy curves and their brute-force oracle, cat-state generation with
pair separability, the classical averaging that justifies the effective
circuit, and a randomized battery over every algebraic invariant.
"""

import math
import time

import numpy as np
import pytest
from classical_reference import circuit_energy
from dense_reference import Operator, annihilation, creation, evolve

from nemsqnd.circuit import (
    ClassicalCircuitConfig,
    classical_averaging,
    effective_params,
    simulate_classical_circuit,
)
from nemsqnd.config import load_config, toy_weak_coupling_circuit
from nemsqnd.entanglement import (
    CoherentTriple,
    branch_amplitudes,
    brute_force_entropies,
    cat_state_check,
    conditioned_state,
    linear_entropies,
    oracle_dims,
    separability_check_12,
)
from nemsqnd.fock import (
    StateVector,
    linear_entropy,
    reduced_density,
)
from nemsqnd.readout import (
    ReadoutParams,
    adiabatic_elimination_error,
    current_from_amplitude,
    integrate_mean_qsde,
    mean_photocurrent,
)


def test_current_saturation_with_exact_ratios():
    """Normalized transients for one, two and three phonons saturate in
    exact 1:2:3 proportion, and the independent integration of the mean
    equation stays within 1e-8 of the closed form at 200 samples."""
    t_start = time.perf_counter()
    ro = load_config(None).readout()

    # the long-time limit of the closed-form <a1>(t) of nemsqnd.readout
    stationary = {
        n: current_from_amplitude(ro, -2j * ro.alpha2 * ro.theta * n / ro.decay_total)
        for n in (1.0, 2.0, 3.0)
    }
    assert abs(stationary[2.0] / stationary[1.0] - 2.0) <= 1e-12
    assert abs(stationary[3.0] / stationary[1.0] - 3.0) <= 1e-12

    # saturation: by tau = 10 the transient sits on its plateau
    t_grid = np.linspace(0.0, 20.0 / ro.decay_total, 200)
    for n in (1.0, 2.0, 3.0):
        analytic = mean_photocurrent(t_grid, n, ro)
        assert analytic[-1] == pytest.approx(stationary[n], rel=1e-8)
        trace = integrate_mean_qsde(ro, n, (0.0, float(t_grid[-1])), n_samples=200)
        residual = np.abs(np.subtract(trace.current, mean_photocurrent(trace.t, n, ro)))
        assert residual.max() <= 1e-8 * abs(stationary[n])

    assert time.perf_counter() - t_start < 1.0


def test_adiabatic_elimination_validity_window():
    """The eliminated stationary signal is wrong by less than 1% two
    decades inside the regime boundary, and the error falls off at least
    quadratically in theta0/kappa2.  The full-model side comes from long
    integrations of the coupled mean equations, not from the same algebra."""
    t_start = time.perf_counter()
    kappa1, kappa2 = 1.0, 2.0
    sweep = [ReadoutParams(F=2.5j * kappa2, kappa1=kappa1, kappa2=kappa2,
                           theta0=theta0, theta=-1e-3 * theta0,
                           omega_tilde=2.0, L=1.0, hbar=1.0)
             for theta0 in (ratio * kappa2 for ratio in (1e-1, 1e-2, 1e-3))]
    errors = adiabatic_elimination_error(sweep, n_b=1.0)

    assert errors[1] < 1e-2
    slopes = -np.diff(np.log10(errors))  # per decade of the ratio
    assert np.all(slopes >= 1.9)
    assert time.perf_counter() - t_start < 10.0


def test_entropy_curves_at_the_operating_point():
    """alpha = beta = gamma = 2 over a full period with the automatic
    26-term sums."""
    t_start = time.perf_counter()
    triple = CoherentTriple(2.0, 2.0, 2.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 201)

    assert conditioned_state(triple, 0.0).n_terms == 26
    reports = [linear_entropies(triple, [float(tt)]) for tt in grid]
    for e_n_12, e_1_n2, e_2_n1, tail_bound in reports:
        assert abs(e_1_n2[0] - e_2_n1[0]) <= 1e-12
        assert tail_bound <= 1e-12
    # product state at both ends of the period
    for idx in (0, -1):
        for e in reports[idx][:3]:
            assert e[0] <= 1e-10
    # and genuine entanglement in between
    assert max(rep[0][0] for rep in reports) > 0.5
    assert time.perf_counter() - t_start < 5.0


ORACLE_TRIPLES = (
    (2.0, 2.0, 2.0),
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0),
    (1.0, 2.0, 0.5 + 0.5j),
    (1.5 + 0.5j, 1.0 - 1.0j, 2.0),
    (0.5, 1.8, 1.2j),
)

ORACLE_PHASES = (0.3, math.pi / 2, 1.9, math.pi)


def test_analytic_entropies_match_brute_force_grid():
    """24 points, amplitudes at or below 2, exact truncated evolution on a
    30x30x30 space: every discrepancy below 1e-6."""
    t_start = time.perf_counter()
    worst = 0.0
    for alpha, beta, gamma in ORACLE_TRIPLES:
        triple = CoherentTriple(alpha, beta, gamma)
        for phase in ORACLE_PHASES:
            brute = brute_force_entropies(triple, phase, dims=(30, 30, 30))
            *analytic, _ = linear_entropies(triple, [phase])
            disc = max(abs(a[0] - b) for a, b in zip(analytic, brute))
            worst = max(worst, disc)
            assert disc <= 1e-6, (
                f"oracle mismatch {disc:.3e} at "
                f"({alpha}, {beta}, {gamma}), phase {phase}"
            )
    assert worst > 0.0  # the comparison actually compared something
    assert time.perf_counter() - t_start < 300.0


def test_cat_generation_and_pair_separability():
    """Half-period structure at the operating point: even/odd cat
    fidelities and the reassembled state at 1e-10, the reduced resonator
    pair entrywise separable at 1e-8 — both at the half period and at the
    quarter period."""
    t_start = time.perf_counter()
    triple = CoherentTriple(2.0, 2.0, 2.0)

    dims = oracle_dims(triple)
    report = cat_state_check(triple, dims)
    assert report.even_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.odd_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.reassembled_norm == pytest.approx(1.0, abs=1e-10)
    assert report.reassembly_fidelity == pytest.approx(1.0, abs=1e-10)

    for phase in (math.pi, math.pi / 2):
        sep = separability_check_12(triple, phase, dims)
        assert sep.max_abs_deviation <= 1e-8
        assert sep.mixture_trace == pytest.approx(1.0, abs=1e-8)
    assert time.perf_counter() - t_start < 60.0


def test_classical_averaging_and_energy_conservation():
    """A fast plate drive at amplitude x0^2/(2d^2) = 1e-6 leaves the charge
    spectrum peaked within 2% of the averaged effective frequency; with the
    plate clamped the integrator conserves energy to 1e-8 over 1e3 periods."""
    t_start = time.perf_counter()
    cfg = load_config(None)
    assert cfg.classical_x0_over_d**2 / 2.0 == pytest.approx(1e-6, rel=1e-12)
    assert cfg.classical_nu_factor >= 10.0

    assert classical_averaging(cfg.classical()).rel_error <= 2e-2

    params = toy_weak_coupling_circuit(nu=1.0)
    omega = effective_params(params).omega_tilde1
    periods = 1e3 * 2.0 * math.pi / omega
    run = ClassicalCircuitConfig(
        params=params, q1=1.0, p1=0.0, q2=-0.5, p2=0.25,
        t_span=(0.0, periods), n_samples=4096, rtol=1e-12,
    )
    traj = simulate_classical_circuit(run)
    energy = circuit_energy(params, traj.q1, traj.p1, traj.q2, traj.p2)
    drift = np.max(np.abs(energy - energy[0])) / energy[0]
    assert drift <= 1e-8
    assert time.perf_counter() - t_start < 5.0


def test_randomized_invariant_battery():
    """Every algebraic invariant, hammered with 105 seeded random inputs."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(20260817)

    def rand_amp(scale=2.0):
        return complex(*rng.uniform(-scale / 2, scale / 2, size=2))

    # branch unitarity: 30 inputs
    for _ in range(30):
        beta, gamma = rand_amp(), rand_amp()
        n = int(rng.integers(0, 60))
        theta_t = float(rng.uniform(-8.0, 8.0))
        b, g = branch_amplitudes(n, theta_t, beta, gamma)
        assert abs((abs(b) ** 2 + abs(g) ** 2)
                   - (abs(beta) ** 2 + abs(gamma) ** 2)) <= 1e-12

    # 2pi periodicity of all three entropies: 15 inputs
    for _ in range(15):
        triple = CoherentTriple(rand_amp(), rand_amp(), rand_amp())
        theta_t = float(rng.uniform(0.0, 2.0 * math.pi))
        a = linear_entropies(triple, [theta_t])[:3]
        b = linear_entropies(triple, [theta_t + 2.0 * math.pi])[:3]
        assert max(abs(x[0] - y[0]) for x, y in zip(a, b)) <= 1e-10

    # beta <-> gamma swap symmetry: 15 inputs
    for _ in range(15):
        alpha, beta, gamma = rand_amp(), rand_amp(), rand_amp()
        theta_t = float(rng.uniform(0.0, 7.0))
        fwd = linear_entropies(CoherentTriple(alpha, beta, gamma), [theta_t])
        rev = linear_entropies(CoherentTriple(alpha, gamma, beta), [theta_t])
        assert fwd[0][0] == rev[0][0]
        assert fwd[1][0] == rev[2][0]
        assert fwd[2][0] == rev[1][0]

    # global phase on the mechanical amplitude is unobservable: 15 inputs
    for _ in range(15):
        alpha, beta, gamma = rand_amp(), rand_amp(), rand_amp()
        theta_t = float(rng.uniform(0.0, 7.0))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        base = linear_entropies(CoherentTriple(alpha, beta, gamma), [theta_t])
        spun = linear_entropies(CoherentTriple(alpha * phase, beta, gamma), [theta_t])
        assert max(abs(x[0] - y[0]) for x, y in zip(base[:3], spun[:3])) <= 1e-12
        # entropy bounds come along for free on the same inputs
        state = conditioned_state(CoherentTriple(alpha, beta, gamma), theta_t)
        p = np.abs(state.c_n) ** 2
        assert 0.0 <= base[0][0] <= 1.0 - float(np.sum(p * p)) + 1e-12

    # truncation artifact of [a, a_dag]: 10 random cutoffs
    for _ in range(10):
        dim = int(rng.integers(2, 41))
        a, adag = annihilation(dim), creation(dim)
        comm = (a @ adag - adag @ a).matrix
        expected = np.eye(dim, dtype=complex)
        expected[-1, -1] = 1.0 - dim
        assert np.allclose(comm, expected, rtol=1e-13, atol=0.0)
        off_diag = comm - np.diag(np.diag(comm))
        assert np.array_equal(off_diag, np.zeros_like(comm))

    # unitarity of Hermitian evolution out to |phase| = 1e3: 10 inputs
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = (raw + raw.conj().T) / 2.0
        h = Operator((dim,), herm)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = StateVector(vec / np.linalg.norm(vec))
        t = float(rng.uniform(-1e3, 1e3))
        out = evolve(h, t, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    # equal linear entropies of the two reductions of a pure state: 10 inputs
    for _ in range(10):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        vec = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        psi = StateVector(vec / np.linalg.norm(vec))
        e_left = linear_entropy(reduced_density(psi, 0))
        e_right = linear_entropy(reduced_density(psi, 1))
        assert abs(e_left - e_right) <= 1e-10

    assert time.perf_counter() - t_start < 120.0
