"""Layer decomposition, linear entropies, and the brute-force cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import annihilation, embed, evolve, number, partial_trace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nemsqnd.config import RunConfig
from nemsqnd.entanglement import (
    ORACLE_BYTE_BUDGET,
    ORACLE_DIM_CAP,
    TERM_CAP,
    CoherentTriple,
    branch_amplitudes,
    brute_force_entropies,
    cat_state_check,
    conditioned_state,
    entropy_series,
    exchange_evolve,
    initial_product_state,
    linear_entropies,
    oracle_dims,
    oracle_space,
    required_terms,
    separability_check_12,
    transmittance,
)
from nemsqnd.errors import ConditioningError, TruncationError
from nemsqnd.fock import DensityMatrix, StateVector, TruncatedSpace, coherent_vector
from nemsqnd.verify import check_cat_fidelity, check_separability

amplitudes = st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                allow_infinity=False)


def triple(alpha=2.0, beta=2.0, gamma=2.0):
    return CoherentTriple(alpha, beta, gamma)


# ---------------------------------------------------------------------------
# branch amplitudes and transmittance


def test_branch_amplitudes_special_angles():
    beta, gamma = 1.3 - 0.4j, 0.7 + 0.2j
    # layer 0 never moves
    assert branch_amplitudes(0, 2.31, beta, gamma) == (beta, gamma)
    # half period: odd layers flip, even layers return
    b1, g1 = branch_amplitudes(1, math.pi, beta, gamma)
    assert b1 == pytest.approx(-beta, abs=1e-12)
    assert g1 == pytest.approx(-gamma, abs=1e-12)
    b2, g2 = branch_amplitudes(2, math.pi, beta, gamma)
    assert b2 == pytest.approx(beta, abs=1e-12)
    assert g2 == pytest.approx(gamma, abs=1e-12)
    # quarter period on layer 1: swap with a -i
    b, g = branch_amplitudes(1, math.pi / 2, beta, gamma)
    assert b == pytest.approx(-1j * gamma, abs=1e-12)
    assert g == pytest.approx(-1j * beta, abs=1e-12)


def test_branch_amplitudes_vectorized():
    n = np.arange(6)
    b, g = branch_amplitudes(n, 0.37, 1.0, 2.0)
    assert b.shape == g.shape == (6,)
    for k in range(6):
        bk, gk = branch_amplitudes(k, 0.37, 1.0, 2.0)
        assert b[k] == bk and g[k] == gk
    with pytest.raises(ValueError, match="nonnegative"):
        branch_amplitudes(-1, 0.1, 1.0, 1.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(beta=amplitudes, gamma=amplitudes,
       n=st.integers(0, 40), theta_t=st.floats(-8.0, 8.0))
def test_branch_mixing_is_unitary(beta, gamma, n, theta_t):
    b, g = branch_amplitudes(n, theta_t, beta, gamma)
    before = abs(beta) ** 2 + abs(gamma) ** 2
    after = abs(b) ** 2 + abs(g) ** 2
    assert math.isclose(after, before, rel_tol=1e-12, abs_tol=1e-12)


def test_transmittance_values():
    assert transmittance(0.3, -0.01, 2.0, 0.0) == 0.0
    # full swap when the accumulated phase hits pi/2
    theta0, theta, n_b = 0.4, -0.02, 3.0
    t_swap = (math.pi / 2) / (theta0 + theta * n_b)
    assert transmittance(theta0, theta, n_b, t_swap) == pytest.approx(1.0, abs=1e-12)
    # without the phonon-dependent part the answer cannot depend on n_b
    for n_b in (0.0, 1.0, 7.5):
        assert transmittance(0.25, 0.0, n_b, 1.7) == pytest.approx(
            math.sin(0.25 * 1.7) ** 2, rel=1e-15)
    t = np.linspace(0.0, 5.0, 11)
    out = transmittance(0.3, -0.01, 1.0, t)
    assert out.shape == t.shape
    assert np.all((out >= 0) & (out <= 1))
    with pytest.raises(ValueError):
        transmittance(0.3, -0.01, 1.0, -1.0)


# ---------------------------------------------------------------------------
# conditioned state


def test_triple_validation():
    with pytest.raises(ValueError, match="cap"):
        CoherentTriple(6.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        CoherentTriple(math.nan, 1.0, 1.0)


def test_conditioned_state_vacuum_mechanics():
    state = conditioned_state(triple(alpha=0.0), 1.3)
    assert state.n_terms == 2  # the floor: one level is no ladder at all
    assert np.abs(state.c_n).tolist() == [1.0, 0.0]
    assert state.tail == 0.0
    assert state.weight() == pytest.approx(1.0, rel=1e-15)
    assert state.beta_n[0] == 2.0 + 0j  # layer 0 is stationary


def test_conditioned_state_tail_and_weight():
    state = conditioned_state(triple(), 0.7)
    assert state.tail <= 1e-12
    assert state.weight() == pytest.approx(1.0 - state.tail, abs=1e-15)
    # each branch keeps the combined resonator energy
    np.testing.assert_allclose(state.branch_energy(), 8.0, rtol=1e-12)


def test_term_count_is_a_floor():
    auto = conditioned_state(triple(), 0.5)
    floored = conditioned_state(triple(), 0.5, n_terms=5)
    assert floored.n_terms == auto.n_terms  # too-small request gets raised
    wide = conditioned_state(triple(), 0.5, n_terms=60)
    assert wide.n_terms == 60


def test_term_caps():
    assert required_terms(0.0) == 2
    with pytest.raises(TruncationError, match=f"more than {TERM_CAP} layers"):
        required_terms(30.0)
    with pytest.raises(TruncationError, match="cap"):
        conditioned_state(triple(), 0.5, n_terms=TERM_CAP + 1)


def test_conditioned_state_arrays_are_readonly():
    state = conditioned_state(triple(), 0.5)
    with pytest.raises(ValueError):
        state.c_n[0] = 0.0


# ---------------------------------------------------------------------------
# linear entropies: limits, symmetries, bounds


def test_entropies_vanish_without_mixing():
    rep = linear_entropies(conditioned_state(triple(), 0.0))
    # the only residue is the squared truncation deficit, covered by the bound
    for e in rep.as_tuple():
        assert 0.0 <= e <= rep.tail_bound + 1e-15
    assert rep.tail_bound <= 2.1e-12


def test_entropies_vanish_for_empty_resonators():
    rep = linear_entropies(conditioned_state(triple(beta=0.0, gamma=0.0), 1.3))
    for e in rep.as_tuple():
        assert e <= 3e-12


def test_symmetric_input_gives_equal_resonator_entropies():
    rep = linear_entropies(conditioned_state(triple(), 0.7))
    assert rep.e_1_n2 == rep.e_2_n1  # identical formulas, bitwise equal
    # regression anchor for the standard operating point
    assert rep.e_n_12 == pytest.approx(0.8479975833067072, rel=1e-12)
    assert rep.e_1_n2 == pytest.approx(0.812155815645554, rel=1e-12)


def test_swapping_resonators_swaps_their_entropies():
    a = linear_entropies(conditioned_state(CoherentTriple(1.5, 2.0, 0.8j), 0.9))
    b = linear_entropies(conditioned_state(CoherentTriple(1.5, 0.8j, 2.0), 0.9))
    assert a.e_1_n2 == b.e_2_n1
    assert a.e_2_n1 == b.e_1_n2
    assert a.e_n_12 == b.e_n_12


@pytest.mark.parametrize("theta_t", [0.3, 1.1, math.pi - 0.2])
def test_entropy_periodicity(theta_t):
    t = triple()
    base = linear_entropies(conditioned_state(t, theta_t)).as_tuple()
    shifted = linear_entropies(conditioned_state(t, theta_t + 2 * math.pi)).as_tuple()
    np.testing.assert_allclose(shifted, base, atol=1e-10)


def test_entropy_phase_invariance():
    """A global phase on any input amplitude is unobservable."""
    base = linear_entropies(conditioned_state(CoherentTriple(1.7, 1.2, 0.9), 0.8))
    rot = CoherentTriple(1.7 * np.exp(0.4j), 1.2 * np.exp(1.1j),
                         0.9 * np.exp(1.1j))
    moved = linear_entropies(conditioned_state(rot, 0.8))
    np.testing.assert_allclose(moved.as_tuple(), base.as_tuple(), atol=1e-13)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(alpha=amplitudes, beta=amplitudes, gamma=amplitudes,
       theta_t=st.floats(0.0, 7.0))
def test_entropy_bounds(alpha, beta, gamma, theta_t):
    state = conditioned_state(CoherentTriple(alpha, beta, gamma), theta_t)
    rep = linear_entropies(state)
    p = np.abs(state.c_n) ** 2
    purity_floor = float(np.sum(p * p))
    for e in rep.as_tuple():
        assert 0.0 <= e <= 1.0
    # the pair cannot know less about the mechanics than either resonator alone
    assert rep.e_n_12 >= max(rep.e_1_n2, rep.e_2_n1) - 1e-15
    assert rep.e_n_12 <= 1.0 - purity_floor + 1e-12


def test_entropy_series_matches_pointwise():
    t = triple()
    grid = np.linspace(0.0, 2.0, 7)
    e_n12, e_1n2, e_2n1, bound = entropy_series(t, grid)
    for i, tt in enumerate(grid):
        rep = linear_entropies(conditioned_state(t, float(tt)))
        assert (e_n12[i], e_1n2[i], e_2n1[i]) == rep.as_tuple()
        assert bound >= rep.tail_bound


# ---------------------------------------------------------------------------
# brute-force oracle


def _oracle_discrepancies(t, theta_t, dims, theta0_t=0.0):
    """|analytic - brute force| for E_N|12, E_1|N2 and E_2|N1; the analytic
    side is always the theta0-free branch solution."""
    brute = brute_force_entropies(t, theta_t, dims, theta0_t)
    analytic = linear_entropies(conditioned_state(t, theta_t)).as_tuple()
    return [abs(a - b) for a, b in zip(analytic, brute)]


def test_analytic_entropies_match_exact_evolution():
    assert max(_oracle_discrepancies(CoherentTriple(1.3, 1.0, 1.1), 0.9,
                                     dims=(24, 24, 24))) <= 1e-8


def test_uniform_rotation_cannot_entangle_mechanics():
    """Sector-uniform mixing moves photons between the resonators but leaves
    the mechanics' entanglement with the pair untouched."""
    t = CoherentTriple(1.0, 1.0, 0.5)
    assert max(_oracle_discrepancies(t, 0.8, dims=(20, 16, 16))) <= 1e-8
    d_n12, d_1n2, d_2n1 = _oracle_discrepancies(t, 0.8, dims=(20, 16, 16), theta0_t=0.6)
    assert d_n12 <= 1e-8
    assert d_1n2 > 1e-3 and d_2n1 > 1e-3


mixing_phases = st.floats(-4.0, 4.0, allow_nan=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(2, 6),
       mixing_phases, mixing_phases, st.integers(0, 2**32 - 1))
@example(4, 5, 5, 0.7, 0.3, 7)
def test_exchange_evolve_agrees_with_dense_propagator(d_n, d_1, d_2, theta_t,
                                                      theta0_t, seed):
    """The per-sector propagator equals dense evolution under the full
    generator theta0_t K + theta_t N K, on unequal cutoffs too."""
    space = oracle_space((d_n, d_1, d_2))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi = StateVector(space, raw / np.linalg.norm(raw))

    a1 = embed(annihilation(d_1), "TLR1", space)
    a2 = embed(annihilation(d_2), "TLR2", space)
    k = a1.dagger() @ a2 + a2.dagger() @ a1
    n_op = embed(number(d_n), "N", space)
    h = k * theta0_t + (n_op @ k) * theta_t

    fast = exchange_evolve(psi, theta_t, theta0_t)
    dense = evolve(h, 1.0, psi)
    np.testing.assert_allclose(fast.vector, dense.vector, atol=1e-12)


def test_exchange_evolve_norm_at_large_phase():
    space = oracle_space((12, 14, 14))
    psi = initial_product_state(CoherentTriple(0.6, 0.7, 0.5), space)
    out = exchange_evolve(psi, 1e3)
    assert abs(np.linalg.norm(out.vector) - 1.0) <= 1e-10


def test_exchange_evolve_rejects_foreign_spaces():
    odd = TruncatedSpace((4, 5, 5), labels=("a", "b", "c"))
    psi = StateVector(odd, np.eye(100)[0])
    with pytest.raises(ValueError, match="expects modes"):
        exchange_evolve(psi, 0.5)


def test_initial_product_state_polices_tails():
    with pytest.raises(TruncationError, match="mode N"):
        initial_product_state(triple(2.0, 0.5, 0.5), oracle_space((10, 8, 8)))
    try:
        initial_product_state(triple(0.5, 2.0, 0.5), oracle_space((10, 8, 8)))
    except TruncationError as err:
        assert "mode TLR1" in str(err)
        assert err.required_dim > 8
    else:
        pytest.fail("undersized resonator cutoff was accepted")


def test_oracle_space_allocates_for_pair_matrices():
    space = oracle_space(oracle_dims(triple(), 30))
    assert space.labels == ("N", "TLR1", "TLR2")
    assert space.density_cap >= (42 * 42) ** 2
    # large enough for a pair matrix at the default cutoffs without
    # tripping the cap, up to the largest configurable floor
    space.subspace(("TLR1", "TLR2")).check_matrix_alloc()
    top = ORACLE_DIM_CAP
    oracle_space((top,) * 3).subspace(("TLR1", "TLR2")).check_matrix_alloc()


def test_oracle_space_refuses_oversized_pairs():
    """The guard is a fixed budget that the requested cutoffs cannot raise."""
    assert oracle_space((2, 76, 76)).density_cap == ORACLE_BYTE_BUDGET // 16
    tracemalloc.start()
    try:
        for dims in ((400, 406, 406), (2, 77, 77)):
            with pytest.raises(ValueError, match="oracle budget"):
                oracle_space(dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# structure at special phases


def test_resonator_pair_is_separable():
    rep = separability_check_12(CoherentTriple(1.0, 1.0, 1.0), 0.9,
                                dims=(16, 20, 20))
    assert rep.max_abs_deviation <= 1e-10
    assert rep.mixture_trace == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("theta_t", [0.9, math.pi / 2])
def test_gram_residual_matches_the_dense_pair_state(theta_t):
    """The signed Gram product gives max|rho_12 - mixture| of the dense
    route: rho_12 by a full partial trace, the mixture summed branch by
    branch, at small unequal cutoffs."""
    t = CoherentTriple(0.3, 0.35j, 0.25 - 0.1j)
    dims = (8, 12, 13)  # residual ~1e-11, so a slip in the mixture weights shows
    rep = separability_check_12(t, theta_t, dims)

    space = oracle_space(dims)
    psi = exchange_evolve(initial_product_state(t, space), theta_t).vector
    rho_12 = partial_trace(DensityMatrix(space, np.outer(psi, psi.conj())),
                           ("TLR1", "TLR2")).matrix
    state = conditioned_state(t, theta_t)
    mixture = np.zeros_like(rho_12)
    for c_n, b_n, g_n in zip(state.c_n, state.beta_n, state.gamma_n):
        v = np.kron(coherent_vector(b_n, dims[1])[0], coherent_vector(g_n, dims[2])[0])
        mixture += abs(c_n) ** 2 * np.outer(v, v.conj())
    assert rep.dims == dims
    assert rep.max_abs_deviation == pytest.approx(
        float(np.max(np.abs(rho_12 - mixture))), abs=1e-14)
    assert rep.mixture_trace == pytest.approx(float(np.trace(mixture).real), abs=1e-14)


def test_separability_check_allocates_no_dense_pair_state():
    """At the default pair cutoffs (30, 42, 42) the check holds one D x D
    difference matrix (D = 42^2) and its modulus, not rho_12, the mixture
    and a spectrum of rho_12 besides."""
    dims = oracle_dims(triple(), 30)
    assert dims == (30, 42, 42)
    pair = dims[1] * dims[2]
    tracemalloc.start()
    try:
        rep = separability_check_12(triple(), math.pi / 2, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_abs_deviation <= 1e-8
    assert peak < 2 * pair**2 * 16


def test_half_period_cat_structure():
    """Everything in the report follows from the two-branch decomposition.

    With moderate resonator amplitudes the projection products are not yet
    orthogonal (overlap o = exp(-2(|beta|^2+|gamma|^2))), so each branch
    catches an o^2 admixture of the other cat — the exact fidelities and
    weights below include that cross-talk rather than rounding it to 1.
    """
    report = cat_state_check(CoherentTriple(1.0, 1.2, 1.2), dims=(16, 22, 22))
    o = math.exp(-2.0 * 2.88)  # <beta|-beta><gamma|-gamma>
    n_plus2 = 0.5 * (1.0 + math.exp(-2.0))
    n_minus2 = 0.5 * (1.0 - math.exp(-2.0))
    assert report.even_fidelity == pytest.approx(
        n_plus2 / (n_plus2 + n_minus2 * o**2), rel=1e-8)
    assert report.odd_fidelity == pytest.approx(
        n_minus2 / (n_minus2 + n_plus2 * o**2), rel=1e-8)
    assert report.even_weight == pytest.approx(
        n_plus2 + n_minus2 * o**2, rel=1e-8)
    assert report.odd_weight == pytest.approx(
        n_minus2 + n_plus2 * o**2, rel=1e-8)
    # the reassembled two-branch state is exactly normalized (parity kills
    # the cross term) and reproduces the evolved state
    assert report.reassembled_norm == pytest.approx(1.0, abs=1e-10)
    assert report.reassembly_fidelity == pytest.approx(1.0, abs=1e-10)


def test_cat_cross_talk_dies_at_large_amplitude():
    # at the standard operating point the branch overlap is e^{-16}: gone
    report = cat_state_check(triple(), oracle_dims(triple(), 30))
    assert report.dims[0] >= 30
    assert report.even_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.odd_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.reassembly_fidelity == pytest.approx(1.0, abs=1e-10)


def _polar(modulus, phase):
    return modulus * complex(math.cos(phase), math.sin(phase))


moduli = st.floats(0.0, 2.0)
phases = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(moduli, phases, moduli, phases, moduli, phases)
@example(1.5, 0.0, 1.5, 0.0, 1.5, 0.0)
@example(1.0, 0.0, 1.2, 0.0, 1.1, 0.0)
def test_cat_fidelities_match_the_overlapping_branch_forms(ra, pa, rb, pb, rg, pg):
    """Wherever the overlap guard admits the resonator amplitudes, the
    conditional-state fidelities are the even/odd cat weights diluted by
    the squared branch overlap, not 1."""
    ov = math.exp(-2.0 * (rb**2 + rg**2))  # <beta|-beta><gamma|-gamma>
    assume(ov <= 1e-2)
    t = CoherentTriple(_polar(ra, pa), _polar(rb, pb), _polar(rg, pg))
    report = cat_state_check(t, oracle_dims(t, 30))
    even = 0.5 * (1.0 + math.exp(-2.0 * ra**2))
    odd = 0.5 * (1.0 - math.exp(-2.0 * ra**2))
    assert abs(report.even_fidelity - even / (even + odd * ov**2)) <= 1e-12
    if report.odd_fidelity is not None:
        assert abs(report.odd_fidelity - odd / (odd + even * ov**2)) <= 1e-12


def test_cat_with_vacuum_mechanics_has_no_odd_branch():
    report = cat_state_check(CoherentTriple(0.0, 1.2, 1.2), dims=(4, 18, 18))
    assert report.odd_fidelity is None
    assert report.even_fidelity == pytest.approx(1.0, abs=1e-10)
    assert report.even_weight == pytest.approx(1.0, abs=1e-10)
    assert report.reassembly_fidelity == pytest.approx(1.0, abs=1e-10)


def test_cat_check_rejects_degenerate_projections():
    with pytest.raises(ConditioningError, match="overlap"):
        cat_state_check(CoherentTriple(1.0, 0.05, 0.0), (8, 8, 8))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.floats(0.0, 3.0), phases, st.floats(0.0, 2.5), phases,
       st.floats(0.0, 2.5), phases)
def test_oracle_checks_pass_with_derived_cutoffs(ra, pa, rb, pb, rg, pg):
    """With cutoffs from ``oracle_dims`` the cat and pair-separability checks
    of ``sim verify`` pass for every |alpha| <= 3 and every resonator pair
    the overlap guard admits, at the default tolerances."""
    assume(math.exp(-2.0 * (rb**2 + rg**2)) <= 1e-2)
    amplitudes = {}
    for name, z in (("alpha", _polar(ra, pa)), ("beta", _polar(rb, pb)),
                    ("gamma", _polar(rg, pg))):
        amplitudes[f"{name}_re"], amplitudes[f"{name}_im"] = z.real, z.imag
    cfg = RunConfig(**amplitudes)
    for check in (check_cat_fidelity(cfg), check_separability(cfg)):
        assert check.passed, (check.name, check.residual, check.detail)
