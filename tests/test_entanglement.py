"""Layer decomposition, linear entropies, and the brute-force cross-checks."""

import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dense_reference import annihilation, embed, evolve, layer_entropies, number
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ive

import nemsqnd.entanglement
from nemsqnd.cli import ENTROPY_CURVE_SETS
from nemsqnd.config import ALPHA_CAP, RunConfig
from nemsqnd.entanglement import (
    ORACLE_BYTE_BUDGET,
    PAIR_BLOCK,
    SECTOR_CACHE_BYTES,
    SERIES_BLOCK,
    TAIL_TOL,
    CoherentTriple,
    ConditionedState,
    _pair_weights,
    branch_amplitudes,
    brute_force_entropies,
    cat_state_check,
    conditioned_state,
    entropy_n12_series,
    exchange_evolve,
    initial_product_state,
    linear_entropies,
    oracle_dims,
    separability_check_12,
)
from nemsqnd.errors import ConditioningError, TruncationError
from nemsqnd.fock import (
    DEFAULT_DENSITY_CAP,
    DensityMatrix,
    StateVector,
    coherent_vector,
    min_fock_dim,
    poisson_tail,
)
from nemsqnd.verify import check_cat_fidelity, check_separability

amplitudes = st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                allow_infinity=False)

#: moduli of alpha up to the cap, with room for the rounding of ``cmath.rect``
alpha_moduli = st.floats(0.0, ALPHA_CAP * (1.0 - 1e-12))


def triple(alpha=2.0, beta=2.0, gamma=2.0):
    return CoherentTriple(alpha, beta, gamma)


def entropies_at(t, theta_t):
    """``linear_entropies`` on the one-phase grid ``[theta_t]``: the three
    entropies as floats, and the tail bound."""
    *curves, bound = linear_entropies(t, [theta_t])
    return tuple(float(c[0]) for c in curves), bound


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
    """Layer n transmits sin^2(n theta_t) of resonator 1's photons into
    resonator 2: none on layer 0 or at theta_t = 0, all of them on layer 1
    at the quarter period."""
    beta = 1.3 - 0.4j
    n = np.arange(6)
    theta_t = np.linspace(0.0, 5.0, 11)[:, None]
    b, g = branch_amplitudes(n, theta_t, beta, 0.0)
    transmitted = np.abs(g) ** 2 / abs(beta) ** 2
    np.testing.assert_allclose(transmitted, np.sin(n * theta_t) ** 2, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(transmitted + np.abs(b) ** 2 / abs(beta) ** 2, 1.0, rtol=1e-14)
    assert np.all(transmitted[0] == 0.0) and np.all(transmitted[:, 0] == 0.0)
    # full swap when the accumulated phase hits pi/2
    b1, g1 = branch_amplitudes(1, math.pi / 2, beta, 0.0)
    assert abs(g1) ** 2 / abs(beta) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(b1) <= 1e-12


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
    assert np.sum(np.abs(state.c_n) ** 2) == pytest.approx(1.0, rel=1e-15)
    assert state.beta_n[0] == 2.0 + 0j  # layer 0 is stationary


def test_conditioned_state_tail_and_weight():
    state = conditioned_state(triple(), 0.7)
    assert state.tail <= 1e-12
    # the kept layers carry all but the discarded tail
    assert np.sum(np.abs(state.c_n) ** 2) == pytest.approx(1.0 - state.tail, abs=1e-15)
    # each branch keeps the combined resonator energy
    b, g = branch_amplitudes(np.arange(state.n_terms), 0.7, 2.0, 2.0)
    np.testing.assert_array_equal(state.beta_n, b)
    np.testing.assert_allclose(np.abs(b) ** 2 + np.abs(g) ** 2, 8.0, rtol=1e-12)


def test_term_count_is_a_floor():
    """The layer count is a function of |alpha| alone, and a floor: the
    smallest whose discarded tail is at most ``TAIL_TOL``, so one layer
    fewer would leave more (two layers at the least)."""
    for r in np.linspace(0.0, ALPHA_CAP, 121):
        t = triple(alpha=cmath.rect(r, 0.7 * r))
        state = conditioned_state(t, 0.5)
        n, lam = state.n_terms, abs(t.alpha) ** 2
        assert n == min_fock_dim(t.alpha, TAIL_TOL)
        assert state.tail == poisson_tail(lam, n) <= TAIL_TOL
        assert n == 2 or poisson_tail(lam, n - 1) > TAIL_TOL
        assert conditioned_state(t, 2.9).n_terms == n  # the phase plays no part
    assert conditioned_state(triple(), 0.5).n_terms == 26


def test_term_caps():
    """Two layers at |alpha| = 0, 87 at ``ALPHA_CAP``, and no triple past it."""
    assert conditioned_state(triple(alpha=0.0), 0.5).n_terms == 2
    assert conditioned_state(triple(alpha=ALPHA_CAP), 0.5).n_terms == 87
    assert conditioned_state(triple(alpha=-1j * ALPHA_CAP), 0.5).n_terms == 87
    with pytest.raises(ValueError, match=f"exceeds the cap {ALPHA_CAP}"):
        triple(alpha=ALPHA_CAP * (1.0 + 1e-12))


def test_conditioned_state_arrays_are_readonly():
    state = conditioned_state(triple(), 0.5)
    with pytest.raises(ValueError):
        state.c_n[0] = 0.0


def test_validating_types_leave_the_callers_arrays_writeable():
    """The validated types hold read-only views of the arrays they are
    given, not copies, and leave the caller's own arrays writeable."""
    c, b, g = np.array([1.0 + 0j]), np.array([0.5j]), np.array([-0.5 + 0j])
    state = ConditionedState(c, b, g, 0.0)
    amps = np.zeros((2, 3), dtype=complex)
    amps[0, 0] = 1.0
    rho = np.diag([0.5, 0.5]).astype(complex)
    held = ((c, state.c_n), (b, state.beta_n), (g, state.gamma_n),
            (amps, StateVector(amps).amplitudes), (rho, DensityMatrix(rho).matrix))
    for given, kept in held:
        assert given.flags.writeable
        assert not kept.flags.writeable
        assert np.shares_memory(given, kept)


# ---------------------------------------------------------------------------
# linear entropies: limits, symmetries, bounds


def test_entropies_vanish_without_mixing():
    entropies, bound = entropies_at(triple(), 0.0)
    # the only residue is the squared truncation deficit, covered by the bound
    for e in entropies:
        assert 0.0 <= e <= bound + 1e-15
    assert bound <= 2.1e-12


def test_entropies_vanish_for_empty_resonators():
    for e in entropies_at(triple(beta=0.0, gamma=0.0), 1.3)[0]:
        assert e <= 3e-12


def test_symmetric_input_gives_equal_resonator_entropies():
    (e_n_12, e_1_n2, e_2_n1), _ = entropies_at(triple(), 0.7)
    assert e_1_n2 == e_2_n1  # identical formulas, bitwise equal
    # regression anchor for the standard operating point
    assert e_n_12 == pytest.approx(0.8479975833067072, rel=1e-12)
    assert e_1_n2 == pytest.approx(0.812155815645554, rel=1e-12)


def test_swapping_resonators_swaps_their_entropies():
    a, _ = entropies_at(CoherentTriple(1.5, 2.0, 0.8j), 0.9)
    b, _ = entropies_at(CoherentTriple(1.5, 0.8j, 2.0), 0.9)
    assert a[1] == b[2]
    assert a[2] == b[1]
    assert a[0] == b[0]


@pytest.mark.parametrize("theta_t", [0.3, 1.1, math.pi - 0.2])
def test_entropy_periodicity(theta_t):
    t = triple()
    base, _ = entropies_at(t, theta_t)
    shifted, _ = entropies_at(t, theta_t + 2 * math.pi)
    np.testing.assert_allclose(shifted, base, atol=1e-10)


def test_entropy_phase_invariance():
    """A global phase on any input amplitude is unobservable."""
    base, _ = entropies_at(CoherentTriple(1.7, 1.2, 0.9), 0.8)
    rot = CoherentTriple(1.7 * np.exp(0.4j), 1.2 * np.exp(1.1j),
                         0.9 * np.exp(1.1j))
    moved, _ = entropies_at(rot, 0.8)
    np.testing.assert_allclose(moved, base, atol=1e-13)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(alpha=amplitudes, beta=amplitudes, gamma=amplitudes,
       theta_t=st.floats(0.0, 7.0))
def test_entropy_bounds(alpha, beta, gamma, theta_t):
    t = CoherentTriple(alpha, beta, gamma)
    (e_n_12, e_1_n2, e_2_n1), _ = entropies_at(t, theta_t)
    p = np.abs(conditioned_state(t, theta_t).c_n) ** 2
    purity_floor = float(np.sum(p * p))
    for e in (e_n_12, e_1_n2, e_2_n1):
        assert 0.0 <= e <= 1.0
    # the pair cannot know less about the mechanics than either resonator alone
    assert e_n_12 >= max(e_1_n2, e_2_n1) - 1e-15
    assert e_n_12 <= 1.0 - purity_floor + 1e-12


def test_entropy_series_matches_pointwise():
    t = triple()
    grid = np.linspace(0.0, 2.0, 7)
    e_n12, e_1n2, e_2n1, bound = linear_entropies(t, grid)
    for i, tt in enumerate(grid):
        entropies, tail_bound = entropies_at(t, float(tt))
        assert (e_n12[i], e_1n2[i], e_2n1[i]) == entropies
        assert bound >= tail_bound


@settings(max_examples=20, derandomize=True, deadline=None)
@given(alpha_moduli, st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
       st.floats(0.0, 3.5), st.integers(0, 2**32 - 1))
@example(2.0, 2.0, 2.0, [0.3, 1.1, 2.0], 3.4, 1)
@example(ALPHA_CAP, 2.0, 2.0, [0.3, 1.1, 2.0], 3.4, 1)
def test_blocked_series_equals_pointwise(ra, rb, rg, angles, blocks, seed):
    """Grids from one phase up to several blocks: every blocked value is
    the one of its phase alone, bit for bit.  A one-phase grid is one
    block of one row, so every phase is compared with the grid run one
    row per block, and the first, middle and last with their one-phase
    grids."""
    t = CoherentTriple(*(cmath.rect(r, a) for r, a in zip((ra, rb, rg), angles)))
    state = conditioned_state(t, 0.0)
    block = max(1, SERIES_BLOCK // state.n_terms**2)
    size = max(1, round(blocks * block))
    grid = np.random.default_rng(seed).uniform(-10.0, 10.0, size)
    *curves, bound = linear_entropies(t, grid)
    with mock.patch.object(nemsqnd.entanglement, "SERIES_BLOCK", 1):
        *rows, _ = linear_entropies(t, grid)
    np.testing.assert_array_equal(curves, rows)
    for i in (0, size // 2, size - 1):
        assert tuple(c[i] for c in curves) == entropies_at(t, float(grid[i]))[0]
    assert bound == 2.0 * state.tail


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_entropy_series_rejects_non_finite_phases(bad):
    grid = np.linspace(0.0, 2.0, 50)
    grid[37] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linear_entropies(triple(), grid)


def test_entropy_series_memory_is_bounded_by_the_block():
    """At the largest term count (|alpha| = ALPHA_CAP) over the largest
    grid, the series holds one block of pair terms at a time; the whole
    grid at once would take about 1.2 GB."""
    t = CoherentTriple(ALPHA_CAP, 2.0, 1.5j)
    assert conditioned_state(t, 0.0).n_terms == 87
    grid = np.linspace(0.0, 2.0 * math.pi, 10_000)
    tracemalloc.start()
    try:
        e_n12 = linear_entropies(t, grid)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all((e_n12 >= 0.0) & (e_n12 <= 1.0))
    assert peak < 4e6


def test_entropy_n12_series_memory_is_bounded_by_the_block():
    """The E_N|12 series holds one block of layer differences at a time;
    the whole (10,000 x 87) table would take 7 MB per array."""
    t = CoherentTriple(ALPHA_CAP, 2.0, 1.5j)
    grid = np.linspace(0.0, 2.0 * math.pi, 10_000)
    tracemalloc.start()
    try:
        e_n12 = entropy_n12_series(t, grid)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all((e_n12 >= 0.0) & (e_n12 <= 1.0))
    assert peak < 4e6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_entropy_n12_series_rejects_non_finite_phases(bad):
    grid = np.linspace(0.0, 2.0, 50)
    grid[37] = bad
    with pytest.raises(ValueError, match="non-finite"):
        entropy_n12_series(triple(), grid)


def test_overflowing_phase_multiples_raise():
    """With |alpha| = 0 two layers suffice, so theta_t = 1e308 and its first
    multiple are finite; the cross-term table reaches (2n - 2) theta_t,
    which overflows, and must raise rather than return NaN."""
    with pytest.raises(ValueError, match="non-finite"):
        linear_entropies(triple(alpha=0.0), [1e308])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(alpha_moduli, st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
@example(ALPHA_CAP, 4.0, 4.0, [0.3, 1.1, 2.0], [-10.0, 9.7, 6.26])
def test_factored_sums_match_the_full_double_sums(ra, rb, rg, angles, grid):
    """The layer-difference and triangle sums agree with the three full
    double sums over branch overlaps."""
    t = CoherentTriple(*(cmath.rect(r, a) for r, a in zip((ra, rb, rg), angles)))
    *curves, _ = linear_entropies(t, grid)
    p = np.abs(conditioned_state(t, 0.0).c_n) ** 2
    np.testing.assert_allclose(curves, layer_entropies(p, t.beta, t.gamma, grid),
                               rtol=0.0, atol=5e-14)
    np.testing.assert_array_equal(entropy_n12_series(t, grid)[0], curves[0])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.floats(0.0, ALPHA_CAP), st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       st.floats(0.0, math.pi / 2),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
       st.floats(-10.0, 10.0))
def test_e_n12_depends_only_on_the_joint_intensity(ra, rb, rg, chi, angles, theta_t):
    """E_N|12 sees the resonators only through |beta|^2 + |gamma|^2: another
    split and other phases of the same joint intensity give the same value,
    in the kernel and in the full double sums."""
    r = math.hypot(rb, rg)
    t = CoherentTriple(ra, cmath.rect(rb, angles[0]), cmath.rect(rg, angles[1]))
    moved = CoherentTriple(ra, cmath.rect(r * math.cos(chi), angles[2]),
                           cmath.rect(r * math.sin(chi), angles[3]))
    e = entropies_at(t, theta_t)[0][0]
    state = conditioned_state(moved, theta_t)
    assert abs(entropies_at(moved, theta_t)[0][0] - e) <= 1e-14
    p = np.abs(state.c_n) ** 2
    assert abs(layer_entropies(p, moved.beta, moved.gamma, [theta_t])[0, 0] - e) <= 5e-14


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0 * cmath.exp(0.3j), 4.0, ALPHA_CAP])
def test_layer_difference_weights_are_the_skellam_pmf(alpha):
    """A_k = sum_m p_m p_{m+k} is the Skellam pmf exp(-2|alpha|^2) I_k(2|alpha|^2)
    up to the discarded tail, and the weights over |k| < n sum to the squared
    kept mass."""
    state = conditioned_state(CoherentTriple(alpha, 1.0, 1.0), 0.0)
    p = np.abs(state.c_n) ** 2
    a = _pair_weights(p)
    k = np.arange(a.size)
    a_k = a / np.where(k == 0, 1.0, 2.0)
    assert np.max(np.abs(a_k - ive(k, 2.0 * abs(alpha) ** 2))) <= 2.0 * state.tail + 1e-15
    assert np.sum(a) == pytest.approx(np.sum(p) ** 2, abs=1e-15)


# ---------------------------------------------------------------------------
# brute-force oracle


def _oracle_discrepancies(t, theta_t, dims, theta0_t=0.0):
    """|analytic - brute force| for E_N|12, E_1|N2 and E_2|N1; the analytic
    side is always the theta0-free branch solution."""
    brute = brute_force_entropies(t, theta_t, dims, theta0_t)
    analytic, _ = entropies_at(t, theta_t)
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
    dims = (d_n, d_1, d_2)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    psi = StateVector(raw / np.linalg.norm(raw))

    a1 = embed(annihilation(d_1), 1, dims)
    a2 = embed(annihilation(d_2), 2, dims)
    k = a1.dagger() @ a2 + a2.dagger() @ a1
    n_op = embed(number(d_n), 0, dims)
    h = k * theta0_t + (n_op @ k) * theta_t

    fast = exchange_evolve(psi, theta_t, theta0_t)
    dense = evolve(h, 1.0, psi)
    np.testing.assert_allclose(fast.amplitudes, dense.amplitudes, atol=1e-12)


def empty_sector_cache(monkeypatch):
    """An empty sector-basis cache in place of the module's for one test."""
    bases = type(nemsqnd.entanglement._SECTOR_BASES)()
    monkeypatch.setattr(nemsqnd.entanglement, "_SECTOR_BASES", bases)
    return bases


def test_cached_sector_bases_evolve_bit_for_bit(monkeypatch):
    """An evolution served from the sector-basis cache, which unequal
    cutoffs filled first with n1 ranges of the same sectors that share
    their first or their last n1, equals bit for bit one run after the
    cache is cleared; a repeat is served without a single ``eigh``."""
    t = triple()
    dims = oracle_dims(t)
    assert dims == (26, 42, 42)
    psi = initial_product_state(t, dims)
    bases = empty_sector_cache(monkeypatch)
    for other in ((10, 30, 42), (10, 42, 30)):
        exchange_evolve(initial_product_state(triple(0.5, 0.5, 0.5), other), 0.7)
    served = exchange_evolve(psi, 0.9, 0.2).amplitudes
    bases.clear()
    fresh = exchange_evolve(psi, 0.9, 0.2).amplitudes
    assert np.array_equal(served, fresh)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert np.array_equal(exchange_evolve(psi, 0.9, 0.2).amplitudes, fresh)


def test_sector_cache_stays_within_its_cap(monkeypatch):
    """At (60, 101, 101) the sector bases take about 5.5 MB; the cache
    keeps the newest of them within ``SECTOR_CACHE_BYTES``."""
    bases = empty_sector_cache(monkeypatch)
    exchange_evolve(initial_product_state(triple(), (60, 101, 101)), 1.0)
    held = sum(w.nbytes + v.nbytes for w, v in bases.values())
    assert 0.9 * SECTOR_CACHE_BYTES < held == bases.nbytes <= SECTOR_CACHE_BYTES
    bases.clear()
    assert bases.nbytes == 0


def test_exchange_evolve_norm_at_large_phase():
    psi = initial_product_state(CoherentTriple(0.6, 0.7, 0.5), (12, 14, 14))
    out = exchange_evolve(psi, 1e3)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


def test_exchange_evolve_refuses_a_state_without_three_modes():
    for dims in ((100,), (4, 25), (2, 2, 5, 5)):
        psi = StateVector(np.eye(100)[0].reshape(dims))
        with pytest.raises(ValueError, match="expects three modes"):
            exchange_evolve(psi, 0.5)


@pytest.mark.parametrize("theta_t,theta0_t", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1e308, 0.0), (0.5, math.nan),
    (1.0, 1e308),
])
def test_exchange_evolve_refuses_non_finite_layer_phases(monkeypatch, theta_t, theta0_t):
    """A layer phase, or its product with a sector eigenvalue, that is not
    finite is refused before any sector is diagonalised, as the analytic
    side refuses its phase multiples."""
    psi = initial_product_state(CoherentTriple(0.6, 0.7, 0.5), (12, 14, 14))

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="non-finite layer phase"):
        exchange_evolve(psi, theta_t, theta0_t)


def test_initial_product_state_polices_tails():
    with pytest.raises(TruncationError, match="mode N"):
        initial_product_state(triple(2.0, 0.5, 0.5), (10, 8, 8))
    try:
        initial_product_state(triple(0.5, 2.0, 0.5), (10, 8, 8))
    except TruncationError as err:
        assert "mode TLR1" in str(err)
        assert err.required_dim > 8
    else:
        pytest.fail("undersized resonator cutoff was accepted")


def test_analytic_entropies_match_the_oracle_on_every_curve_set():
    """The two ``sim entropy`` amplitude sets with the largest resonator
    cutoffs, (26, 77, 77) and (26, 86, 86), agree with the brute-force
    partial traces at the default oracle tolerance."""
    cfg = RunConfig()
    for beta, gamma, dims in ((3.0, 4.0, (26, 77, 77)), (3 + 4j, 1 + 2j, (26, 86, 86))):
        t = triple(2.0, beta, gamma)
        assert oracle_dims(t) == dims
        assert max(_oracle_discrepancies(t, 1.0, dims)) <= cfg.tol_entropy_oracle


def test_oracle_space_admits_the_curve_sets_at_the_cap():
    """The budget admits the derived cutoffs of every amplitude set ``sim
    entropy`` writes up to ``ALPHA_CAP``, where the widest set needs
    (87, 86, 86), one more phonon state than at |alpha| = 5.99."""
    for alpha, dims in ((5.99, (86, 86, 86)), (ALPHA_CAP, (87, 86, 86))):
        widest = max((triple(alpha, b, g) for b, g in ENTROPY_CURVE_SETS), key=oracle_dims)
        assert oracle_dims(widest) == dims
        assert initial_product_state(widest, dims).amplitudes.shape == dims


def test_oracle_space_refuses_oversized_pairs():
    """The guard is a fixed budget that the requested cutoffs cannot raise,
    and every oracle check with oversized cutoffs is refused before it
    allocates."""
    # the budget admits fewer state entries than the state cap
    assert ORACLE_BYTE_BUDGET // 48 < DEFAULT_DENSITY_CAP
    t = triple()
    assert initial_product_state(t, (60, 101, 101)).amplitudes.shape == (60, 101, 101)
    over = (60, 102, 102)
    tracemalloc.start()
    try:
        for dims in ((400, 406, 406), over, (2, 400, 400)):
            with pytest.raises(ValueError, match="oracle budget"):
                initial_product_state(t, dims)
        for check in (lambda: brute_force_entropies(t, 1.0, over),
                      lambda: separability_check_12(t, 1.0, over),
                      lambda: cat_state_check(t, over)):
            with pytest.raises(ValueError, match="oracle budget"):
                check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_checks_stay_within_the_budget():
    """At (60, 101, 101), the largest resonator cutoffs the budget admits
    with 60 phonon states, each brute-force check holds no more than the budget and no more than its
    own count of states: the partial traces three (the evolved state and
    two matricized copies), the cat check, which reassembles its two
    branches from the projections, two (the evolution's input and
    output), and the separability check three (the evolved state while
    it is copied into ``G``) plus one block of the product with its
    modulus.  Each may also fill the sector-basis cache up to its cap."""
    dims = (60, 101, 101)
    state_bytes = 16 * math.prod(dims)
    block_bytes = 24 * dims[1] * dims[2] * PAIR_BLOCK
    t = triple()
    checks = ((lambda: brute_force_entropies(t, 1.0, dims), 3.1 * state_bytes),
              (lambda: separability_check_12(t, 1.0, dims), 3 * state_bytes + block_bytes),
              (lambda: cat_state_check(t, dims), 2.25 * state_bytes))
    checks = [(check, bound + SECTOR_CACHE_BYTES) for check, bound in checks]
    for check, bound in checks:
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(bound, ORACLE_BYTE_BUDGET)


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
    branch, at small unequal cutoffs.  The 1248 x 1248 density matrix is
    above the cap of the library's ``DensityMatrix``, so it is traced as a
    plain array."""
    t = CoherentTriple(0.3, 0.35j, 0.25 - 0.1j)
    dims = (8, 12, 13)  # residual ~1e-11, so a slip in the mixture weights shows
    rep = separability_check_12(t, theta_t, dims)

    psi = exchange_evolve(initial_product_state(t, dims), theta_t).amplitudes.reshape(-1)
    pair = dims[1] * dims[2]
    rho = np.outer(psi, psi.conj()).reshape(dims + dims)
    rho_12 = np.trace(rho, axis1=0, axis2=3).reshape(pair, pair)
    state = conditioned_state(t, theta_t)
    mixture = np.zeros_like(rho_12)
    for c_n, b_n, g_n in zip(state.c_n, state.beta_n, state.gamma_n):
        v = np.kron(coherent_vector(b_n, dims[1]), coherent_vector(g_n, dims[2]))
        mixture += abs(c_n) ** 2 * np.outer(v, v.conj())
    assert rep.dims == dims
    assert rep.max_abs_deviation == pytest.approx(
        float(np.max(np.abs(rho_12 - mixture))), abs=1e-14)
    assert rep.mixture_trace == pytest.approx(float(np.trace(mixture).real), abs=1e-14)


@pytest.mark.parametrize("t", [
    triple(),
    triple(2.0, cmath.rect(2.5, 0.7), cmath.rect(1.5, -1.1)),
    triple(3.0, 2.0, 2.0),
])
def test_blocked_pair_residual_is_the_full_products_maximum(t):
    """Row blocks of the signed Gram product give, bit for bit, the maximum
    of the whole D x D product, at cutoffs (26, 42, 42), (26, 43, 43) and
    (38, 42, 42); no D is a multiple of the block, so a partial last
    block is always among them."""
    dims = oracle_dims(t)
    pair = dims[1] * dims[2]
    assert pair % PAIR_BLOCK
    psi = exchange_evolve(initial_product_state(t, dims), math.pi / 2)
    state = conditioned_state(t, math.pi / 2)
    branches = np.array([
        np.kron(coherent_vector(b_n, dims[1]), coherent_vector(g_n, dims[2]))
        for b_n, g_n in zip(state.beta_n, state.gamma_n)
    ])
    g = np.vstack([psi.amplitudes.reshape(dims[0], -1), branches])
    sign = np.concatenate([np.ones(dims[0]), -np.abs(state.c_n) ** 2])
    full = float(np.max(np.abs((g.T * sign) @ g.conj())))
    assert separability_check_12(t, math.pi / 2, dims).max_abs_deviation == full


def test_separability_check_allocates_no_dense_pair_state():
    """At the default pair cutoffs (26, 42, 42) the check holds less than
    one D x D complex matrix (D = 42^2): the product is taken in row
    blocks, and neither rho_12 nor the mixture is formed."""
    dims = oracle_dims(triple())
    assert dims == (26, 42, 42)
    pair = dims[1] * dims[2]
    tracemalloc.start()
    try:
        rep = separability_check_12(triple(), math.pi / 2, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_abs_deviation <= 1e-8
    assert peak < pair**2 * 16


def test_half_period_cat_structure():
    """Everything in the report follows from the two-branch decomposition.

    With moderate resonator amplitudes the projection products are not yet
    orthogonal (overlap o = exp(-2(|beta|^2+|gamma|^2))), so each branch
    catches an o^2 admixture of the other cat — the exact fidelities and
    weights below include that cross-talk rather than rounding it to 1.
    """
    t, dims = CoherentTriple(1.0, 1.2, 1.2), (16, 22, 22)
    report = cat_state_check(t, dims)
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
    # ... as the explicitly assembled state-size vector does
    psi_t = exchange_evolve(initial_product_state(t, dims), math.pi).amplitudes.reshape(-1)
    branches = []
    for sign, weight in ((1, n_plus2), (-1, n_minus2)):
        cat = coherent_vector(1.0, dims[0]) + sign * coherent_vector(-1.0, dims[0])
        branch = np.kron(coherent_vector(sign * 1.2, dims[1]),
                         coherent_vector(sign * 1.2, dims[2]))
        branches.append(math.sqrt(weight) * np.kron(cat / np.linalg.norm(cat), branch))
    explicit = branches[0] + branches[1]
    norm = np.linalg.norm(explicit)
    assert report.reassembled_norm == pytest.approx(norm, abs=1e-14)
    assert report.reassembly_fidelity == pytest.approx(
        abs(np.vdot(explicit / norm, psi_t)) ** 2, abs=1e-14)


def test_cat_cross_talk_dies_at_large_amplitude():
    # at the standard operating point the branch overlap is e^{-16}: gone
    report = cat_state_check(triple(), oracle_dims(triple()))
    assert report.dims == (26, 42, 42)
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
    report = cat_state_check(t, oracle_dims(t))
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
# odd cat weight ~|alpha|^2 = 1e-12: the closed-form target needs expm1
@example(1e-6, 6.2741596608108505, 1.865540507169515, 1.735227095292144,
         1.587657481295446, 2.00001)
# the triples `sim verify` is documented to pass: the defaults, |alpha| =
# 2.5 and 3.0, and a complex resonator pair
@example(2.0, 0.0, 2.0, 0.0, 2.0, 0.0)
@example(2.5, 0.0, 2.0, 0.0, 2.0, 0.0)
@example(3.0, 0.0, 2.0, 0.0, 2.0, 0.0)
@example(2.0, 0.0, 2.5, 0.7, 1.5, -1.1)
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
