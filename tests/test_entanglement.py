"""Layer decomposition, linear entropies, and the brute-force cross-checks."""

import cmath
import math
import re
import sys
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
    SECTOR_CACHE_BYTES,
    SERIES_BLOCK,
    TAIL_TOL,
    CoherentTriple,
    _pair_weights,
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
    coherent_vector,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
    pure_state,
    reduced_density,
)
from nemsqnd.verify import check_cat_fidelity, check_separability, oracle_gate

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


def test_branch_special_angles():
    beta, gamma = 1.3 - 0.4j, 0.7 + 0.2j
    t = triple(beta=beta, gamma=gamma)
    # layer 0 never moves
    _, b, g, _ = conditioned_state(t, 2.31)
    assert (b[0], g[0]) == (beta, gamma)
    # half period: odd layers flip, even layers return
    _, b, g, _ = conditioned_state(t, math.pi)
    assert b[1] == pytest.approx(-beta, abs=1e-12)
    assert g[1] == pytest.approx(-gamma, abs=1e-12)
    assert b[2] == pytest.approx(beta, abs=1e-12)
    assert g[2] == pytest.approx(gamma, abs=1e-12)
    # quarter period on layer 1: swap with a -i
    _, b, g, _ = conditioned_state(t, math.pi / 2)
    assert b[1] == pytest.approx(-1j * gamma, abs=1e-12)
    assert g[1] == pytest.approx(-1j * beta, abs=1e-12)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(alpha=alpha_moduli, beta=amplitudes, gamma=amplitudes,
       theta_t=st.floats(-8.0, 8.0))
def test_branch_mixing_is_unitary(alpha, beta, gamma, theta_t):
    """Every layer's beam splitter keeps |beta|^2 + |gamma|^2, on up to the
    87 layers of ``ALPHA_CAP``."""
    _, b, g, _ = conditioned_state(triple(alpha, beta, gamma), theta_t)
    before = abs(beta) ** 2 + abs(gamma) ** 2
    for after in np.abs(b) ** 2 + np.abs(g) ** 2:
        assert math.isclose(after, before, rel_tol=1e-12, abs_tol=1e-12)


def test_transmittance_values():
    """Layer n transmits sin^2(n theta_t) of resonator 1's photons into
    resonator 2: none on layer 0 or at theta_t = 0, all of them on layer 1
    at the quarter period."""
    beta = 1.3 - 0.4j
    theta_ts = np.linspace(0.0, 5.0, 11)
    b, g = np.array([conditioned_state(triple(beta=beta, gamma=0.0), x)[1:3]
                     for x in theta_ts]).transpose(1, 0, 2)
    n = np.arange(b.shape[1])
    assert n.size == 26
    transmitted = np.abs(g) ** 2 / abs(beta) ** 2
    np.testing.assert_allclose(transmitted, np.sin(n * theta_ts[:, None]) ** 2,
                               rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(transmitted + np.abs(b) ** 2 / abs(beta) ** 2, 1.0, rtol=1e-14)
    assert np.all(transmitted[0] == 0.0) and np.all(transmitted[:, 0] == 0.0)
    # full swap when the accumulated phase hits pi/2
    _, b, g, _ = conditioned_state(triple(beta=beta, gamma=0.0), math.pi / 2)
    assert abs(g[1]) ** 2 / abs(beta) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(b[1]) <= 1e-12


# ---------------------------------------------------------------------------
# conditioned state


def test_triple_validation():
    with pytest.raises(ValueError, match="cap"):
        CoherentTriple(6.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        CoherentTriple(math.nan, 1.0, 1.0)


def test_conditioned_state_vacuum_mechanics():
    p, beta_n, _, tail = conditioned_state(triple(alpha=0.0), 1.3)
    assert p.size == 2  # the floor: one level is no ladder at all
    assert p.tolist() == [1.0, 0.0]
    assert tail == 0.0
    assert np.sum(p) == pytest.approx(1.0, rel=1e-15)
    assert beta_n[0] == 2.0 + 0j  # layer 0 is stationary


def test_conditioned_state_tail_and_weight():
    p, beta_n, gamma_n, tail = conditioned_state(triple(), 0.7)
    assert tail <= 1e-12
    # the kept layers carry all but the discarded tail
    assert np.sum(p) == pytest.approx(1.0 - tail, abs=1e-15)
    # at beta = gamma both branches are beta e^{-i n theta_t} and keep the
    # combined resonator energy
    phi = np.arange(p.size) * 0.7
    np.testing.assert_allclose(beta_n, 2.0 * (np.cos(phi) - 1j * np.sin(phi)), rtol=1e-15)
    np.testing.assert_array_equal(gamma_n, beta_n)
    np.testing.assert_allclose(np.abs(beta_n) ** 2 + np.abs(gamma_n) ** 2, 8.0, rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
def test_conditioned_state_refuses_non_finite_layer_phases(bad):
    """The largest layer multiple (25 theta_t at the default alpha) is
    checked before any is formed, so numpy never warns (warnings are
    errors in this suite)."""
    with pytest.raises(ValueError, match="non-finite phase multiples"):
        conditioned_state(triple(), bad)


def test_term_count_is_a_floor():
    """The layer count is a function of |alpha| alone, and a floor: the
    smallest whose discarded tail is at most ``TAIL_TOL``, so one layer
    fewer would leave more (two layers at the least)."""
    for r in np.linspace(0.0, ALPHA_CAP, 121):
        t = triple(alpha=cmath.rect(r, 0.7 * r))
        p, _, _, tail = conditioned_state(t, 0.5)
        n, lam = p.size, abs(t.alpha) ** 2
        assert n == min_fock_dim(t.alpha, TAIL_TOL)
        assert tail == poisson_tail(lam, n) <= TAIL_TOL
        assert n == 2 or poisson_tail(lam, n - 1) > TAIL_TOL
        assert conditioned_state(t, 2.9)[0].size == n  # the phase plays no part
    assert conditioned_state(triple(), 0.5)[0].size == 26


def test_term_caps():
    """Two layers at |alpha| = 0, 87 at ``ALPHA_CAP``, and no triple past it."""
    assert conditioned_state(triple(alpha=0.0), 0.5)[0].size == 2
    assert conditioned_state(triple(alpha=ALPHA_CAP), 0.5)[0].size == 87
    assert conditioned_state(triple(alpha=-1j * ALPHA_CAP), 0.5)[0].size == 87
    with pytest.raises(ValueError, match=f"exceeds the cap {ALPHA_CAP}"):
        triple(alpha=ALPHA_CAP * (1.0 + 1e-12))


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
    p = conditioned_state(t, theta_t)[0]
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
    p, _, _, tail = conditioned_state(t, 0.0)
    block = max(1, SERIES_BLOCK // p.size**2)
    size = max(1, round(blocks * block))
    grid = np.random.default_rng(seed).uniform(-10.0, 10.0, size)
    *curves, bound = linear_entropies(t, grid)
    with mock.patch.object(nemsqnd.entanglement, "SERIES_BLOCK", 1):
        *rows, _ = linear_entropies(t, grid)
    np.testing.assert_array_equal(curves, rows)
    for i in (0, size // 2, size - 1):
        assert tuple(c[i] for c in curves) == entropies_at(t, float(grid[i]))[0]
    assert bound == 2.0 * tail


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
    assert conditioned_state(t, 0.0)[0].size == 87
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
    p = conditioned_state(t, 0.0)[0]
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
    p = conditioned_state(moved, theta_t)[0]
    assert abs(entropies_at(moved, theta_t)[0][0] - e) <= 1e-14
    assert abs(layer_entropies(p, moved.beta, moved.gamma, [theta_t])[0, 0] - e) <= 5e-14


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0 * cmath.exp(0.3j), 4.0, ALPHA_CAP])
def test_layer_difference_weights_are_the_skellam_pmf(alpha):
    """A_k = sum_m p_m p_{m+k} is the Skellam pmf exp(-2|alpha|^2) I_k(2|alpha|^2)
    up to the discarded tail, and the weights over |k| < n sum to the squared
    kept mass."""
    p, _, _, tail = conditioned_state(CoherentTriple(alpha, 1.0, 1.0), 0.0)
    a = _pair_weights(p)
    k = np.arange(a.size)
    a_k = a / np.where(k == 0, 1.0, 2.0)
    assert np.max(np.abs(a_k - ive(k, 2.0 * abs(alpha) ** 2))) <= 2.0 * tail + 1e-15
    assert np.sum(a) == pytest.approx(np.sum(p) ** 2, abs=1e-15)


# ---------------------------------------------------------------------------
# brute-force oracle


def _oracle_discrepancies(t, theta_t, dims):
    """|analytic - brute force| for E_N|12, E_1|N2 and E_2|N1."""
    brute = brute_force_entropies(t, theta_t, dims)
    analytic, _ = entropies_at(t, theta_t)
    return [abs(a - b) for a, b in zip(analytic, brute)]


def pair_exchange(dims, axes=(1, 2)):
    """The dense ``K = a1^dag a2 + a1 a2^dag`` on the modes ``axes`` of ``dims``."""
    a1, a2 = (embed(annihilation(dims[axis]), axis, dims) for axis in axes)
    return a1.dagger() @ a2 + a2.dagger() @ a1


def test_analytic_entropies_match_exact_evolution():
    assert max(_oracle_discrepancies(CoherentTriple(1.3, 1.0, 1.1), 0.9,
                                     dims=(24, 24, 24))) <= 1e-8


def test_uniform_rotation_cannot_entangle_mechanics():
    """Sector-uniform mixing moves photons between the resonators but leaves
    the mechanics' entanglement with the pair untouched."""
    t, dims = CoherentTriple(1.0, 1.0, 0.5), (20, 16, 16)
    assert max(_oracle_discrepancies(t, 0.8, dims)) <= 1e-8
    # exp(-i theta0_t K) on the initial pair commutes with the evolution,
    # so the state evolves under theta0_t K + theta_t N K, theta0_t = 0.6
    pair = pure_state(np.outer(coherent_vector(t.beta, dims[1]),
                               coherent_vector(t.gamma, dims[2])))
    rotated = evolve(pair_exchange(dims[1:], axes=(0, 1)), 0.6, pair)
    psi0 = pure_state(np.multiply.outer(coherent_vector(t.alpha, dims[0]), rotated))
    psi_t = exchange_evolve(psi0, 0.8)
    brute = [linear_entropy(reduced_density(psi_t, axis)) for axis in range(3)]
    analytic, _ = entropies_at(t, 0.8)
    d_n12, d_1n2, d_2n1 = (abs(a - b) for a, b in zip(analytic, brute))
    assert d_n12 <= 1e-8
    assert d_1n2 > 1e-3 and d_2n1 > 1e-3


mixing_phases = st.floats(-4.0, 4.0, allow_nan=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(2, 6), st.integers(2, 6),
       mixing_phases, mixing_phases, st.integers(0, 2**32 - 1))
@example(4, 5, 5, 0.7, 0.3, 7)
def test_exchange_evolve_agrees_with_dense_propagator(d_n, d_1, d_2, theta_t,
                                                      theta0_t, seed):
    """The per-sector propagator, after the theta0_t rotation exp(-i
    theta0_t K) that commutes with it, equals dense evolution under the
    full generator theta0_t K + theta_t N K, on unequal cutoffs too."""
    dims = (d_n, d_1, d_2)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    psi = pure_state(raw / np.linalg.norm(raw))

    k = pair_exchange(dims)
    n_op = embed(number(d_n), 0, dims)
    h = k * theta0_t + (n_op @ k) * theta_t

    fast = exchange_evolve(evolve(k, theta0_t, psi), theta_t)
    dense = evolve(h, 1.0, psi)
    np.testing.assert_allclose(fast, dense, atol=1e-12)


def empty_sector_cache(monkeypatch):
    """An empty sector-basis cache in place of the module's for one test."""
    bases = type(nemsqnd.entanglement._SECTOR_BASES)()
    monkeypatch.setattr(nemsqnd.entanglement, "_SECTOR_BASES", bases)
    return bases


def test_cached_sector_bases_evolve_bit_for_bit(monkeypatch):
    """An evolution served from the sector-basis cache, which unequal
    cutoffs filled first with n1 ranges of the same sectors that share
    their first or their last n1, equals bit for bit one run after the
    cache is replaced by an empty one; a repeat is served without a single
    ``eigh``."""
    t = triple()
    dims = oracle_dims(t)
    assert dims == (26, 42, 42)
    psi = initial_product_state(t, dims)
    bases = empty_sector_cache(monkeypatch)
    for other in ((10, 30, 42), (10, 42, 30)):
        exchange_evolve(initial_product_state(triple(0.5, 0.5, 0.5), other), 0.7)
    served = exchange_evolve(psi, 0.9)
    assert bases
    empty_sector_cache(monkeypatch)
    fresh = exchange_evolve(psi, 0.9)
    assert np.array_equal(served, fresh)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert np.array_equal(exchange_evolve(psi, 0.9), fresh)


def test_sector_cache_stays_within_its_cap(monkeypatch):
    """At (60, 101, 101) the sector bases take about 5.5 MB; the cache
    keeps the first of them within ``SECTOR_CACHE_BYTES``."""
    bases = empty_sector_cache(monkeypatch)
    exchange_evolve(initial_product_state(triple(), (60, 101, 101)), 1.0)
    held = sum(w.nbytes + v.nbytes for w, v in bases.values())
    assert 0.9 * SECTOR_CACHE_BYTES < held == bases.nbytes <= SECTOR_CACHE_BYTES


def test_sector_cache_keeps_its_first_bases(monkeypatch):
    """An evolve at (26, 86, 86), whose bases outgrow the cap, leaves the
    bases of a default evolve before it in place, so the default evolve
    after it diagonalizes no sector at all."""
    empty_sector_cache(monkeypatch)
    eigh, calls = np.linalg.eigh, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = []
    for dims in ((26, 42, 42), (26, 86, 86), (26, 42, 42)):
        before = calls[0]
        exchange_evolve(initial_product_state(triple(), dims), 1.0)
        counts.append(calls[0] - before)
    assert counts == [83, 129, 0]


def test_exchange_evolve_norm_at_large_phase():
    psi = initial_product_state(CoherentTriple(0.6, 0.7, 0.5), (12, 14, 14))
    out = exchange_evolve(psi, 1e3)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_exchange_evolve_refuses_a_state_without_three_modes():
    for dims in ((100,), (4, 25), (2, 2, 5, 5)):
        psi = np.eye(100)[0].reshape(dims)
        with pytest.raises(ValueError, match="expects three modes"):
            exchange_evolve(psi, 0.5)
    for dims in ((2, 0, 2), (1, 3, 3)):
        with pytest.raises(ValueError, match=">= 2"):
            exchange_evolve(np.zeros(dims), 0.5)


def test_exchange_evolve_refuses_an_over_cap_state_before_converting():
    """2**21 entries, over the state cap: a broadcast view of one complex
    number, refused well under the 32 MiB its evolved copy would take."""
    big = np.broadcast_to(np.complex128(2**-10.5), (128, 128, 128))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="allocation cap"):
            exchange_evolve(big, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def _small_state():
    return initial_product_state(CoherentTriple(0.6, 0.7, 0.5), (12, 14, 14))


@pytest.mark.parametrize("where", ["scaled", "one nan"])
def test_exchange_evolve_refuses_an_input_off_unit_norm(where):
    """The evolution is unitary, so the norm check on its output refuses an
    unnormalized input and one with a NaN entry, before numpy warns."""
    psi = _small_state()
    if where == "scaled":
        psi *= 1.001
    else:
        psi[3, 4, 5] = math.nan
    with pytest.raises(ValueError, match="norm"):
        exchange_evolve(psi, 0.7)


def test_exchange_evolve_takes_a_real_array():
    """Real amplitudes are converted: the result is complex and equals the
    evolution of the same state held as complex numbers."""
    psi = _small_state()  # real alpha, beta and gamma: real amplitudes
    out = exchange_evolve(psi.real, 0.7)
    assert out.dtype == np.complex128
    assert np.array_equal(out, exchange_evolve(psi, 0.7))


@pytest.mark.parametrize("theta_t", [math.nan, math.inf, -math.inf, 1e308, 1e307])
def test_exchange_evolve_refuses_non_finite_layer_phases(monkeypatch, theta_t):
    """A layer phase, or its product with a sector eigenvalue, that is not
    finite is refused before any sector is diagonalised, as the analytic
    side refuses its phase multiples: at (12, 14, 14) the top layer phase
    of 1e307 is finite, its product with d_1 + d_2 is not."""
    psi = initial_product_state(CoherentTriple(0.6, 0.7, 0.5), (12, 14, 14))

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="non-finite layer phase"):
        exchange_evolve(psi, theta_t)


def test_initial_product_state_polices_tails():
    with pytest.raises(TruncationError, match="mode N"):
        initial_product_state(triple(2.0, 0.5, 0.5), (10, 8, 8))
    with pytest.raises(TruncationError) as err:
        initial_product_state(triple(0.5, 2.0, 0.5), (10, 8, 8))
    tail = re.fullmatch(r"mode TLR1: cutoff 8 leaves tail (\S+) for amplitude \(2\+0j\)",
                        str(err.value))
    assert float(tail.group(1)) > TAIL_TOL
    # an amplitude past every cutoff ``min_fock_dim`` searches still gets
    # the mode's own message
    with pytest.raises(TruncationError, match=r"^mode TLR1: cutoff 10 leaves tail 1\.000e\+00 "):
        initial_product_state(CoherentTriple(0.5, 70, 0), (10, 10, 10))


def test_analytic_entropies_match_the_oracle_on_every_curve_set():
    """The two ``sim entropy`` amplitude sets with the largest resonator
    cutoffs, (26, 77, 77) and (26, 86, 86), agree with the brute-force
    partial traces within the entropy oracle's derived gate at the point."""
    for beta, gamma, dims in ((3.0, 4.0, (26, 77, 77)), (3 + 4j, 1 + 2j, (26, 86, 86))):
        t = triple(2.0, beta, gamma)
        assert oracle_dims(t) == dims
        gate = linear_entropies(t, [1.0])[3] + oracle_gate(t, dims, 2.0)
        assert max(_oracle_discrepancies(t, 1.0, dims)) <= gate


def test_oracle_space_admits_the_curve_sets_at_the_cap():
    """The budget admits the derived cutoffs of every amplitude set ``sim
    entropy`` writes up to ``ALPHA_CAP``, where the widest set needs
    (87, 86, 86), one more phonon state than at |alpha| = 5.99."""
    for alpha, dims in ((5.99, (86, 86, 86)), (ALPHA_CAP, (87, 86, 86))):
        widest = max((triple(alpha, b, g) for b, g in ENTROPY_CURVE_SETS), key=oracle_dims)
        assert oracle_dims(widest) == dims
        assert initial_product_state(widest, dims).shape == dims


def test_separability_passes_at_the_cap():
    """The widest ``sim entropy`` amplitude set at ``ALPHA_CAP``, (6, 3+4i,
    1+2i), passes the separability check at its derived cutoffs (87, 86,
    86), the largest the budget admits with 87 phonon states."""
    t = triple(ALPHA_CAP, 3 + 4j, 1 + 2j)
    assert oracle_dims(t) == (87, 86, 86)
    assert separability_check_12(t, math.pi / 2, (87, 86, 86)) <= 1e-8


def test_oracle_space_refuses_oversized_pairs():
    """The guard is a fixed budget that the requested cutoffs cannot raise,
    and every oracle check with oversized cutoffs is refused before it
    allocates.  With 60 phonon states it admits resonator cutoffs up to
    (60, 103, 103) and refuses (60, 104, 104)."""
    # the budget admits fewer state entries than the state cap
    assert ORACLE_BYTE_BUDGET // 32 < DEFAULT_DENSITY_CAP
    t = triple()
    assert initial_product_state(t, (60, 103, 103)).shape == (60, 103, 103)
    over = (60, 104, 104)
    tracemalloc.start()
    try:
        for dims in ((400, 406, 406), over, (2, 600, 600)):
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
    """At (60, 103, 103), the largest resonator cutoffs the budget admits
    with 60 phonon states, each brute-force check holds no more than the
    budget and no more than 2.2 states (2.06 measured): the evolution's
    input and output and one sector's workspace; the partial traces, the
    cat projections and the layer-by-layer separability bound add arrays
    of at most one layer.  Each may also fill the sector-basis cache up to
    its cap."""
    dims = (60, 103, 103)
    bound = 2.2 * 16 * math.prod(dims) + SECTOR_CACHE_BYTES
    t = triple()
    for check in (lambda: brute_force_entropies(t, 1.0, dims),
                  lambda: separability_check_12(t, 1.0, dims),
                  lambda: cat_state_check(t, dims)):
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
    # the bound reads 2.3e-10 at these cutoffs, where the largest entry of
    # rho_12 - mixture is 2.0e-11
    bound = separability_check_12(CoherentTriple(1.0, 1.0, 1.0), 0.9, dims=(16, 20, 20))
    assert bound <= 1e-9


@pytest.mark.parametrize("theta_t", [0.9, math.pi / 2])
def test_layer_bound_covers_the_dense_pair_state(monkeypatch, theta_t):
    """The layer-by-layer bound is at least the spectral norm of rho_12 -
    mixture of the dense route on the complete photon-number sectors P
    (n1 + n2 < 12) plus that on the rest Q, which is at least the largest
    entry of either block: rho_12 by a full partial trace, the mixture
    summed branch by branch, at small unequal cutoffs.  The 1248 x 1248
    density matrix is above the cap of the library's ``density_matrix``,
    so it is traced as a plain array.  A weight p_0 off by 1e-6 relative
    moves the bound past 1e-7."""
    t = CoherentTriple(0.3, 0.35j, 0.25 - 0.1j)
    dims = (8, 12, 13)  # residual ~1e-11, so a slip in the mixture weights shows
    bound = separability_check_12(t, theta_t, dims)

    psi = exchange_evolve(initial_product_state(t, dims), theta_t).reshape(-1)
    pair = dims[1] * dims[2]
    rho = np.outer(psi, psi.conj()).reshape(dims + dims)
    rho_12 = np.trace(rho, axis1=0, axis2=3).reshape(pair, pair)
    p, beta_n, gamma_n, _ = conditioned_state(t, theta_t)
    mixture = np.zeros_like(rho_12)
    for p_n, b_n, g_n in zip(p, beta_n, gamma_n):
        v = np.kron(coherent_vector(b_n, dims[1]), coherent_vector(g_n, dims[2]))
        mixture += p_n * np.outer(v, v.conj())
    complete = (np.add.outer(np.arange(dims[1]), np.arange(dims[2])) < 12).reshape(-1)
    blocks = [(rho_12 - mixture)[np.ix_(part, part)] for part in (complete, ~complete)]
    spectral = sum(float(np.linalg.norm(block, 2)) for block in blocks)
    assert bound < 1e-10
    assert bound >= spectral >= max(float(np.max(np.abs(b))) for b in blocks)

    def off_weight(triple, phase):
        p, beta_n, gamma_n, tail = conditioned_state(triple, phase)
        p[0] *= 1 + 1e-6
        return p, beta_n, gamma_n, tail

    monkeypatch.setattr(nemsqnd.entanglement, "conditioned_state", off_weight)
    assert separability_check_12(t, theta_t, dims) > 1e-7


def test_separability_check_allocates_no_dense_pair_state():
    """At the default pair cutoffs (26, 42, 42) the check holds less than
    one D x D complex matrix (D = 42^2): it runs layer by layer, and
    neither rho_12 nor the mixture is formed."""
    dims = oracle_dims(triple())
    assert dims == (26, 42, 42)
    pair = dims[1] * dims[2]
    tracemalloc.start()
    try:
        bound = separability_check_12(triple(), math.pi / 2, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound <= 1e-8
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
    # the reassembled two-branch state reproduces the evolved state ...
    assert report.reassembly_fidelity == pytest.approx(1.0, abs=1e-10)
    # ... as the explicitly assembled state-size vector does, which is
    # normalized (parity kills the cross term and P+ + P- = 1)
    psi_t = exchange_evolve(initial_product_state(t, dims), math.pi).reshape(-1)
    branches = []
    for sign, weight in ((1, n_plus2), (-1, n_minus2)):
        cat = coherent_vector(1.0, dims[0]) + sign * coherent_vector(-1.0, dims[0])
        branch = np.kron(coherent_vector(sign * 1.2, dims[1]),
                         coherent_vector(sign * 1.2, dims[2]))
        branches.append(math.sqrt(weight) * np.kron(cat / np.linalg.norm(cat), branch))
    explicit = branches[0] + branches[1]
    assert np.linalg.norm(explicit) == pytest.approx(1.0, abs=1e-14)
    assert report.reassembly_fidelity == pytest.approx(
        abs(np.vdot(explicit, psi_t)) ** 2, abs=1e-14)


def test_cat_cross_talk_dies_at_large_amplitude():
    # at the standard operating point the branch overlap is e^{-16}: gone
    report = cat_state_check(triple(), oracle_dims(triple()))
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
# odd cat weight ~1e-12: 1 - exp cancels to 1.2e-6 of the odd fidelity
@example(1e-6, 0.0, 1.95, 0.0, 1.95, 0.0)
def test_cat_fidelities_match_the_overlapping_branch_forms(ra, pa, rb, pb, rg, pg):
    """Wherever the overlap guard admits the resonator amplitudes, the
    conditional-state fidelities are the even/odd cat weights diluted by
    the squared branch overlap, not 1.  The odd fidelity F- is judged
    within 1e-12 or, where the odd weight w- is tiny, within the roundoff
    ``check_cat_fidelity`` derives, 2 F- ov sqrt(P+) S^2 eps / w-."""
    ov = math.exp(-2.0 * (rb**2 + rg**2))  # <beta|-beta><gamma|-gamma>
    assume(ov <= 1e-2)
    t = CoherentTriple(_polar(ra, pa), _polar(rb, pb), _polar(rg, pg))
    dims = oracle_dims(t)
    report = cat_state_check(t, dims)
    even = 0.5 * (1.0 + math.exp(-2.0 * ra**2))
    odd = -0.5 * math.expm1(-2.0 * ra**2)
    assert abs(report.even_fidelity - even / (even + odd * ov**2)) <= 1e-12
    if report.odd_fidelity is not None:
        odd_fidelity = odd / (odd + even * ov**2)
        roundoff = (2.0 * odd_fidelity * ov * math.sqrt(even) * sum(dims) ** 2
                    * sys.float_info.epsilon / report.odd_weight)
        assert abs(report.odd_fidelity - odd_fidelity) <= max(1e-12, roundoff)


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
    the overlap guard admits, at their derived gates."""
    assume(math.exp(-2.0 * (rb**2 + rg**2)) <= 1e-2)
    amplitudes = {}
    for name, z in (("alpha", _polar(ra, pa)), ("beta", _polar(rb, pb)),
                    ("gamma", _polar(rg, pg))):
        amplitudes[f"{name}_re"], amplitudes[f"{name}_im"] = z.real, z.imag
    cfg = RunConfig(**amplitudes)
    for check in (check_cat_fidelity(cfg), check_separability(cfg)):
        assert check.passed, (check.name, check.residual, check.detail)


#: the two refusals of the cat check, by the branch weight or the overlap
_CAT_REFUSAL = re.compile(r"^odd projection branch weighs |^projection products overlap ")


def _amplitude_config(amplitudes) -> RunConfig:
    """The defaults with ``(alpha, beta, gamma)`` as the coherent amplitudes."""
    return RunConfig(**{f"{name}_{key}": getattr(complex(z), part)
                        for name, z in zip(("alpha", "beta", "gamma"), amplitudes)
                        for key, part in (("re", "real"), ("im", "imag"))})


@st.composite
def oracle_triples(draw):
    """|alpha| <= ALPHA_CAP and |beta|^2 + |gamma|^2 <= 30, the joint
    intensity of the widest ``sim entropy`` amplitude set, which the oracle
    admits at (87, 86, 86)."""
    alpha = _polar(draw(st.floats(0.0, ALPHA_CAP)), draw(phases))
    joint, share = draw(st.floats(0.0, 30.0)), draw(st.floats(0.0, 1.0))
    beta = _polar(math.sqrt(joint * share), draw(phases))
    gamma = _polar(math.sqrt(joint * (1.0 - share)), draw(phases))
    return alpha, beta, gamma


@settings(max_examples=15, derandomize=True, deadline=None)
@given(oracle_triples())
# the triples `sim verify` is documented to pass
@example((2.0, 2.0, 2.0))
@example((2.5, 2.0, 2.0))
@example((3.0, 2.0, 2.0))
@example((2.5, 3.0, 4.0))
@example((ALPHA_CAP, 3 + 4j, 1 + 2j))
@example((1.5, 1.5, 1.5))
@example((2.0, 1.5 + 2j, 0.9 + 1.2j))
# separability read 1.200e-8 and 1.141e-8 here with the reflection of the
# cut-off photon-number sectors in its bound
@example((1.8166 - 4.8497j, -2.4507 - 1.3577j, -1.7391 + 2.3282j))
@example((0.0442 - 2.2481j, -0.5391 + 2.7634j, -2.4553 - 0.932j))
# the odd cat weighs 2e-4 here; at the common phonon cutoff its discarded
# tail moved the odd fidelity by 4.2e-10
@example((0.0126, 1.0747, 1.0747))
# the odd cat weighs 1e-12 here, and roundoff moves its fidelity by 4.7e-10
# (refused as inconclusive) and 6.4e-11 (passed)
@example((1e-6, 1.95, 1.95))
@example((1.0239e-6, 1.95655, 1.95655))
def test_oracle_checks_pass_on_the_widest_admitted_triples(amplitudes):
    """The cat and separability checks pass, at gates no looser than 1e-10
    and 1e-8, for every |alpha| up to ``ALPHA_CAP`` and every resonator pair
    up to the joint intensity 30, or the cat check refuses the pair by name."""
    cfg = _amplitude_config(amplitudes)
    for check, cap in ((check_cat_fidelity, 1e-10), (check_separability, 1e-8)):
        try:
            result = check(cfg)
        except ConditioningError as exc:
            assert check is check_cat_fidelity and _CAT_REFUSAL.search(str(exc)), exc
            continue
        assert result.passed and result.tolerance <= cap, (result.name, result.residual,
                                                           result.tolerance, result.detail)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.floats(-7.0, -4.0), phases, st.floats(1.7, 2.1))
# roundoff moved the odd fidelity by 2.7e-10 and 2.4e-10 here; random draws
# seldom land on such a point (4 of 300 uniform ones did)
@example(-5.9, 0.0, 1.85)
@example(-6.1, 0.0, 1.85)
def test_cat_check_passes_or_refuses_in_the_tiny_alpha_band(exponent, phase, amplitude):
    """Where the odd cat weighs 1e-14 to 1e-8, ``cat_fidelity`` passes at a
    gate no looser than 1e-10 or refuses an odd residual within its roundoff,
    naming the odd weight; on 1,271 grid points of this band, 34 once failed
    on roundoff alone."""
    cfg = _amplitude_config((_polar(10.0 ** exponent, phase), amplitude, amplitude))
    try:
        result = check_cat_fidelity(cfg)
    except ConditioningError as exc:
        assert str(exc).startswith("odd projection branch weighs "), exc
        return
    assert result.passed and result.tolerance <= 1e-10, (result.residual, result.tolerance,
                                                         result.detail)
