import math
import re
import tracemalloc

import numpy as np
import pytest
from dense_reference import (
    Operator,
    annihilation,
    basis_state,
    coherent_state,
    creation,
    embed,
    evolve,
    fidelity,
    identity,
    number,
    partial_trace,
    product_state,
)
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc

from nemsqnd.errors import TruncationError
from nemsqnd.fock import (
    FOCK_DIM_CAP,
    density_matrix,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
    pure_state,
    reduced_density,
)


# ---------------------------------------------------------------------------
# ladder operators


def test_annihilation_qubit():
    a = annihilation(2)
    assert np.array_equal(a.matrix, [[0, 1], [0, 0]])


def test_annihilation_matrix_elements():
    a = annihilation(7).matrix
    for n in range(1, 7):
        assert a[n - 1, n] == math.sqrt(n)
    # everything else exactly zero
    mask = np.ones_like(a, dtype=bool)
    mask[np.arange(6), np.arange(1, 7)] = False
    assert np.all(a[mask] == 0)


@pytest.mark.parametrize("dim", [2, 3, 5, 12, 30])
def test_truncated_commutator_artifact(dim):
    """[a, a+] is the identity except the last diagonal entry, 1 - dim.

    The matrix elements are sqrt(n); squaring them in the product
    reintroduces half-ulp rounding, so the comparison is relative at a
    few machine epsilons rather than bitwise.
    """
    a = annihilation(dim)
    comm = (a @ a.dagger() - a.dagger() @ a).matrix
    expected = np.eye(dim, dtype=complex)
    expected[-1, -1] = 1 - dim
    assert np.allclose(comm, expected, rtol=1e-14, atol=0.0)
    # off-diagonal entries involve no arithmetic at all: exactly zero
    assert np.array_equal(comm - np.diag(np.diag(comm)), np.zeros((dim, dim)))
    assert comm[-1, -1] == pytest.approx(1 - dim, rel=1e-14)


def test_number_diagonal():
    n = number(4)
    assert np.array_equal(n.matrix, np.diag([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose((creation(4) @ annihilation(4)).matrix, n.matrix,
                       rtol=1e-14, atol=0.0)


def test_ladder_rejects_trivial_dim():
    with pytest.raises(ValueError):
        annihilation(1)
    with pytest.raises(ValueError):
        number(0)


# ---------------------------------------------------------------------------
# coherent states and tails


def test_poisson_tail_against_direct_sum():
    # brute-force partial sums as the independent route
    for mean, kept in [(4.0, 26), (4.0, 30), (8.0, 30), (9.0, 30), (0.3, 5)]:
        logp = -mean + np.arange(kept) * math.log(mean) - np.cumsum(
            np.concatenate([[0.0], np.log(np.arange(1, kept))])
        )
        direct = 1.0 - np.exp(logp).sum()
        # the 1-minus-sum route carries ~1e-15 of cancellation noise
        assert poisson_tail(mean, kept) == pytest.approx(direct, abs=1e-14)


def test_poisson_tail_edges():
    assert poisson_tail(0.0, 10) == 0.0
    assert poisson_tail(3.0, 0) == 1.0
    with pytest.raises(ValueError):
        poisson_tail(-1.0, 5)


def test_min_fock_dim_is_minimal():
    for alpha, tol in [(2.0, 1e-12), (3.0, 1e-12), (math.sqrt(8), 1e-15)]:
        dim = min_fock_dim(alpha, tol)
        assert poisson_tail(abs(alpha) ** 2, dim) <= tol
        assert poisson_tail(abs(alpha) ** 2, dim - 1) > tol


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_poisson_tail_rejects_a_non_finite_mean(mean):
    # a NaN or infinite mean used to report 0.0, "nothing truncated"
    with pytest.raises(ValueError, match="finite"):
        poisson_tail(mean, 5)


def test_poisson_tail_refuses_a_nan_cutoff():
    # a NaN cutoff used to report 0.0, "nothing discarded"
    with pytest.raises(ValueError, match="kept must be a number, got nan"):
        poisson_tail(4.0, math.nan)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12])
def test_min_fock_dim_refuses_a_tail_tolerance_that_is_not_positive(tol):
    # a NaN tolerance used to scan all 4,096 cutoffs, then report "tail nan"
    with pytest.raises(ValueError, match=f"tail_tol must be positive, got {tol!r}"):
        min_fock_dim(2.0, tol)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(math.nan, 0.0),
                                   complex(1.0, -math.inf)])
def test_min_fock_dim_names_a_non_finite_amplitude(alpha):
    with pytest.raises(ValueError, match=r"amplitude .*(nan|inf).* is not finite"):
        min_fock_dim(alpha)


@pytest.mark.parametrize("alpha", [64.0 + 1e-9, complex(0.0, math.nextafter(64.0, math.inf)),
                                   1e300, complex(1.7e308, 1.7e308), -1e200j],
                         ids=lambda alpha: f"{alpha}-{FOCK_DIM_CAP}")
def test_min_fock_dim_refuses_a_mean_above_the_cap(alpha):
    """|alpha|^2 > FOCK_DIM_CAP needs no search; huge amplitudes must not overflow."""
    modulus = math.hypot(complex(alpha).real, complex(alpha).imag)
    assert modulus * modulus > FOCK_DIM_CAP == 4096
    with pytest.raises(TruncationError, match=f"no cutoff below {FOCK_DIM_CAP}"):
        min_fock_dim(alpha)


def test_poisson_tail_matches_the_incomplete_gamma_function():
    """P(X >= kept) for X ~ Poisson(mean) is the regularized lower
    incomplete gamma function P(kept, mean)."""
    means = np.concatenate([np.linspace(0.001, 60.0, 121), np.arange(1.0, 61.0)])
    kept = np.arange(1, 161)
    want = gammainc(kept[None, :], means[:, None])
    got = np.array([[poisson_tail(float(m), int(k)) for k in kept] for m in means])
    normal = want > 1e-300  # relative precision ends in the subnormal range
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)
    assert np.all(got[~normal] < 1e-290)


def test_poisson_tail_stops_where_every_term_underflows():
    assert poisson_tail(36.0, 4096) == 0.0


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
def test_min_fock_dim_matches_the_incomplete_gamma_search(tol):
    for alpha in np.arange(751) * 0.01:
        lam = alpha**2
        dims = np.arange(max(2, math.ceil(lam)), 400)
        assert min_fock_dim(alpha, tol) == dims[np.argmax(gammainc(dims, lam) <= tol)], alpha


def test_coherent_vacuum_exact():
    st0 = coherent_state(0.0, 5)
    assert np.array_equal(st0, [1, 0, 0, 0, 0])


def test_coherent_closed_form_overlaps():
    alpha = 1.3 - 0.7j
    dim = min_fock_dim(alpha, 1e-14)
    st1 = coherent_state(alpha, dim, tail_tol=1e-13)
    assert np.linalg.norm(st1) == pytest.approx(1.0, abs=1e-12)
    assert abs(st1[0]) == pytest.approx(math.exp(-abs(alpha) ** 2 / 2), abs=1e-10)
    # |<-a|a>|^2 = exp(-4|a|^2)
    st2 = coherent_state(-alpha, dim, tail_tol=1e-13)
    assert fidelity(st1, st2) == pytest.approx(math.exp(-4 * abs(alpha) ** 2), abs=1e-10)


def test_coherent_tail_at_dim_30():
    # amplitude 2 (Poisson mean 4): the 30-state cutoff is comfortable
    tail = poisson_tail(abs(2.0) ** 2, 30)
    assert tail <= 1e-12
    assert tail == pytest.approx(9.2e-17, rel=0.05)


def test_coherent_rejects_insufficient_cutoff():
    with pytest.raises(TruncationError) as exc:
        coherent_state(3.0, 30)
    need = int(re.search(r"need dim >= (\d+) for tail", str(exc.value)).group(1))
    assert need == min_fock_dim(3.0, 1e-12)
    # the named dim actually suffices
    coherent_state(3.0, need)


@pytest.mark.xfail(
    strict=True,
    reason="a dim-30 cutoff keeps only 1 - 2.8e-8 of an amplitude-3 coherent "
    "state (Poisson mean 9), so a 1e-12 mass guarantee over the whole "
    "|alpha| <= 3 disk is impossible at this cutoff",
)
def test_coherent_tail_dim30_whole_disk():
    assert poisson_tail(3.0**2, 30) <= 1e-12


@given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_coherent_tail_small_disk_dim30(mod, phase):
    """Within |alpha| <= 2 the 30-state truncated mass stays >= 1 - 1e-12."""
    alpha = mod * complex(math.cos(phase), math.sin(phase))
    tail = poisson_tail(abs(alpha) ** 2, 30)
    assert tail <= 1e-12


# ---------------------------------------------------------------------------
# caps, embedding, products


def test_space_cap_enforced():
    # 4M entries > 2^20 cap; a broadcast view, so the refusal allocates nothing
    big = np.broadcast_to(np.complex128(1 / 2048), (2048, 2048))
    with pytest.raises(ValueError, match="allocation cap"):
        pure_state(big)
    with pytest.raises(TypeError, match="density_cap"):
        pure_state(big, density_cap=2**23)  # no way to raise it
    with pytest.raises(ValueError, match=">= 2"):
        pure_state(np.ones((1, 1)))  # every mode keeps at least two Fock states


def test_matrix_alloc_cap():
    dims = (40, 40)  # 1600-dim: state fine, matrix 2.56M > cap
    with pytest.raises(ValueError):
        identity(dims)
    with pytest.raises(ValueError, match="allocation cap"):
        density_matrix(np.broadcast_to(np.complex128(0), (1600, 1600)))


def test_embed_identity_and_commutation():
    dims = (3, 3, 3)
    eye3 = identity((3,))
    assert np.array_equal(embed(eye3, 1, dims).matrix, np.eye(27))
    a1 = embed(annihilation(3), 1, dims)
    a2dag = embed(creation(3), 2, dims)
    assert np.allclose((a1 @ a2dag).matrix, (a2dag @ a1).matrix)


def test_embedded_number_eigenvalues():
    dims = (4, 2, 3)
    n_op = embed(number(4), 0, dims)
    for occ in [(0, 0, 0), (1, 1, 2), (3, 0, 1)]:
        psi = basis_state(dims, occ)
        assert n_op.expectation(psi) == pytest.approx(occ[0], abs=1e-14)


def test_embed_dimension_mismatch():
    dims = (4, 2, 3)
    with pytest.raises(ValueError):
        embed(number(3), 0, dims)
    with pytest.raises(ValueError, match="no mode at axis 3"):
        embed(number(3), 3, dims)


def test_product_state_matches_manual_kron():
    s1 = coherent_state(0.8, 14)
    s2 = coherent_state(-0.5j, 14)
    prod = product_state((s1, s2))
    assert prod.shape == (14, 14)
    assert np.allclose(prod.reshape(-1), np.kron(s1, s2))


# ---------------------------------------------------------------------------
# evolution


def test_evolve_time_zero_identity():
    psi = coherent_state(1.0, 5, tail_tol=1e-2)
    H = Operator((5,), number(5).matrix)
    out = evolve(H, 0.0, psi)
    assert np.array_equal(out, psi)


def test_evolve_diagonal_phases():
    H = Operator((4,), np.diag([0.0, 1.0, 2.5, -3.0]).astype(complex))
    v = np.full(4, 0.5, dtype=complex)
    out = evolve(H, 1.7, pure_state(v))
    expected = 0.5 * np.exp(-1j * np.array([0.0, 1.0, 2.5, -3.0]) * 1.7)
    assert np.allclose(out, expected, atol=1e-14)


def test_evolve_rejects_non_hermitian():
    H = Operator((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        evolve(H, 1.0, basis_state((2,), (0,)))


def test_exchange_hamiltonian_conserved_quantities():
    """The phonon-conditioned exchange keeps b+b and a1+a1 + a2+a2 fixed."""
    dims = (4, 6, 6)
    nb = embed(number(dims[0]), 0, dims)
    a1 = embed(annihilation(dims[1]), 1, dims)
    a2 = embed(annihilation(dims[2]), 2, dims)
    swap = a1.dagger() @ a2 + a1 @ a2.dagger()
    H = Operator(dims, (nb @ swap).matrix * 0.31)
    ntot = a1.dagger() @ a1 + a2.dagger() @ a2

    psi0 = product_state(
        (coherent_state(1.2, dims[0], tail_tol=0.1),
         coherent_state(0.9, dims[1], tail_tol=1e-2),
         coherent_state(-0.4, dims[2], tail_tol=1e-2)),
    )
    before = (nb.expectation(psi0), ntot.expectation(psi0))
    psit = evolve(H, 2.4, psi0)
    after = (nb.expectation(psit), ntot.expectation(psit))
    assert abs(after[0] - before[0]) < 1e-10
    assert abs(after[1] - before[1]) < 1e-10


@given(st.integers(min_value=2, max_value=8), st.floats(min_value=-1e3, max_value=1e3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_evolve_unitary_norm(dim, t, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = pure_state(v / np.linalg.norm(v))
    out = evolve(Operator((dim,), h), t, psi)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# reductions and measures


def test_partial_trace_product_factor():
    s1 = coherent_state(0.7, 14)
    s2 = coherent_state(1.1j, 20)
    prod = product_state((s1, s2))
    rho_a = reduced_density(prod, 0)
    assert np.allclose(rho_a, np.outer(s1, s1.conj()), atol=1e-14)
    assert linear_entropy(rho_a) < 1e-12


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["A", "B", "C"])
def test_reduced_density_matches_the_dense_partial_trace(axis):
    """Each single-mode reduction of a random three-mode state with unequal
    cutoffs equals the full partial trace of its outer product."""
    rng = np.random.default_rng(7)
    dims = (7, 9, 11)
    v = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    psi = pure_state(v / np.linalg.norm(v))
    flat = psi.reshape(-1)
    dense = partial_trace(density_matrix(np.outer(flat, flat.conj())), dims, axis)
    red = reduced_density(psi, axis)
    assert red.shape == dense.shape == (dims[axis],) * 2
    assert np.max(np.abs(red - dense)) <= 1e-15


def test_reduced_density_refuses_an_unnormalized_state():
    """The trace check of the reduced matrix refuses a state off unit norm."""
    v = np.zeros((3, 4), dtype=complex)
    v[1, 2] = 1.001
    for axis in (0, 1):
        with pytest.raises(ValueError, match="trace"):
            reduced_density(v, axis)


def test_reduced_density_refuses_an_oversized_mode_before_allocating():
    """A kept mode whose K x K matrix exceeds the cap is refused before the
    product is formed, so the refusal holds well under one such matrix
    (1100 x 1100 would be 18.5 MiB)."""
    v = np.zeros((1100, 2, 2), dtype=complex)
    v[0, 0, 0] = 1.0
    psi = pure_state(v)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="allocation cap"):
            reduced_density(psi, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert reduced_density(psi, 1).shape == (2, 2)


def test_partial_trace_bell_state():
    bell = pure_state(np.array([[1, 0], [0, 1]]) / math.sqrt(2))
    flat = bell.reshape(-1)
    red = partial_trace(density_matrix(np.outer(flat, flat.conj())), (2, 2), 0)
    assert np.allclose(red, np.eye(2) / 2, atol=1e-15)
    assert linear_entropy(red) == pytest.approx(0.5, abs=1e-14)


def test_partial_trace_validation():
    rho = density_matrix(np.eye(6) / 6)
    assert np.trace(partial_trace(rho, (2, 3), 1)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="no mode at axis 2"):
        partial_trace(rho, (2, 3), 2)
    with pytest.raises(ValueError):
        partial_trace(rho, (3, 3), 0)  # cutoffs that do not fit the matrix


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_bipartite_reductions_equal_entropy(seed):
    rng = np.random.default_rng(seed)
    da, db = rng.integers(2, 7, size=2)
    v = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    psi = pure_state(v.reshape(da, db) / np.linalg.norm(v))
    ea = linear_entropy(reduced_density(psi, 0))
    eb = linear_entropy(reduced_density(psi, 1))
    assert abs(ea - eb) <= 1e-10


def test_linear_entropy_maximally_mixed():
    rho = density_matrix(np.eye(5) / 5)
    assert linear_entropy(rho) == pytest.approx(1 - 1 / 5, abs=1e-14)


def test_fidelity_basics():
    f0 = basis_state((4,), (0,))
    f1 = basis_state((4,), (1,))
    assert fidelity(f0, f0) == 1.0
    assert fidelity(f0, f1) == 0.0
    # symmetric, and invariant under a global phase
    psi = pure_state(np.exp(0.4j) * f0)
    assert fidelity(psi, f0) == pytest.approx(1.0, abs=1e-14)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        density_matrix(np.diag([0.5, 0.5, 0.5]))  # trace 1.5
    with pytest.raises(ValueError, match="square"):
        density_matrix(np.full((2, 3), 1 / 3))  # shape
    ok = np.diag([0.9, 0.1, 0.0])
    density_matrix(ok)
    # a NaN entry, anywhere, makes the Hermiticity deviation NaN
    for where in ((0, 0), (0, 1)):
        bad = ok.copy()
        bad[where] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            density_matrix(bad)
    with pytest.raises(ValueError, match="Hermitian"):
        density_matrix(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        density_matrix(np.diag([1.5, -0.5]))


def test_state_vector_norm_guard():
    with pytest.raises(ValueError):
        pure_state(np.array([1.0, 1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="norm"):
            pure_state(np.full((2, 2, 2), bad))
