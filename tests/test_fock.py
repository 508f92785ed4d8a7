import math

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

from nemsqnd.errors import TruncationError
from nemsqnd.fock import (
    DensityMatrix,
    StateVector,
    TruncatedSpace,
    coherent_vector,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
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


def test_coherent_vacuum_exact():
    st0 = coherent_state(0.0, 5)
    assert np.array_equal(st0.vector, [1, 0, 0, 0, 0])


def test_coherent_closed_form_overlaps():
    alpha = 1.3 - 0.7j
    dim = min_fock_dim(alpha, 1e-14)
    st1 = coherent_state(alpha, dim, tail_tol=1e-13)
    assert st1.norm == pytest.approx(1.0, abs=1e-12)
    assert abs(st1.vector[0]) == pytest.approx(math.exp(-abs(alpha) ** 2 / 2), abs=1e-10)
    # |<-a|a>|^2 = exp(-4|a|^2)
    st2 = coherent_state(-alpha, dim, tail_tol=1e-13)
    assert fidelity(st1, st2) == pytest.approx(math.exp(-4 * abs(alpha) ** 2), abs=1e-10)


def test_coherent_tail_at_dim_30():
    # amplitude 2 (Poisson mean 4): the 30-state cutoff is comfortable
    _, tail = coherent_vector(2.0, 30)
    assert tail <= 1e-12
    assert tail == pytest.approx(9.2e-17, rel=0.05)


def test_coherent_rejects_insufficient_cutoff():
    with pytest.raises(TruncationError) as exc:
        coherent_state(3.0, 30)
    assert exc.value.required_dim == min_fock_dim(3.0, 1e-12)
    # the named dim actually suffices
    coherent_state(3.0, exc.value.required_dim)


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
    _, tail = coherent_vector(alpha, 30)
    assert tail <= 1e-12


# ---------------------------------------------------------------------------
# spaces, embedding, products


def test_space_labels_and_axis():
    space = TruncatedSpace((3, 4, 5))
    assert space.labels == ("N", "TLR1", "TLR2")
    assert space.axis("TLR2") == 2
    with pytest.raises(ValueError):
        space.axis("nope")


def test_space_cap_enforced():
    with pytest.raises(ValueError):
        TruncatedSpace((2048, 2048))  # 4M-dim state > 2^20 cap
    TruncatedSpace((2048, 2048), density_cap=2**23)


def test_matrix_alloc_cap():
    space = TruncatedSpace((40, 40))  # 1600-dim: state fine, matrix 2.56M > cap
    with pytest.raises(ValueError):
        identity(space)


def test_embed_identity_and_commutation():
    space = TruncatedSpace((3, 3, 3))
    eye3 = identity(TruncatedSpace((3,), ("mode",)))
    assert np.array_equal(embed(eye3, "TLR1", space).matrix, np.eye(27))
    a1 = embed(annihilation(3), "TLR1", space)
    a2dag = embed(creation(3), "TLR2", space)
    assert np.allclose((a1 @ a2dag).matrix, (a2dag @ a1).matrix)


def test_embedded_number_eigenvalues():
    space = TruncatedSpace((4, 2, 3))
    n_op = embed(number(4), "N", space)
    for occ in [(0, 0, 0), (1, 1, 2), (3, 0, 1)]:
        psi = basis_state(space, occ)
        assert n_op.expectation(psi) == pytest.approx(occ[0], abs=1e-14)


def test_embed_dimension_mismatch():
    space = TruncatedSpace((4, 2, 3))
    with pytest.raises(ValueError):
        embed(number(3), "N", space)


def test_product_state_matches_manual_kron():
    s1 = coherent_state(0.8, 14)
    s2 = coherent_state(-0.5j, 14)
    prod = product_state((s1, s2), labels=("TLR1", "TLR2"))
    assert np.allclose(prod.vector, np.kron(s1.vector, s2.vector))


# ---------------------------------------------------------------------------
# evolution


def test_evolve_time_zero_identity():
    space = TruncatedSpace((5,), ("mode",))
    psi = coherent_state(1.0, 5, tail_tol=1e-2)
    H = Operator(space, number(5).matrix)
    out = evolve(H, 0.0, StateVector(space, psi.vector))
    assert np.array_equal(out.vector, psi.vector)


def test_evolve_diagonal_phases():
    space = TruncatedSpace((4,), ("mode",))
    H = Operator(space, np.diag([0.0, 1.0, 2.5, -3.0]).astype(complex))
    v = np.full(4, 0.5, dtype=complex)
    out = evolve(H, 1.7, StateVector(space, v))
    expected = 0.5 * np.exp(-1j * np.array([0.0, 1.0, 2.5, -3.0]) * 1.7)
    assert np.allclose(out.vector, expected, atol=1e-14)


def test_evolve_rejects_non_hermitian():
    space = TruncatedSpace((2,), ("mode",))
    H = Operator(space, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        evolve(H, 1.0, basis_state(space, (0,)))


def test_exchange_hamiltonian_conserved_quantities():
    """The phonon-conditioned exchange keeps b+b and a1+a1 + a2+a2 fixed."""
    dims = (4, 6, 6)
    space = TruncatedSpace(dims)
    nb = embed(number(dims[0]), "N", space)
    a1 = embed(annihilation(dims[1]), "TLR1", space)
    a2 = embed(annihilation(dims[2]), "TLR2", space)
    swap = a1.dagger() @ a2 + a1 @ a2.dagger()
    H = Operator(space, (nb @ swap).matrix * 0.31)
    ntot = a1.dagger() @ a1 + a2.dagger() @ a2

    psi0 = product_state(
        (coherent_state(1.2, dims[0], tail_tol=0.1),
         coherent_state(0.9, dims[1], tail_tol=1e-2),
         coherent_state(-0.4, dims[2], tail_tol=1e-2)),
        labels=space.labels,
    )
    psi0 = StateVector(space, psi0.vector)
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
    space = TruncatedSpace((dim,), ("mode",))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = StateVector(space, v / np.linalg.norm(v))
    out = evolve(Operator(space, h), t, psi)
    assert abs(out.norm - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# reductions and measures


def test_partial_trace_product_factor():
    s1 = coherent_state(0.7, 14)
    s2 = coherent_state(1.1j, 20)
    prod = product_state((s1, s2), labels=("A", "B"))
    rho_a = reduced_density(prod, ("A",))
    assert np.allclose(rho_a.matrix, np.outer(s1.vector, s1.vector.conj()), atol=1e-14)
    assert linear_entropy(rho_a) < 1e-12


def test_partial_trace_bell_state():
    space = TruncatedSpace((2, 2), ("A", "B"))
    bell = StateVector(space, np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = DensityMatrix(space, np.outer(bell.vector, bell.vector.conj()))
    red = partial_trace(rho, ("A",))
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-15)
    assert linear_entropy(red) == pytest.approx(0.5, abs=1e-14)


def test_partial_trace_validation():
    space = TruncatedSpace((2, 3), ("A", "B"))
    rho = DensityMatrix(space, np.eye(6) / 6)
    assert partial_trace(rho, ("B",)).trace == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, ("B", "A"))  # must follow mode order


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_bipartite_reductions_equal_entropy(seed):
    rng = np.random.default_rng(seed)
    da, db = rng.integers(2, 7, size=2)
    v = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    space = TruncatedSpace((int(da), int(db)), ("A", "B"))
    psi = StateVector(space, v / np.linalg.norm(v))
    ea = linear_entropy(reduced_density(psi, ("A",)))
    eb = linear_entropy(reduced_density(psi, ("B",)))
    assert abs(ea - eb) <= 1e-10


def test_linear_entropy_maximally_mixed():
    space = TruncatedSpace((5,), ("mode",))
    rho = DensityMatrix(space, np.eye(5) / 5)
    assert linear_entropy(rho) == pytest.approx(1 - 1 / 5, abs=1e-14)


def test_fidelity_basics():
    space = TruncatedSpace((4,), ("mode",))
    f0 = basis_state(space, (0,))
    f1 = basis_state(space, (1,))
    assert fidelity(f0, f0) == 1.0
    assert fidelity(f0, f1) == 0.0
    # symmetric, and invariant under a global phase
    psi = StateVector(space, np.exp(0.4j) * f0.vector)
    assert fidelity(psi, f0) == pytest.approx(1.0, abs=1e-14)


def test_density_matrix_validation():
    space = TruncatedSpace((3,), ("mode",))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.diag([0.5, 0.5, 0.5]))  # trace 1.5
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[1, 1], [0, 0]]))  # shape
    ok = np.diag([0.9, 0.1, 0.0])
    DensityMatrix(space, ok)


def test_state_vector_norm_guard():
    space = TruncatedSpace((3,), ("mode",))
    with pytest.raises(ValueError):
        StateVector(space, np.array([1.0, 1.0, 0.0]))
