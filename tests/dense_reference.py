"""Dense operator algebra on truncated Fock spaces.

The independent reference the library's fast paths are checked against:
ladder operators, coherent states, embedding and products of single-mode
objects, exact unitary evolution by Hermitian eigendecomposition, full
partial traces and pure-state fidelity.  Everything is dense ``numpy``
on the library's ``TruncatedSpace``/``StateVector``/``DensityMatrix``
types, which enforce the allocation cap and the state invariants; in
particular ``evolve`` shares no code with
``nemsqnd.entanglement.exchange_evolve``, the sector-by-sector
propagator it judges.  ``layer_entropies`` is the three full double sums
over branch overlaps that the factored entropy kernel of
``nemsqnd.entanglement`` is judged against.

Dimensionless throughout (hbar = 1): ``evolve(H, t, psi)`` applies
``exp(-1j * H * t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nemsqnd.errors import TruncationError
from nemsqnd.fock import (
    DensityMatrix,
    StateVector,
    TruncatedSpace,
    _kept_axes,
    _readonly,
    coherent_vector,
    min_fock_dim,
    poisson_tail,
)


@dataclass(frozen=True)
class Operator:
    """Dense operator on a :class:`TruncatedSpace`.  Immutable."""

    space: TruncatedSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.space.check_matrix_alloc()
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dimension {self.space.dim}"
            )
        object.__setattr__(self, "matrix", _readonly(m))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def expectation(self, psi: "StateVector") -> complex:
        if psi.space != self.space:
            raise ValueError("state and operator live on different spaces")
        return complex(np.vdot(psi.vector, self.matrix @ psi.vector))

    def _same_space(self, other: "Operator") -> None:
        if self.space != other.space:
            raise ValueError("operators live on different spaces")


# ---------------------------------------------------------------------------
# single-mode operators


def _mode_space(dim: int) -> TruncatedSpace:
    return TruncatedSpace((int(dim),), ("mode",))


def annihilation(dim: int) -> Operator:
    """Truncated annihilation operator, ``<n-1|a|n> = sqrt(n)``.

    On the truncated space ``[a, a^dag]`` equals the identity except in
    the last diagonal entry, which is ``1 - dim``.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    m[ns - 1, ns] = np.sqrt(ns)
    return Operator(_mode_space(dim), m)


def creation(dim: int) -> Operator:
    return annihilation(dim).dagger()


def number(dim: int) -> Operator:
    """Exact diagonal number operator ``diag(0, 1, ..., dim-1)``."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return Operator(_mode_space(dim), np.diag(np.arange(dim, dtype=float)).astype(complex))


def identity(space: TruncatedSpace) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def basis_state(space: TruncatedSpace, occupations: tuple[int, ...]) -> StateVector:
    """Product Fock state ``|n_0, n_1, ...>``."""
    if len(occupations) != len(space.dims):
        raise ValueError("one occupation number per mode required")
    for n, d in zip(occupations, space.dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside [0, {d})")
    v = np.zeros(space.dim, dtype=complex)
    v[int(np.ravel_multi_index(occupations, space.dims))] = 1.0
    return StateVector(space, v)


# ---------------------------------------------------------------------------
# coherent states


def coherent_state(alpha: complex, dim: int, tail_tol: float = 1e-12) -> StateVector:
    """Truncated coherent state ``|alpha>`` renormalized on ``dim`` Fock states.

    Raises
    ------
    TruncationError
        If the discarded tail mass exceeds ``tail_tol``; the error names
        the smallest sufficient cutoff.
    """
    tail = poisson_tail(abs(alpha) ** 2, dim)
    if tail > tail_tol:
        need = min_fock_dim(alpha, tail_tol)
        raise TruncationError(
            f"cutoff {dim} keeps only 1 - {tail:.3e} of |alpha={alpha}|; "
            f"need dim >= {need} for tail {tail_tol}",
            required_dim=need,
        )
    v, _ = coherent_vector(alpha, dim)
    return StateVector(_mode_space(dim), v)


# ---------------------------------------------------------------------------
# composition


def embed(op: Operator, label: str, space: TruncatedSpace) -> Operator:
    """Lift a single-mode operator to ``space`` acting on mode ``label``."""
    if len(op.space.dims) != 1:
        raise ValueError("embed expects a single-mode operator")
    axis = space.axis(label)
    if op.space.dims[0] != space.dims[axis]:
        raise ValueError(
            f"operator dimension {op.space.dims[0]} does not match mode "
            f"{label!r} of dimension {space.dims[axis]}"
        )
    left = int(np.prod(space.dims[:axis], dtype=np.int64)) if axis else 1
    right = int(np.prod(space.dims[axis + 1 :], dtype=np.int64)) if axis + 1 < len(space.dims) else 1
    m = np.kron(np.kron(np.eye(left), op.matrix), np.eye(right))
    return Operator(space, m)


def product_state(states: tuple[StateVector, ...], labels: tuple[str, ...]) -> StateVector:
    """Tensor product of single-mode states in the given order."""
    if not states:
        raise ValueError("need at least one state")
    dims = []
    for s in states:
        if len(s.space.dims) != 1:
            raise ValueError("product_state expects single-mode factors")
        dims.append(s.space.dims[0])
    space = TruncatedSpace(tuple(dims), labels)
    v = states[0].vector
    for s in states[1:]:
        v = np.kron(v, s.vector)
    return StateVector(space, v)


# ---------------------------------------------------------------------------
# evolution


def evolve(H: Operator, t: float, psi0: StateVector) -> StateVector:
    """Apply ``exp(-1j H t)`` through an eigendecomposition of ``H``.

    ``H`` must be Hermitian within 1e-10 (absolute, scaled by the largest
    entry).  The result keeps the input norm to 1e-10.
    """
    if psi0.space != H.space:
        raise ValueError("state and Hamiltonian live on different spaces")
    m = H.matrix
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > 1e-10 * scale:
        raise ValueError(f"Hamiltonian is not Hermitian (deviation {dev:.3e})")
    evals, evecs = np.linalg.eigh(m)
    phases = np.exp(-1j * evals * t)
    v = evecs @ (phases * (evecs.conj().T @ psi0.vector))
    return StateVector(psi0.space, v, norm_tol=1e-10)


# ---------------------------------------------------------------------------
# reductions and measures


def partial_trace(rho: DensityMatrix, keep: tuple[str, ...]) -> DensityMatrix:
    """Trace out every mode not named in ``keep``."""
    space = rho.space
    axes = _kept_axes(space, tuple(keep))
    nmodes = len(space.dims)
    tensor = rho.matrix.reshape(space.dims + space.dims)
    traced = [a for a in range(nmodes) if a not in axes]
    for a in reversed(traced):
        tensor = np.trace(tensor, axis1=a, axis2=a + nmodes)
        nmodes -= 1
    sub = space.subspace(tuple(keep))
    return DensityMatrix(sub, tensor.reshape(sub.dim, sub.dim))


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """Squared overlap ``|<psi|phi>|^2`` of two pure states."""
    if psi.space != phi.space:
        raise ValueError("states live on different spaces")
    return float(abs(np.vdot(psi.vector, phi.vector)) ** 2)


# ---------------------------------------------------------------------------
# analytic entropies by the three full double sums


def _entropy_block(p: np.ndarray, beta_n: np.ndarray, gamma_n: np.ndarray) -> np.ndarray:
    """Entropies, shape (3, k), from layer weights ``p`` and (k, n) branch amplitudes."""
    w = np.outer(p, p)
    d1 = np.abs(beta_n[:, :, None] - beta_n[:, None, :]) ** 2
    d2 = np.abs(gamma_n[:, :, None] - gamma_n[:, None, :]) ** 2
    sums = [np.sum(w * np.exp(-d), axis=(1, 2)) for d in (d1 + d2, d1, d2)]
    return np.clip(1.0 - np.array(sums), 0.0, 1.0)


def layer_entropies(p: np.ndarray, beta: complex, gamma: complex, theta_ts) -> np.ndarray:
    """(E_N|12, E_1|N2, E_2|N1), shape (3, k), at the k phases ``theta_ts``.

    Branch amplitudes ``beta_n = beta cos(n theta_t) - i gamma sin(n theta_t)``
    and ``gamma_n = gamma cos(n theta_t) - i beta sin(n theta_t)`` of the
    layers n < len(p), every pair (n, m) summed in full.
    """
    phi = np.arange(p.size) * np.asarray(theta_ts, dtype=float).reshape(-1, 1)
    beta_n = beta * np.cos(phi) - 1j * gamma * np.sin(phi)
    gamma_n = gamma * np.cos(phi) - 1j * beta * np.sin(phi)
    return _entropy_block(p, beta_n, gamma_n)
