"""Dense operator algebra on truncated Fock spaces.

The independent reference the library's fast paths are checked against:
ladder operators, coherent states, embedding and products of single-mode
objects, exact unitary evolution by Hermitian eigendecomposition, full
partial traces and pure-state fidelity.  Everything is dense ``numpy``.
An ``Operator`` acts on modes of the cutoffs ``dims`` and enforces the
allocation cap itself; states are plain arrays, checked by the
library's ``pure_state`` and ``density_matrix``, which enforce the cap
and the state invariants.  A mode is addressed by its axis, as in the
library.  ``evolve`` shares no code with
``nemsqnd.entanglement.exchange_evolve``, the sector-by-sector
propagator it judges.  ``layer_entropies`` is the three full double sums
over branch overlaps that the factored entropy kernel of
``nemsqnd.entanglement`` is judged against.

Dimensionless throughout (hbar = 1): ``evolve(H, t, psi)`` applies
``exp(-1j * H * t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nemsqnd.errors import TruncationError
from nemsqnd.fock import (
    DEFAULT_DENSITY_CAP,
    coherent_vector,
    density_matrix,
    min_fock_dim,
    poisson_tail,
    pure_state,
)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only contiguous view; the caller's own array stays writeable."""
    arr = np.ascontiguousarray(arr).view()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Operator:
    """Dense operator on modes with cutoffs ``dims``.  Immutable."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        dim = math.prod(dims)
        if dim * dim > DEFAULT_DENSITY_CAP:
            raise ValueError(
                f"dense {dim}x{dim} matrix would allocate {dim * dim} complex "
                f"entries, above the cap {DEFAULT_DENSITY_CAP}"
            )
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match modes {dims}")
        object.__setattr__(self, "matrix", _readonly(m))

    def dagger(self) -> "Operator":
        return Operator(self.dims, self.matrix.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_modes(other)
        return Operator(self.dims, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._same_modes(other)
        return Operator(self.dims, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_modes(other)
        return Operator(self.dims, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.dims, self.matrix * scalar)

    __rmul__ = __mul__

    def expectation(self, psi: np.ndarray) -> complex:
        if np.shape(psi) != self.dims:
            raise ValueError("state and operator live on different modes")
        v = np.reshape(psi, -1)
        return complex(np.vdot(v, self.matrix @ v))

    def _same_modes(self, other: "Operator") -> None:
        if self.dims != other.dims:
            raise ValueError("operators live on different modes")


# ---------------------------------------------------------------------------
# single-mode operators


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
    return Operator((dim,), m)


def creation(dim: int) -> Operator:
    return annihilation(dim).dagger()


def number(dim: int) -> Operator:
    """Exact diagonal number operator ``diag(0, 1, ..., dim-1)``."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    return Operator((dim,), np.diag(np.arange(dim, dtype=float)).astype(complex))


def identity(dims: tuple[int, ...]) -> Operator:
    return Operator(dims, np.eye(math.prod(dims), dtype=complex))


def basis_state(dims: tuple[int, ...], occupations: tuple[int, ...]) -> np.ndarray:
    """Product Fock state ``|n_0, n_1, ...>``."""
    if len(occupations) != len(dims):
        raise ValueError("one occupation number per mode required")
    for n, d in zip(occupations, dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside [0, {d})")
    v = np.zeros(dims, dtype=complex)
    v[tuple(occupations)] = 1.0
    return pure_state(v)


# ---------------------------------------------------------------------------
# coherent states


def coherent_state(alpha: complex, dim: int, tail_tol: float = 1e-12) -> np.ndarray:
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
            f"need dim >= {need} for tail {tail_tol}"
        )
    return pure_state(coherent_vector(alpha, dim))


# ---------------------------------------------------------------------------
# composition


def embed(op: Operator, axis: int, dims: tuple[int, ...]) -> Operator:
    """Lift a single-mode operator to mode ``axis`` of modes with cutoffs ``dims``."""
    if len(op.dims) != 1:
        raise ValueError("embed expects a single-mode operator")
    if not 0 <= axis < len(dims):
        raise ValueError(f"no mode at axis {axis} of {len(dims)} modes")
    if op.dims[0] != dims[axis]:
        raise ValueError(
            f"operator dimension {op.dims[0]} does not match mode "
            f"{axis} of dimension {dims[axis]}"
        )
    left, right = math.prod(dims[:axis]), math.prod(dims[axis + 1:])
    m = np.kron(np.kron(np.eye(left), op.matrix), np.eye(right))
    return Operator(dims, m)


def product_state(states: tuple[np.ndarray, ...]) -> np.ndarray:
    """Tensor product of single-mode states, one axis per factor in order."""
    if not states:
        raise ValueError("need at least one state")
    if any(np.ndim(s) != 1 for s in states):
        raise ValueError("product_state expects single-mode factors")
    v = states[0]
    for s in states[1:]:
        v = np.kron(v, s)
    return pure_state(v.reshape([len(s) for s in states]))


# ---------------------------------------------------------------------------
# evolution


def evolve(H: Operator, t: float, psi0: np.ndarray) -> np.ndarray:
    """Apply ``exp(-1j H t)`` through an eigendecomposition of ``H``.

    ``H`` must be Hermitian within 1e-10 (absolute, scaled by the largest
    entry).  The result keeps the input norm to 1e-10.
    """
    if np.shape(psi0) != H.dims:
        raise ValueError("state and Hamiltonian live on different modes")
    m = H.matrix
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > 1e-10 * scale:
        raise ValueError(f"Hamiltonian is not Hermitian (deviation {dev:.3e})")
    evals, evecs = np.linalg.eigh(m)
    phases = np.exp(-1j * evals * t)
    v = evecs @ (phases * (evecs.conj().T @ np.reshape(psi0, -1)))
    return pure_state(v.reshape(H.dims), norm_tol=1e-10)


# ---------------------------------------------------------------------------
# reductions and measures


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], axis: int) -> np.ndarray:
    """Trace every mode but ``axis`` out of ``rho`` on modes with cutoffs ``dims``."""
    dims = tuple(int(d) for d in dims)
    nmodes = len(dims)
    if not 0 <= axis < nmodes:
        raise ValueError(f"no mode at axis {axis} of {nmodes} modes")
    tensor = np.reshape(rho, dims + dims)
    for a in reversed(range(nmodes)):
        if a != axis:
            tensor = np.trace(tensor, axis1=a, axis2=a + nmodes)
            nmodes -= 1
    return density_matrix(tensor)


def fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """Squared overlap ``|<psi|phi>|^2`` of two pure states."""
    if np.shape(psi) != np.shape(phi):
        raise ValueError("states live on different modes")
    return float(abs(np.vdot(psi, phi)) ** 2)


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
