"""Dense linear algebra on truncated Fock spaces.

Brute-force reference machinery used to cross-check every analytic
result in this package: ladder operators, coherent states, exact
unitary evolution by Hermitian eigendecomposition, partial traces and
purity-based entanglement measures.

Everything here is dimensionless (hbar = 1).  Hamiltonians are given
in angular-frequency units, so ``evolve(H, t, psi)`` applies
``exp(-1j * H * t)``.

Storage is dense ``numpy`` throughout; the intended working sizes are
a mechanical mode of a few tens of Fock states and two field modes of
comparable size.  A configurable allocation cap guards against
accidentally materializing matrices that do not fit that profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc

from .errors import TruncationError

#: complex entries allowed for one dense matrix (operator or density matrix)
DEFAULT_DENSITY_CAP = 2**20

_DEFAULT_TRIPLE_LABELS = ("N", "TLR1", "TLR2")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TruncatedSpace:
    """Ordered tensor product of truncated Fock spaces with labelled modes.

    Parameters
    ----------
    dims
        Cutoff dimension of each mode, every entry >= 2.
    labels
        Unique name per mode.  Defaults to ``("N", "TLR1", "TLR2")`` for
        three modes and ``("m0", "m1", ...)`` otherwise.
    density_cap
        Maximum number of complex entries a dense matrix on this space
        may allocate.  State vectors are capped at the same entry count.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()
    density_cap: int = DEFAULT_DENSITY_CAP

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("space needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode dimension must be >= 2, got {dims}")
        labels = tuple(self.labels)
        if not labels:
            if len(dims) == 3:
                labels = _DEFAULT_TRIPLE_LABELS
            else:
                labels = tuple(f"m{i}" for i in range(len(dims)))
        object.__setattr__(self, "labels", labels)
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")
        if self.density_cap < 4:
            raise ValueError("density_cap too small")
        if self.dim > self.density_cap:
            raise ValueError(
                f"state of dimension {self.dim} exceeds the allocation cap "
                f"{self.density_cap}; raise density_cap explicitly if intended"
            )

    @property
    def dim(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown mode label {label!r}; this space has {self.labels}"
            ) from None

    def check_matrix_alloc(self) -> None:
        """Reject dense matrix allocation beyond the configured cap."""
        if self.dim * self.dim > self.density_cap:
            raise ValueError(
                f"dense {self.dim}x{self.dim} matrix would allocate "
                f"{self.dim * self.dim} complex entries, above the cap "
                f"{self.density_cap}; raise density_cap explicitly if intended"
            )

    def subspace(self, keep: tuple[str, ...]) -> "TruncatedSpace":
        axes = [self.axis(lbl) for lbl in keep]
        return TruncatedSpace(
            tuple(self.dims[a] for a in axes),
            tuple(self.labels[a] for a in axes),
            self.density_cap,
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


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state.  The norm is validated at construction."""

    space: TruncatedSpace
    vector: np.ndarray
    norm_tol: float = field(default=1e-12, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).ravel()
        if v.size != self.space.dim:
            raise ValueError(
                f"vector length {v.size} does not match space dimension {self.space.dim}"
            )
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > self.norm_tol:
            raise ValueError(
                f"state vector norm {nrm!r} deviates from 1 by more than {self.norm_tol}"
            )
        object.__setattr__(self, "vector", _readonly(v))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def overlap(self, other: "StateVector") -> complex:
        if self.space != other.space:
            raise ValueError("states live on different spaces")
        return complex(np.vdot(self.vector, other.vector))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive (to tolerance) dense state."""

    space: TruncatedSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.space.check_matrix_alloc()
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dimension {self.space.dim}"
            )
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > 1e-12:
            raise ValueError(f"density matrix is not Hermitian (deviation {herm_dev:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


# ---------------------------------------------------------------------------
# single-mode operators


def _mode_space(dim: int, cap: int = DEFAULT_DENSITY_CAP) -> TruncatedSpace:
    return TruncatedSpace((int(dim),), ("mode",), cap)


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


def poisson_tail(mean: float, kept: int) -> float:
    """Probability mass of ``Poisson(mean)`` at or beyond ``kept``.

    This is the photon-number weight a coherent state of
    ``|alpha|^2 = mean`` loses when truncated to ``kept`` Fock states.
    Evaluated through the regularized incomplete gamma function, which
    stays accurate where a naive ``1 - sum`` would round to zero.
    """
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if kept < 1:
        return 1.0
    if mean == 0.0:
        return 0.0
    return float(gammainc(kept, mean))


def min_fock_dim(alpha: complex, tail_tol: float = 1e-12, cap: int = 4096) -> int:
    """Smallest cutoff keeping the coherent tail mass at or below ``tail_tol``."""
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    lam = abs(alpha) ** 2
    dim = max(2, int(math.ceil(lam)))
    while dim <= cap:
        if poisson_tail(lam, dim) <= tail_tol:
            return dim
        dim += 1
    raise TruncationError(
        f"no cutoff below {cap} reaches tail {tail_tol} for amplitude {alpha}",
    )


def coherent_vector(alpha: complex, dim: int) -> tuple[np.ndarray, float]:
    """Truncated, renormalized coherent amplitudes plus the discarded tail mass.

    The recursion ``c_n = c_{n-1} * alpha / sqrt(n)`` starting from
    ``c_0 = exp(-|alpha|^2 / 2)`` is overflow-free because every partial
    amplitude is bounded by 1.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    tail = poisson_tail(abs(alpha) ** 2, dim)
    nrm = float(np.linalg.norm(c))
    if nrm == 0.0:
        raise TruncationError(
            f"coherent amplitude {alpha} has no support below cutoff {dim}",
            required_dim=min_fock_dim(alpha),
        )
    return c / nrm, tail


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


def product_state(states: tuple[StateVector, ...], labels: tuple[str, ...] = (),
                  density_cap: int = DEFAULT_DENSITY_CAP) -> StateVector:
    """Tensor product of single-mode states in the given order."""
    if not states:
        raise ValueError("need at least one state")
    dims = []
    for s in states:
        if len(s.space.dims) != 1:
            raise ValueError("product_state expects single-mode factors")
        dims.append(s.space.dims[0])
    space = TruncatedSpace(tuple(dims), labels, density_cap)
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


def _kept_axes(space: TruncatedSpace, keep: tuple[str, ...]) -> list[int]:
    if not keep:
        raise ValueError("keep must name at least one mode; use .trace for the full trace")
    axes = [space.axis(lbl) for lbl in keep]
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate labels in keep: {keep}")
    if sorted(axes) != axes:
        raise ValueError(f"keep must follow the mode order of the space, got {keep}")
    return axes


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


def reduced_density(psi: StateVector, keep: tuple[str, ...]) -> DensityMatrix:
    """Reduced density matrix of a pure state without forming the full matrix."""
    space = psi.space
    axes = _kept_axes(space, tuple(keep))
    traced = tuple(a for a in range(len(space.dims)) if a not in axes)
    tensor = psi.vector.reshape(space.dims)
    rho = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    sub = space.subspace(tuple(keep))
    return DensityMatrix(sub, rho.reshape(sub.dim, sub.dim))


def linear_entropy(rho: DensityMatrix) -> float:
    """``1 - Tr(rho^2)``, clamped to the valid range ``[0, 1 - 1/D]``."""
    purity = float(np.real(np.vdot(rho.matrix, rho.matrix)))
    d = rho.space.dim
    return float(np.clip(1.0 - purity, 0.0, 1.0 - 1.0 / d))


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """Squared overlap ``|<psi|phi>|^2`` of two pure states."""
    return float(abs(psi.overlap(phi)) ** 2)

