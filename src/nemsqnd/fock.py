"""Truncated Fock spaces, coherent states and reduced states.

The state types the brute-force oracle of ``nemsqnd.entanglement`` works
on: labelled tensor-product spaces with an allocation cap, normalized
state vectors and validated density matrices, coherent amplitudes with
their discarded Poisson tail, and reductions of pure states to
purity-based entanglement measures.

Everything here is dimensionless (hbar = 1).  Storage is dense
``numpy`` throughout; the intended working sizes are a mechanical mode
of a few tens of Fock states and two field modes of comparable size.
A configurable allocation cap guards against accidentally
materializing matrices that do not fit that profile.  The dense
operator algebra (ladder operators, embedding, eigendecomposition
evolution, full partial traces) is in ``tests/dense_reference.py``,
the reference the oracle's sector-by-sector evolution is checked
against.
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
