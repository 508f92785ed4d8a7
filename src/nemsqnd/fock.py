"""Truncated Fock spaces, coherent states and reduced states.

The state types the brute-force oracle of ``nemsqnd.entanglement`` works
on: labelled tensor-product spaces with an allocation cap, normalized
state vectors and validated density matrices, coherent amplitudes with
their discarded Poisson tail, and reductions of pure states to
purity-based entanglement measures.

Everything here is dimensionless (hbar = 1).  Storage is dense
``numpy`` throughout; the intended working sizes are a mechanical mode
of a few tens of Fock states and two field modes of comparable size.
A fixed allocation cap (``DEFAULT_DENSITY_CAP``) guards against
accidentally materializing matrices that do not fit that profile.  The dense
operator algebra (ladder operators, embedding, eigendecomposition
evolution, full partial traces) is in ``tests/dense_reference.py``,
the reference the oracle's sector-by-sector evolution is checked
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TruncationError

#: complex entries allowed for one dense matrix (operator or density
#: matrix) and for one state vector
DEFAULT_DENSITY_CAP = 2**20


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
        Unique name per mode.

    States and dense matrices on the space are capped at
    ``DEFAULT_DENSITY_CAP`` complex entries.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("space needs at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode dimension must be >= 2, got {dims}")
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be unique, got {labels}")
        if self.dim > DEFAULT_DENSITY_CAP:
            raise ValueError(
                f"state of dimension {self.dim} exceeds the allocation cap "
                f"{DEFAULT_DENSITY_CAP}"
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
        """Reject dense matrix allocation beyond the cap."""
        if self.dim * self.dim > DEFAULT_DENSITY_CAP:
            raise ValueError(
                f"dense {self.dim}x{self.dim} matrix would allocate "
                f"{self.dim * self.dim} complex entries, above the cap "
                f"{DEFAULT_DENSITY_CAP}"
            )

    def subspace(self, keep: tuple[str, ...]) -> "TruncatedSpace":
        axes = [self.axis(lbl) for lbl in keep]
        return TruncatedSpace(
            tuple(self.dims[a] for a in axes),
            tuple(self.labels[a] for a in axes),
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
    For ``kept <= mean`` the tail is at least about one half, so it is
    one minus the head sum; beyond the mean the terms fall off, and the
    tail is summed forward from ``kept`` in log space, which stays
    accurate where a naive ``1 - sum`` would round to zero.  The sum
    stops on the first term that underflows or no longer moves it.
    """
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean!r}")
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if kept < 1:
        return 1.0
    if mean == 0.0:
        return 0.0
    log_mean = math.log(mean)

    def term(n):
        return math.exp(n * log_mean - mean - math.lgamma(n + 1))

    if kept <= mean:
        return max(0.0, 1.0 - math.fsum(term(n) for n in range(kept)))
    total, n, t = 0.0, kept, term(kept)
    while t > total * 1e-17:
        total += t
        n += 1
        t *= mean / n
    return total


def min_fock_dim(alpha: complex, tail_tol: float = 1e-12, cap: int = 4096) -> int:
    """Smallest cutoff keeping the coherent tail mass at or below ``tail_tol``."""
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    z = complex(alpha)
    if not cmath.isfinite(z):
        raise ValueError(f"amplitude {alpha!r} is not finite")
    # hypot and * give inf past the float range, where abs and ** raise
    modulus = math.hypot(z.real, z.imag)
    lam = modulus * modulus
    # no cutoff up to the cap fits a mean above it; skip straight to the error
    dim = max(2, math.ceil(lam)) if lam <= cap else cap + 1
    while dim <= cap:
        if poisson_tail(lam, dim) <= tail_tol:
            return dim
        dim += 1
    raise TruncationError(
        f"no cutoff below {cap} reaches tail {tail_tol} for amplitude {alpha}",
    )


def coherent_amplitudes(alpha: complex, n_terms: int) -> np.ndarray:
    """The first ``n_terms`` Fock amplitudes ``e^{-|alpha|^2/2} alpha^n / sqrt(n!)``.

    The recursion ``c_n = c_{n-1} * alpha / sqrt(n)`` starting from
    ``c_0 = exp(-|alpha|^2 / 2)`` is overflow-free because every partial
    amplitude is bounded by 1.
    """
    c = np.empty(n_terms, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_terms):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def coherent_vector(alpha: complex, dim: int) -> tuple[np.ndarray, float]:
    """Truncated, renormalized coherent amplitudes plus the discarded tail mass."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    c = coherent_amplitudes(alpha, dim)
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
    """Reduced density matrix of a pure state without forming the full matrix.

    The state is matricized with the kept modes as rows, ``x`` (K x T),
    and ``rho = x x^dagger``.  That holds at most two state-size arrays
    beside the state: ``x``, a copy unless the kept modes lead, and its
    conjugate.
    """
    space = psi.space
    axes = _kept_axes(space, tuple(keep))
    sub = space.subspace(tuple(keep))
    x = np.moveaxis(psi.vector.reshape(space.dims), axes, range(len(axes))).reshape(sub.dim, -1)
    return DensityMatrix(sub, x @ x.conj().T)


def linear_entropy(rho: DensityMatrix) -> float:
    """``1 - Tr(rho^2)``, clamped to the valid range ``[0, 1 - 1/D]``."""
    purity = float(np.real(np.vdot(rho.matrix, rho.matrix)))
    d = rho.space.dim
    return float(np.clip(1.0 - purity, 0.0, 1.0 - 1.0 / d))
