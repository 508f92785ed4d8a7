"""Truncated Fock states, coherent states and reduced states.

The states the brute-force oracle of ``nemsqnd.entanglement`` works on,
all plain complex arrays: normalized pure states with one axis per mode,
each as long as its cutoff (checked by ``pure_state``), density matrices
(checked by ``density_matrix``), coherent amplitudes with their
discarded Poisson tail, and reductions of pure states to purity-based
entanglement measures.  A mode is addressed by its axis.

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

import numpy as np

from .errors import TruncationError

#: complex entries allowed for one dense matrix (operator or density
#: matrix) and for one state vector
DEFAULT_DENSITY_CAP = 2**20

#: largest cutoff ``min_fock_dim`` searches
FOCK_DIM_CAP = 4096


def _check_cap(entries: int, what: str) -> None:
    if entries > DEFAULT_DENSITY_CAP:
        raise ValueError(
            f"{what} of {entries} complex entries exceeds the allocation cap "
            f"{DEFAULT_DENSITY_CAP}"
        )


def _check_modes(dims: tuple[int, ...]) -> None:
    """Refuse a state shape with a mode below two Fock states or over the cap."""
    if not dims or min(dims) < 2:
        raise ValueError(f"every mode dimension must be >= 2, got {dims}")
    _check_cap(math.prod(dims), "state")


def pure_state(amplitudes, norm_tol: float = 1e-12) -> np.ndarray:
    """``amplitudes`` as a complex array, checked to be a normalized pure state.

    One axis per mode, each as long as that mode's cutoff (>= 2); the
    oracle's modes are axis 0 = phonons, 1 = TLR1 and 2 = TLR2.  The
    entry count is capped at ``DEFAULT_DENSITY_CAP`` before the input is
    converted, and the norm must be 1 within ``norm_tol``.
    """
    _check_modes(np.shape(amplitudes))
    v = np.asarray(amplitudes, dtype=complex)
    nrm = float(np.linalg.norm(v))
    # every check here is written so that NaN, which compares false, fails it
    if not abs(nrm - 1.0) <= norm_tol:
        raise ValueError(
            f"state vector norm {nrm!r} deviates from 1 by more than {norm_tol}"
        )
    return v


def density_matrix(m) -> np.ndarray:
    """``m`` as a complex array, checked to be Hermitian, of unit trace and
    positive (to tolerance); the entry cap applies before it is converted."""
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"density matrix must be square, got shape {shape}")
    _check_cap(shape[0] * shape[1], "density matrix")
    m = np.asarray(m, dtype=complex)
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if not herm_dev <= 1e-12:
        raise ValueError(f"density matrix is not Hermitian (deviation {herm_dev:.3e})")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= 1e-10:
        raise ValueError(f"density matrix trace {tr!r} deviates from 1")
    lo = float(np.linalg.eigvalsh(m)[0])
    if not lo >= -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return m


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
    if math.isnan(kept):
        raise ValueError(f"kept must be a number, got {kept!r}")
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


def min_fock_dim(alpha: complex, tail_tol: float = 1e-12) -> int:
    """Smallest cutoff up to ``FOCK_DIM_CAP`` keeping the coherent tail mass
    at or below ``tail_tol``."""
    if not tail_tol > 0:  # NaN included
        raise ValueError(f"tail_tol must be positive, got {tail_tol!r}")
    z = complex(alpha)
    if not cmath.isfinite(z):
        raise ValueError(f"amplitude {alpha!r} is not finite")
    # hypot and * give inf past the float range, where abs and ** raise
    modulus = math.hypot(z.real, z.imag)
    lam = modulus * modulus
    # no cutoff up to the cap fits a mean above it; skip straight to the error
    dim = max(2, math.ceil(lam)) if lam <= FOCK_DIM_CAP else FOCK_DIM_CAP + 1
    while dim <= FOCK_DIM_CAP:
        if poisson_tail(lam, dim) <= tail_tol:
            return dim
        dim += 1
    raise TruncationError(
        f"no cutoff below {FOCK_DIM_CAP} reaches tail {tail_tol} for amplitude {alpha}",
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


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent amplitudes, renormalized (``poisson_tail`` is the loss)."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    c = coherent_amplitudes(alpha, dim)
    nrm = float(np.linalg.norm(c))
    if nrm == 0.0:
        raise TruncationError(f"coherent amplitude {alpha} has no support below cutoff {dim}")
    return c / nrm


# ---------------------------------------------------------------------------
# reductions and measures


def reduced_density(psi: np.ndarray, axis: int) -> np.ndarray:
    """Reduced density matrix of mode ``axis`` of a pure state, without
    forming the full matrix or a copy of the state.

    With the kept mode as rows, the state is a K x T matrix x and ``rho =
    x x^dagger``, accumulated over the slabs of one other mode (the
    first, or the second when the first is kept): column blocks of x,
    each copied and conjugated alone.  A K x K result over the allocation
    cap is refused before any is formed, and the result goes through
    ``density_matrix``, whose trace check refuses a state off unit norm.
    """
    x = np.moveaxis(psi, axis, 0)
    k = x.shape[0]
    _check_cap(k * k, "density matrix")
    rho = np.zeros((k, k), dtype=complex)
    for s in [x] if x.ndim == 1 else np.moveaxis(x, 1, 0):
        s = s.reshape(k, -1)
        rho += s @ s.conj().T
    return density_matrix(rho)


def linear_entropy(rho: np.ndarray) -> float:
    """``1 - Tr(rho^2)``, clamped to the valid range ``[0, 1 - 1/D]``.

    ``rho`` is a density matrix already validated by ``density_matrix``
    (``reduced_density`` returns one) and is not checked again.
    """
    purity = float(np.real(np.vdot(rho, rho)))
    d = rho.shape[0]
    return float(np.clip(1.0 - purity, 0.0, 1.0 - 1.0 / d))
