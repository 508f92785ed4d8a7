"""Phonon-conditioned beam-splitter dynamics and tripartite entanglement.

The exchange interaction ``(theta0 + theta * b^dag b)(a1^dag a2 + a1 a2^dag)``
conserves the phonon number, so within phonon sector ``n`` it acts on the
two resonator modes as a beam splitter of mixing angle
``phi_n = theta0*t + n*theta*t``.  From an initial product of coherent
states ``|alpha>_N |beta>_1 |gamma>_2`` the state stays a single sum over
phonon layers,

    |psi(t)> = sum_n C_n |n> |beta_n(t)> |gamma_n(t)>,

with Poissonian coefficients ``C_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!)``
and coherent branch amplitudes

    beta_n(t)  = beta  cos(phi_n) - i gamma sin(phi_n)
    gamma_n(t) = gamma cos(phi_n) - i beta  sin(phi_n).

The analytic side drops the ``theta0`` part of the angle (``phi_n = n
theta t``): it rotates the two resonators identically in every phonon
layer, so it cannot entangle them with the mechanics, and dropping it
matches the analytic object the entropies are quoted for.  The
brute-force entropies of ``brute_force_entropies`` accept it back as an
explicit opt-in.

The three bipartite linear entropies of the pure tripartite state are
sums over branch overlaps; with ``p_n = |C_n|^2``:

    E_N|12 = 1 - sum_{n,m} p_n p_m exp(-|beta_n-beta_m|^2 - |gamma_n-gamma_m|^2)
    E_1|N2 = 1 - sum_{n,m} p_n p_m exp(-|beta_n-beta_m|^2)
    E_2|N1 = 1 - sum_{n,m} p_n p_m exp(-|gamma_n-gamma_m|^2)

Layer n applies the beam splitter U(phi) = exp(-i phi K) n times, U(n
phi) = U(phi)^n (SU(2) beam-splitter algebra; Campos, Saleh & Teich, PRA
40, 1371 (1989)), so the pair distance between layers n and m depends
only on k = n - m and E_N|12 is one sum over layer differences,

    E_N|12 = 1 - sum_{|k|<n} A_k exp(-4 (|beta|^2 + |gamma|^2) sin^2(k phi/2)),

with ``A_k = sum_m p_m p_{m+|k|}``, the autocorrelation of the kept
weights.  It does not depend on the phase; untruncated it is the Skellam
pmf ``exp(-2|alpha|^2) I_k(2|alpha|^2)`` (Skellam, J. R. Stat. Soc. 109,
296 (1946)).  The single-resonator sums run over the triangle n <= m:
with ``u = (beta - gamma)/2`` and ``w = (beta + gamma)/2``,

    |beta_n - beta_m|^2 = 4 sin^2(k phi/2) (|u|^2 + |w|^2 - 2 Re(u w* e^{i(n+m) phi})),

and ``|gamma_n - gamma_m|^2`` flips the sign of the cross term, so each
pair reads one sine table over k and one cross-term table over n + m.
The sums need only the kept weights ``p_n`` and the initial beta and
gamma; the layers come from alpha alone, by the one rule ``_layers``
that ``conditioned_state`` shares.

Every reported entropy carries an additive truncation bound of twice the
discarded Poisson tail (the exponentials are bounded by 1, so a tail of
mass ``eps`` can move each sum by at most ``2*eps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ALPHA_CAP
from .errors import ConditioningError, TruncationError
from .fock import (
    StateVector,
    _readonly,
    coherent_amplitudes,
    coherent_vector,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
    reduced_density,
)

#: Poisson tail mass a truncated coherent mode may discard, on the
#: analytic layer sums and on every oracle cutoff alike
TAIL_TOL = 1e-12

#: bytes the sector eigenbases of ``exchange_evolve`` may hold between
#: calls: 1 MiB keeps all 167 bases of a default ``sim verify`` (about
#: 0.60 MB)
SECTOR_CACHE_BYTES = 2**20

#: bytes one brute-force check may hold (``initial_product_state``), a
#: guard for callers who pass their own cutoffs; 33.25 MiB, the cache of
#: sector bases on top of the smallest 256 KiB step that admits (87, 86,
#: 86), the widest ``sim entropy`` amplitude set at ``ALPHA_CAP`` (it
#: needs (26, 86, 86) at the default alpha), and (60, 101, 101), but not
#: (60, 102, 102)
ORACLE_BYTE_BUDGET = 2**25 + 2**18 + SECTOR_CACHE_BYTES

#: rows of the signed Gram product ``separability_check_12`` forms at
#: once; 16 to 256 rows take about the same time at the default
#: cutoffs, so the block stays small
PAIR_BLOCK = 16


@dataclass(frozen=True)
class CoherentTriple:
    """Initial coherent amplitudes for mechanics (alpha) and resonators.

    Each amplitude must be finite, |alpha| at most ``ALPHA_CAP`` and the
    joint intensity |beta|^2 + |gamma|^2 a finite float.
    """

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            val = complex(getattr(self, name))
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"{name} must be finite, got {val!r}")
            object.__setattr__(self, name, val)
        # hypot and * give inf past the float range, where abs and ** raise
        joint = math.hypot(self.beta.real, self.beta.imag, self.gamma.real, self.gamma.imag)
        if not math.isfinite(joint * joint):
            raise ValueError(
                f"|beta|^2 + |gamma|^2 must be finite, got beta = {self.beta!r}, "
                f"gamma = {self.gamma!r}"
            )
        if abs(self.alpha) > ALPHA_CAP:
            raise ValueError(
                f"|alpha| = {abs(self.alpha):.3f} exceeds the cap {ALPHA_CAP}; "
                "larger mechanical amplitudes need more than the intended "
                "tens of phonon layers"
            )


def branch_amplitudes(n, theta_t, beta: complex, gamma: complex):
    """Coherent amplitudes of phonon layer ``n`` after mixing phase ``theta_t``.

    Vectorizes over ``n``.  Layer 0 is stationary; ``theta_t = pi`` flips
    the sign of both amplitudes on odd layers, ``theta_t = pi/2`` swaps
    them (with a -i factor) on layer 1.
    """
    n = np.asarray(n)
    if n.size and n.min() < 0:
        raise ValueError("layer index must be nonnegative")
    phi = n * theta_t
    c, s = np.cos(phi), np.sin(phi)
    beta_n = beta * c - 1j * gamma * s
    gamma_n = gamma * c - 1j * beta * s
    return beta_n, gamma_n


# ---------------------------------------------------------------------------
# analytic conditioned state and entropies


@dataclass(frozen=True)
class ConditionedState:
    """Layer decomposition of the evolved tripartite state at one instant.

    ``c_n`` are the (untruncated-normalization) Poisson coefficients of
    alpha, so ``sum |c_n|^2 = 1 - tail``; ``tail`` is the discarded mass.
    """

    c_n: np.ndarray
    beta_n: np.ndarray
    gamma_n: np.ndarray
    tail: float

    def __post_init__(self):
        c = np.asarray(self.c_n, dtype=complex)
        b = np.asarray(self.beta_n, dtype=complex)
        g = np.asarray(self.gamma_n, dtype=complex)
        if not (c.shape == b.shape == g.shape) or c.ndim != 1 or c.size == 0:
            raise ValueError("c_n, beta_n, gamma_n must be equal-length 1-d arrays")
        for name, arr in (("c_n", c), ("beta_n", b), ("gamma_n", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def n_terms(self) -> int:
        return self.c_n.size


def _layers(alpha: complex) -> tuple[np.ndarray, float]:
    """The kept Poisson coefficients C_n of ``alpha`` and the discarded tail.

    The layer count is the smallest that keeps the discarded Poisson tail
    of alpha at most ``TAIL_TOL``: 26 at |alpha| = 2, 87 at ``ALPHA_CAP``.
    """
    n = min_fock_dim(alpha, TAIL_TOL)
    return coherent_amplitudes(alpha, n), poisson_tail(abs(alpha) ** 2, n)


def conditioned_state(triple: CoherentTriple, theta_t: float) -> ConditionedState:
    """Evaluate the decomposition on ``_layers`` at dimensionless phase ``theta_t``."""
    c, tail = _layers(triple.alpha)
    beta_n, gamma_n = branch_amplitudes(np.arange(c.size), theta_t, triple.beta, triple.gamma)
    return ConditionedState(c_n=c, beta_n=beta_n, gamma_n=gamma_n, tail=tail)


#: terms per block of an entropy series (triangle pairs n <= m for the
#: single-resonator sums, layer differences k for E_N|12): the fastest
#: block measured, with a ~0.8 MB peak at 87 terms (2**13 and 2**15 are
#: slower)
SERIES_BLOCK = 2**14


def _multiples(phi: np.ndarray, count: int) -> np.ndarray:
    """``j * phi`` for j < count, one row per phase of the (r, 1) ``phi``.

    A non-finite phase, or a finite one whose multiple overflows, raises
    ``ValueError`` before any multiple is formed: the largest one is
    checked as a Python float, which overflows without a warning.
    """
    if not math.isfinite(float(np.max(np.abs(phi))) * (count - 1)):
        bad = next(x for x in phi[:, 0].tolist() if not math.isfinite(x * (count - 1)))
        raise ValueError(f"non-finite phase multiples near theta_t = {bad!r}")
    return phi * np.arange(count)


def _layer_distance(angle: np.ndarray, n: int) -> np.ndarray:
    """4 sin^2(k phi / 2) for k < n: the squared distance |U(k phi) - 1|^2."""
    return 4.0 * np.sin(0.5 * angle[:, :n]) ** 2


def _pair_weights(p: np.ndarray) -> np.ndarray:
    """E_N|12 weights ``A_0, 2 A_1, 2 A_2, ...`` over layer differences.

    ``A_k = sum_m p_m p_{m+k}`` is the autocorrelation of the kept weights.
    """
    a = np.correlate(p, p, "full")[p.size - 1:]
    a[1:] *= 2.0
    return a


def _n12_sums(theta_ts: np.ndarray, p: np.ndarray, triple: CoherentTriple) -> np.ndarray:
    """E_N|12 at every phase of ``theta_ts``: n terms per phase, the
    ``_pair_weights`` of ``p`` at the joint intensity |beta|^2 + |gamma|^2."""
    a = _pair_weights(p)
    energy = abs(triple.beta) ** 2 + abs(triple.gamma) ** 2

    def block(phi):
        d = _layer_distance(_multiples(phi, a.size), a.size)
        return np.clip(1.0 - np.sum(np.exp(-energy * d) * a, axis=-1), 0.0, 1.0)

    return _blocked(theta_ts, a.size, 1, block)[0]


def _single_sums(theta_ts: np.ndarray, p: np.ndarray, triple: CoherentTriple) -> np.ndarray:
    """E_1|N2 and E_2|N1, shape (2, r), at every phase of ``theta_ts``.

    The pairs n <= m of the upper triangle have layer difference ``k = m
    - n``, layer sum ``s = n + m`` and weight ``(2 - delta_nm) p_n p_m``.
    With ``u, w = (beta -+ gamma)/2``, ``|beta_n - beta_m|^2 = d_k (h -
    c_s)`` and ``|gamma_n - gamma_m|^2 = d_k (h + c_s)``, where ``d_k = 4
    sin^2(k phi/2)``, ``h = |u|^2 + |w|^2`` and ``c_s = Re(2 u w* e^{i s
    phi})`` are read from per-phase tables of n and 2n - 1 entries.
    """
    beta, gamma = triple.beta, triple.gamma
    i, j = np.triu_indices(p.size)
    k, s = j - i, i + j
    weight = np.where(i == j, 1.0, 2.0) * p[i] * p[j]
    u, w = 0.5 * (beta - gamma), 0.5 * (beta + gamma)
    h = 0.5 * (abs(beta) ** 2 + abs(gamma) ** 2)
    cross = 2.0 * u * w.conjugate()

    def block(phi):
        angle = _multiples(phi, 2 * p.size - 1)
        # np.take keeps the rows C-contiguous (``x[:, idx]`` would not), so
        # each row sums in the same order whatever the block's row count
        d = np.take(_layer_distance(angle, p.size), k, axis=1)
        c = np.take(cross.real * np.cos(angle) - cross.imag * np.sin(angle), s, axis=1)
        sums = []
        # x = -(h - c) and -(h + c): the two negated squared distances over d_k
        for x in (c - h, np.subtract(-h, c, out=c)):
            x *= d
            np.exp(x, out=x)
            x *= weight
            sums.append(np.sum(x, axis=-1))
        return np.clip(1.0 - np.array(sums), 0.0, 1.0)

    return _blocked(theta_ts, k.size, 2, block)


def _blocked(theta_ts: np.ndarray, terms: int, rows: int, block) -> np.ndarray:
    """``block`` (``rows`` values per phase) over max(1, SERIES_BLOCK // terms)
    phases at a time, so that no more than one block of terms is held."""
    out = np.empty((rows, theta_ts.size))
    k = max(1, SERIES_BLOCK // terms)
    for i in range(0, theta_ts.size, k):
        out[:, i:i + k] = block(theta_ts[i:i + k, None])
    return out


def entropy_n12_series(triple: CoherentTriple, theta_ts):
    """E_N|12 along a grid of phases; returns (E_N|12, tail_bound).

    The first curve of ``linear_entropies``, bit for bit, without the
    single-resonator sums: a sum of n terms per phase, over
    max(1, SERIES_BLOCK // n) phases at a time.
    """
    theta_ts = np.asarray(theta_ts, dtype=float).reshape(-1)
    c, tail = _layers(triple.alpha)
    return _n12_sums(theta_ts, np.abs(c) ** 2, triple), 2.0 * tail


def linear_entropies(triple: CoherentTriple, theta_ts):
    """Closed-form linear entropies of the three bipartitions along a grid
    of phases; returns the arrays (E_N|12, E_1|N2, E_2|N1) and tail_bound.

    The layers, weights and tail do not depend on the phase, so one set
    of ``_layers`` serves the grid, with beta and gamma read from the
    triple.  E_N|12 runs as in ``entropy_n12_series``; the
    single-resonator sums run over the n(n + 1)/2 triangle pairs,
    max(1, SERIES_BLOCK // pairs) phases at a time.  A one-phase grid
    gives the value of that phase in any longer grid, bit for bit, and a
    phase whose multiples are not finite raises ``ValueError``.
    """
    theta_ts = np.asarray(theta_ts, dtype=float).reshape(-1)
    c, tail = _layers(triple.alpha)
    p = np.abs(c) ** 2
    e_1, e_2 = _single_sums(theta_ts, p, triple)
    return _n12_sums(theta_ts, p, triple), e_1, e_2, 2.0 * tail


# ---------------------------------------------------------------------------
# brute-force reference: exact evolution on the truncated space
#
# The evolution engine exploits two conservation laws.  Phonon number:
# the propagator is block diagonal over phonon layers and within layer n
# it is exp(-i phi_n K) with K = a1^dag a2 + a1 a2^dag on the resonator
# pair.  Total photon number n1 + n2: K is block diagonal over sectors
# N, and on the truncated sector it is a real tridiagonal matrix (the
# SU(2) blocks of the lossless beam splitter).  One eigendecomposition
# per sector serves every layer, and ``_SECTOR_BASES`` keeps it for every
# later call whose cutoffs give the sector the same n1 range.  Note this
# uses nothing from the analytic solution above beyond the conservation
# laws themselves: the coherent-branch structure has to come out of the
# numerics, not in.


def oracle_dims(triple: CoherentTriple) -> tuple[int, int, int]:
    """Cutoffs ``(d_N, d_1, d_2)`` of every brute-force check of ``triple``.

    The phonon cutoff keeps the Poisson tail of alpha at ``TAIL_TOL``.
    The exchange coupling conserves the total resonator photon number,
    so reflection artifacts appear only in sectors whose ladder is cut
    off; both resonator cutoffs are sized by the tail of the *joint*
    intensity |beta|^2 + |gamma|^2, which pushes that error well below
    the check tolerances.
    """
    joint = math.sqrt(abs(triple.beta) ** 2 + abs(triple.gamma) ** 2)
    d_r = min_fock_dim(joint, 1e-15) + 2
    return (min_fock_dim(triple.alpha, TAIL_TOL), d_r, d_r)


def initial_product_state(triple: CoherentTriple,
                          dims: tuple[int, int, int]) -> StateVector:
    """Truncated ``|alpha>|beta>|gamma>`` at cutoffs ``(d_N, d_1, d_2)``.

    Every brute-force check starts here, so the cutoffs are refused with
    ``ValueError``, before anything is allocated, when the arrays a
    check holds could exceed the fixed ``ORACLE_BYTE_BUDGET``.  With
    D = d_1 d_2 a state is d_N D complex entries, and no check holds
    more than three at once: the evolution holds the initial state and
    its evolved copy; the partial traces hold the evolved state and at
    most two matricized copies; the cat check, which reassembles its two
    branches from the projections, the evolved state alone; and
    ``separability_check_12`` the evolved state while it is copied into
    the stacked ``G`` of (d_N + n) D entries, where the n <= d_N layers
    fit the phonon cutoff because the tail check below refuses any
    smaller one.  On top of those come one ``PAIR_BLOCK``-row block of
    the product with its real modulus, and the ``SECTOR_CACHE_BYTES`` of
    cached sector bases.

    Each mode's discarded Poisson tail must then be at most ``TAIL_TOL``.
    """
    d_n, d_1, d_2 = (int(d) for d in dims)
    pair = d_1 * d_2
    # three states; a complex block and its modulus; the sector bases
    held = 16 * pair * 3 * d_n + (16 + 8) * pair * PAIR_BLOCK + SECTOR_CACHE_BYTES
    if held > ORACLE_BYTE_BUDGET:
        raise ValueError(
            f"cutoffs {(d_n, d_1, d_2)}: the oracle arrays could take "
            f"{held:.3e} bytes, above the oracle budget of "
            f"{ORACLE_BYTE_BUDGET} bytes"
        )
    vecs = []
    for amp, dim, name in zip((triple.alpha, triple.beta, triple.gamma),
                              (d_n, d_1, d_2), ("N", "TLR1", "TLR2")):
        tail = poisson_tail(abs(amp) ** 2, dim)
        if tail > TAIL_TOL:
            raise TruncationError(
                f"mode {name}: cutoff {dim} leaves tail {tail:.3e} for "
                f"amplitude {amp}",
                required_dim=min_fock_dim(amp, TAIL_TOL),
            )
        vecs.append(coherent_vector(amp, dim))
    full = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    return StateVector(full.reshape(d_n, d_1, d_2))


class _SectorBases(dict):
    """Eigenvalues and eigenvectors ``(w, v)``, read-only, of K on the
    photon-number sector N with n1 from ``first`` to ``last``, by (N,
    first, last): a real tridiagonal block that depends on nothing else,
    so it is diagonalized on its first lookup and kept.  The kept bases,
    ``nbytes`` in all, never exceed ``SECTOR_CACHE_BYTES``: the oldest go
    first, and a basis larger than the cap is not kept at all."""

    nbytes = 0

    def __missing__(self, key):
        total, first, last = key
        n1 = np.arange(first, last)
        hop = np.sqrt((n1 + 1.0) * (total - n1))
        basis = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))
        for x in basis:
            x.setflags(write=False)
        size = basis[0].nbytes + basis[1].nbytes
        if size <= SECTOR_CACHE_BYTES:
            while self.nbytes + size > SECTOR_CACHE_BYTES:
                w, v = self.pop(next(iter(self)))
                self.nbytes -= w.nbytes + v.nbytes
            self[key] = basis
            self.nbytes += size
        return basis

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_SECTOR_BASES = _SectorBases()


def exchange_evolve(psi: StateVector, theta_t: float,
                    theta0_t: float = 0.0) -> StateVector:
    """Exact propagation of a three-mode state by the exchange interaction.

    ``theta_t`` and ``theta0_t`` are the accumulated dimensionless phases
    (coupling rate times time); layer n of the phonon mode is rotated by
    ``theta0_t + n * theta_t``.
    """
    tensor = psi.amplitudes
    if tensor.ndim != 3:
        raise ValueError(
            f"exchange_evolve expects three modes (phonons, TLR1, TLR2), "
            f"got {tensor.ndim}"
        )
    d_n, d_1, d_2 = tensor.shape
    # the largest angle, layer phase times sector eigenvalue (|w| <= N <
    # d_1 + d_2), bounded as a Python float before numpy forms any
    top = abs(float(theta0_t)) + abs(float(theta_t)) * (d_n - 1)
    if not math.isfinite(top * (d_1 + d_2)):
        raise ValueError(
            f"non-finite layer phase angles for theta_t = {theta_t!r}, theta0_t = {theta0_t!r}"
        )
    layer_phase = theta0_t + np.arange(d_n) * theta_t
    out = np.empty_like(tensor)
    for total in range(d_1 + d_2 - 1):
        first, last = max(0, total - d_2 + 1), min(total, d_1 - 1)
        n1 = np.arange(first, last + 1)
        w, v = _SECTOR_BASES[total, first, last]
        phases = np.exp(-1j * np.outer(layer_phase, w))
        out[:, n1, total - n1] = ((tensor[:, n1, total - n1] @ v) * phases) @ v.T
    return StateVector(out, norm_tol=1e-10)


def brute_force_entropies(triple: CoherentTriple, theta_t: float,
                          dims: tuple[int, int, int], theta0_t: float = 0.0):
    """Partial-trace linear entropies from exact truncated evolution.

    Returns ``(E_N|12, E_1|N2, E_2|N1)``.  The analytic entropies drop
    the theta0 rotation; passing ``theta0_t != 0`` here probes the claim
    that it only mixes the two resonators internally: E_N|12 must be
    unchanged while the two single-resonator entropies may move.
    """
    psi_t = exchange_evolve(initial_product_state(triple, dims), theta_t, theta0_t)
    return tuple(linear_entropy(reduced_density(psi_t, axis)) for axis in range(3))


# ---------------------------------------------------------------------------
# structural checks on the evolved state


@dataclass(frozen=True)
class SeparabilityReport:
    max_abs_deviation: float
    mixture_trace: float
    dims: tuple[int, int, int]


def separability_check_12(triple: CoherentTriple, theta_t: float,
                          dims: tuple[int, int, int]) -> SeparabilityReport:
    """Compare brute-force rho_12 against the explicit separable mixture.

    Tracing the phonon mode out of the layer decomposition leaves
    ``sum_n |C_n|^2 |beta_n><beta_n| (x) |gamma_n><gamma_n|`` — manifestly
    separable.  The brute-force reduced state must match it entrywise.

    Neither side is formed on its own.  With the evolved state's phonon
    layers A (d_N x D, D = d_1 d_2) stacked over the branch vectors B,
    ``rho_12 - mixture = G^T diag(1, ..., 1, -p_n) G^*``, one product,
    taken ``PAIR_BLOCK`` rows at a time so that only its largest modulus
    is kept and no D x D matrix exists (a blocked matrix product, Golub
    & Van Loan, Matrix Computations, sec. 1.3).  Each block is formed
    as its complex conjugate, ``(G^dagger diag(s))[rows] G``, from a
    signed copy of the block's columns alone, so ``G^*`` is never held;
    conjugation leaves the modulus unchanged.  rho_12 = A^T A^* shares
    its nonzero spectrum and trace with the d_N x d_N Gram matrix
    A A^dagger (Schmidt decomposition), which is the phonon state, so
    validating that as a density matrix checks the trace and positivity
    of rho_12.
    """
    psi_t = exchange_evolve(initial_product_state(triple, dims), theta_t)
    reduced_density(psi_t, 0)  # raises unless rho_12 is a valid state

    state = conditioned_state(triple, theta_t)
    p = np.abs(state.c_n) ** 2
    d_n = dims[0]
    g = np.empty((d_n + state.n_terms, dims[1] * dims[2]), dtype=complex)
    g[:d_n] = psi_t.amplitudes.reshape(d_n, -1)
    del psi_t
    for row, b_n, g_n in zip(g[d_n:], state.beta_n, state.gamma_n):
        row[:] = np.kron(coherent_vector(b_n, dims[1]), coherent_vector(g_n, dims[2]))
    mixture_trace = float(p @ np.sum(np.abs(g[d_n:]) ** 2, axis=1))
    sign = np.concatenate([np.ones(d_n), -p])
    worst = 0.0
    for start in range(0, g.shape[1], PAIR_BLOCK):
        left = g[:, start:start + PAIR_BLOCK].conj().T * sign
        worst = max(worst, float(np.max(np.abs(left @ g))))
    return SeparabilityReport(
        max_abs_deviation=worst,
        mixture_trace=mixture_trace,
        dims=tuple(int(d) for d in dims),
    )


@dataclass(frozen=True)
class CatStateReport:
    """Conditional-state fidelities at half period (mixing phase pi)."""

    even_fidelity: float
    odd_fidelity: float | None
    even_weight: float
    odd_weight: float
    reassembled_norm: float
    reassembly_fidelity: float
    dims: tuple[int, int, int]


def _cat_vector(alpha: complex, dim: int, sign: int) -> np.ndarray | None:
    """Normalized even (+1) / odd (-1) coherent superposition, or None if empty."""
    v = coherent_vector(alpha, dim) + sign * coherent_vector(-alpha, dim)
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-8:
        return None
    return v / nrm


def cat_state_check(triple: CoherentTriple,
                    dims: tuple[int, int, int]) -> CatStateReport:
    """Verify the half-period cat structure of the mechanical mode.

    At mixing phase pi every odd phonon layer carries ``|-beta>|-gamma>``
    and every even layer ``|beta>|gamma>``, so projecting the resonators
    onto those two products must collapse the mechanics onto the even and
    odd coherent superpositions of alpha.  The check evolves the state
    brute-force, projects, and reports both fidelities, the projection
    weights, and how well the two-branch reassembly reproduces the full
    evolved state.

    Raises
    ------
    ConditioningError
        When ``|<beta|-beta><gamma|-gamma>| > 1e-2``: the two
        projection products are then too close to parallel for the
        conditional states to mean anything (degenerate at beta=gamma=0).
    """
    overlap = math.exp(-2.0 * (abs(triple.beta) ** 2 + abs(triple.gamma) ** 2))
    if overlap > 1e-2:
        raise ConditioningError(
            f"projection products overlap at {overlap:.3e} (guard 0.01); "
            "beta/gamma too small to separate the branches"
        )
    psi_t = exchange_evolve(initial_product_state(triple, dims), math.pi)
    tensor = psi_t.amplitudes.reshape(len(psi_t.amplitudes), -1)

    proj_plus = np.kron(coherent_vector(triple.beta, dims[1]),
                        coherent_vector(triple.gamma, dims[2]))
    proj_minus = np.kron(coherent_vector(-triple.beta, dims[1]),
                         coherent_vector(-triple.gamma, dims[2]))

    cond_plus = tensor @ proj_plus.conj()
    cond_minus = tensor @ proj_minus.conj()
    w_plus = float(np.vdot(cond_plus, cond_plus).real)
    w_minus = float(np.vdot(cond_minus, cond_minus).real)

    cat_even = _cat_vector(triple.alpha, dims[0], +1)
    cat_odd = _cat_vector(triple.alpha, dims[0], -1)

    def _fid(cond, w, cat):
        if w < 1e-12 or cat is None:
            return None
        return float(abs(np.vdot(cat, cond)) ** 2 / w)

    f_even = _fid(cond_plus, w_plus, cat_even)
    if f_even is None:
        raise ConditioningError("even projection branch carries no weight")
    f_odd = _fid(cond_minus, w_minus, cat_odd)

    # two-branch reassembly |re> = N+ |cat+>|b>|g> + N- |cat->|-b>|-g>, taken
    # through the projections: <re|psi(pi)> = N+ <cat+|cond+> + N- <cat-|cond->,
    # and the cats' disjoint (even/odd) Fock support leaves no cross term in
    # <re|re> = N+^2 |proj+|^2 + N-^2 |proj-|^2
    odd_weight = -0.5 * math.expm1(-2.0 * abs(triple.alpha) ** 2)
    n_plus, n_minus = math.sqrt(1.0 - odd_weight), math.sqrt(odd_weight)
    re_overlap = n_plus * np.vdot(cat_even, cond_plus)
    norm_sq = n_plus**2 * float(np.vdot(proj_plus, proj_plus).real)
    if cat_odd is not None and n_minus > 0:
        re_overlap += n_minus * np.vdot(cat_odd, cond_minus)
        norm_sq += n_minus**2 * float(np.vdot(proj_minus, proj_minus).real)
    re_norm = math.sqrt(norm_sq)
    re_fid = float(abs(re_overlap) ** 2 / norm_sq)

    return CatStateReport(
        even_fidelity=f_even, odd_fidelity=f_odd,
        even_weight=w_plus, odd_weight=w_minus,
        reassembled_norm=re_norm, reassembly_fidelity=re_fid,
        dims=tuple(int(d) for d in dims),
    )
