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

The analytic sums and the brute-force oracle alike drop the ``theta0``
part of the angle (``phi_n = n theta t``): it rotates the two resonators
identically in every phonon layer, so it cannot entangle them with the
mechanics, and dropping it matches the analytic object the entropies are
quoted for.

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
gamma; the weights come from alpha alone, by the one rule ``_layers``,
which ``conditioned_state`` returns with the branch amplitudes.

Every reported entropy carries an additive truncation bound of twice the
discarded Poisson tail (the exponentials are bounded by 1, so a tail of
mass ``eps`` can move each sum by at most ``2*eps``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import ALPHA_CAP, checked_make
from .errors import ConditioningError, TruncationError
from .fock import (
    _check_modes,
    coherent_amplitudes,
    coherent_vector,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
    pure_state,
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
#: guard for callers who pass their own cutoffs; 21.5 MiB, the cache of
#: sector bases on top of the smallest 256 KiB step that admits (87, 86,
#: 86), the widest ``sim entropy`` amplitude set at ``ALPHA_CAP`` (it
#: needs (26, 86, 86) at the default alpha), and (60, 103, 103), but not
#: (60, 104, 104)
ORACLE_BYTE_BUDGET = 82 * 2**18 + SECTOR_CACHE_BYTES


class _CoherentFields(NamedTuple):
    alpha: complex
    beta: complex
    gamma: complex


class CoherentTriple(_CoherentFields):
    """Initial coherent amplitudes for mechanics (alpha) and resonators.

    Each amplitude must be finite, |alpha| at most ``ALPHA_CAP`` and the
    joint intensity |beta|^2 + |gamma|^2 a finite float.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        amplitudes = []
        for name, val in zip(cls._fields, super().__new__(cls, *args, **kwargs)):
            val = complex(val)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"{name} must be finite, got {val!r}")
            amplitudes.append(val)
        self = super().__new__(cls, *amplitudes)
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
        return self


# ---------------------------------------------------------------------------
# analytic conditioned state and entropies


def _layers(alpha: complex) -> tuple[np.ndarray, float]:
    """The kept weights ``p_n = |C_n|^2`` of ``alpha`` and the discarded tail.

    The layer count is the smallest that keeps the discarded Poisson tail
    of alpha at most ``TAIL_TOL``: 26 at |alpha| = 2, 87 at ``ALPHA_CAP``.
    """
    n = min_fock_dim(alpha, TAIL_TOL)
    return np.abs(coherent_amplitudes(alpha, n)) ** 2, poisson_tail(abs(alpha) ** 2, n)


def conditioned_state(triple: CoherentTriple, theta_t: float):
    """``(p_n, beta_n, gamma_n, tail)`` of the ``_layers`` at phase ``theta_t``.

    The branch amplitudes of layer n are those of the module docstring at
    ``phi_n = n theta_t``: layer 0 is stationary, ``theta_t = pi`` flips
    the sign of both on odd layers and ``theta_t = pi/2`` swaps them (with
    a -i factor) on layer 1.  A phase with a non-finite layer multiple
    raises ``ValueError`` before any multiple is formed.
    """
    p, tail = _layers(triple.alpha)
    phi = _multiples(np.array([[float(theta_t)]]), p.size)[0]
    c, s = np.cos(phi), np.sin(phi)
    beta, gamma = triple.beta, triple.gamma
    return p, beta * c - 1j * gamma * s, gamma * c - 1j * beta * s, tail


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
    p, tail = _layers(triple.alpha)
    return _n12_sums(theta_ts, p, triple), 2.0 * tail


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
    p, tail = _layers(triple.alpha)
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
    """Cutoffs ``(d_N, d_1, d_2)`` of the brute-force checks of ``triple``;
    the cat check raises d_N (``cat_dims``).

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


def cat_weights(alpha: complex) -> tuple[float, float]:
    """Even and odd cat weights ``P+- = (1 +- exp(-2|alpha|^2)) / 2`` of
    ``|alpha>`` (Dodonov, Malkin & Man'ko, Physica 72, 597 (1974))."""
    # expm1 keeps P- accurate at small |alpha|, where 1 - exp cancels
    p_odd = -0.5 * math.expm1(-2.0 * abs(alpha) ** 2)
    return 1.0 - p_odd, p_odd


def cat_dims(triple: CoherentTriple) -> tuple[int, int, int]:
    """``oracle_dims`` with d_N raised until its tail is at most ``TAIL_TOL``
    P- / P+: a cat fidelity is conditioned on its branch, so the mass the
    phonon cutoff discards counts relative to the branch weight."""
    d_n, d_1, d_2 = oracle_dims(triple)
    p_even, p_odd = cat_weights(triple.alpha)
    odd_tail = TAIL_TOL * p_odd / p_even
    if odd_tail > 0.0:  # zero at alpha = 0, where there is no odd branch
        d_n = max(d_n, min_fock_dim(triple.alpha, odd_tail))
    return d_n, d_1, d_2


def initial_product_state(triple: CoherentTriple,
                          dims: tuple[int, int, int]) -> np.ndarray:
    """Truncated ``|alpha>|beta>|gamma>`` at cutoffs ``(d_N, d_1, d_2)``.

    Every brute-force check starts here, so the cutoffs are refused with
    ``ValueError``, before anything is allocated, when the arrays a
    check holds could exceed the fixed ``ORACLE_BYTE_BUDGET``: two states
    of d_N D complex entries (D = d_1 d_2), the evolution's input and
    output, after which every check holds the evolved state and arrays
    of at most D entries; one sector's workspace in the evolution, three
    complex (d_N + L) x L arrays at most (its layers, their product and
    its basis, L = min(d_1, d_2)); and the ``SECTOR_CACHE_BYTES``.

    Each mode's discarded Poisson tail must then be at most ``TAIL_TOL``.
    """
    d_n, d_1, d_2 = (int(d) for d in dims)
    # two states, one sector's workspace and the sector bases
    side = min(d_1, d_2)
    held = 16 * (2 * d_n * d_1 * d_2 + 3 * (d_n + side) * side) + SECTOR_CACHE_BYTES
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
                f"mode {name}: cutoff {dim} leaves tail {tail:.3e} for amplitude {amp}")
        vecs.append(coherent_vector(amp, dim))
    full = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    return pure_state(full.reshape(d_n, d_1, d_2))


class _SectorBases(dict):
    """Eigenvalues and eigenvectors ``(w, v)``, read-only, of K on the
    photon-number sector N with n1 from ``first`` to ``last``, by (N,
    first, last): a real tridiagonal block that depends on nothing else,
    so it is diagonalized on its first lookup and kept if the kept bases,
    ``nbytes`` in all, still fit ``SECTOR_CACHE_BYTES``.  None is ever
    dropped, so wide cutoffs cannot push out the bases kept before."""

    nbytes = 0

    def __missing__(self, key):
        total, first, last = key
        n1 = np.arange(first, last)
        hop = np.sqrt((n1 + 1.0) * (total - n1))
        basis = np.linalg.eigh(np.diag(hop, 1) + np.diag(hop, -1))
        for x in basis:
            x.setflags(write=False)
        size = basis[0].nbytes + basis[1].nbytes
        if self.nbytes + size <= SECTOR_CACHE_BYTES:
            self[key] = basis
            self.nbytes += size
        return basis


_SECTOR_BASES = _SectorBases()


def exchange_evolve(psi: np.ndarray, theta_t: float) -> np.ndarray:
    """Exact propagation of a three-mode state by the exchange interaction.

    ``theta_t`` is the accumulated dimensionless phase (coupling rate
    times time); layer n of the phonon mode is rotated by ``n * theta_t``.
    A ``psi`` without three axes, with a mode below two Fock states or
    over the state cap is refused before it is converted.  The result
    goes through ``pure_state``: the evolution is unitary, so that
    refuses an input off unit norm.
    """
    if np.ndim(psi) != 3:
        raise ValueError(
            f"exchange_evolve expects three modes (phonons, TLR1, TLR2), "
            f"got {np.ndim(psi)}"
        )
    _check_modes(np.shape(psi))
    d_n, d_1, d_2 = np.shape(psi)
    # the largest angle, layer phase times sector eigenvalue (|w| <= N <
    # d_1 + d_2), bounded as a Python float before numpy forms any
    if not math.isfinite(abs(float(theta_t)) * (d_n - 1) * (d_1 + d_2)):
        raise ValueError(f"non-finite layer phase angles for theta_t = {theta_t!r}")
    tensor = np.asarray(psi, dtype=complex)
    layer_phase = np.arange(d_n) * theta_t
    out = np.empty_like(tensor)
    # each sector is gathered as a contiguous (L, d_N) block, so the real
    # basis acts on its real view by real products, with no complex copy of v
    pairs, out_pairs = tensor.transpose(1, 2, 0), out.transpose(1, 2, 0)
    for total in range(d_1 + d_2 - 1):
        first, last = max(0, total - d_2 + 1), min(total, d_1 - 1)
        n1 = np.arange(first, last + 1)
        w, v = _SECTOR_BASES[total, first, last]
        block = (v.T @ pairs[n1, total - n1].view(float)).view(complex)
        block *= np.exp(-1j * np.multiply.outer(w, layer_phase))
        out_pairs[n1, total - n1] = (v @ block.view(float)).view(complex)
    return pure_state(out, norm_tol=1e-10)


def brute_force_entropies(triple: CoherentTriple, theta_t: float,
                          dims: tuple[int, int, int]):
    """Partial-trace linear entropies from exact truncated evolution.

    Returns ``(E_N|12, E_1|N2, E_2|N1)``.
    """
    psi_t = exchange_evolve(initial_product_state(triple, dims), theta_t)
    return tuple(linear_entropy(reduced_density(psi_t, axis)) for axis in range(3))


# ---------------------------------------------------------------------------
# structural checks on the evolved state


def separability_check_12(triple: CoherentTriple, theta_t: float,
                          dims: tuple[int, int, int]) -> float:
    """Bound brute-force rho_12's distance from the explicit separable mixture
    on the complete photon-number sectors, plus the mass outside them.

    Tracing the phonons out of the layer decomposition leaves ``sum_n p_n
    |b_n><b_n|``, ``p_n = |C_n|^2``, ``b_n = |beta_n> (x) |gamma_n>`` —
    manifestly separable.  The phonon number is conserved, so rho_12 =
    ``sum_n a_n a_n^dagger`` over the evolved layers a_n (D = d_1 d_2
    entries each) meets it layer by layer, and neither is formed.

    The exchange conserves n1 + n2 too (SU(2) beam-splitter algebra;
    Campos, Saleh & Teich, PRA 40, 1371 (1989)).  With L = min(d_1, d_2),
    the sectors n1 + n2 < L are complete, and the truncated evolution is
    exact on them; a sector the cutoffs cut off reflects its photons, so
    rho_12 is compared on the complete sectors alone, through the
    projector P onto them.  With ``q_n = p_n |P b_n|^2``, ``b^_n = P b_n /
    |P b_n|`` and ``P a_n = mu_n b^_n + delta_n``, ``T_n = P a_n a_n^dagger
    P - q_n b^_n b^_n^dagger`` is, on (b^_n, delta_n / |delta_n|), the
    Hermitian ``[[|mu_n|^2 - q_n, mu_n |delta_n|], [mu_n^* |delta_n|,
    |delta_n|^2]]``, of spectral norm ``|tr|/2 + sqrt(((T_11 - T_22)/2)^2
    + |T_12|^2)``; a layer past the analytic ones has norm |P a_n|^2.  By
    the triangle inequality ``sum_n |T_n|_2`` is at least ``|P (rho_12 -
    mixture) P|_2``, and with Q = 1 - P, the masses ``tr Q rho_12`` and
    ``tr Q mixture`` that the two states put outside bound ``|Q (rho_12 -
    mixture) Q|_2`` together.  The bound returned is the sum of the three,
    so at least ``|P (rho_12 - mixture) P|_2 + |Q (rho_12 - mixture) Q|_2``.
    The blocks between P and Q are not bounded: they carry the reflection,
    of the order of the square root of the outside mass.

    rho_12 shares its nonzero spectrum and trace with the layers' d_N x
    d_N Gram matrix, the phonon state (Schmidt decomposition), so
    validating that as a density matrix checks rho_12's trace and
    positivity.
    """
    psi_t = exchange_evolve(initial_product_state(triple, dims), theta_t)
    reduced_density(psi_t, 0)  # raises unless rho_12 is a valid state

    p, betas, gammas, _ = conditioned_state(triple, theta_t)
    layers = psi_t.reshape(dims[0], -1)
    side = min(dims[1], dims[2])
    complete = (np.add.outer(np.arange(dims[1]), np.arange(dims[2])) < side).reshape(-1)
    inside, outside = np.flatnonzero(complete), np.flatnonzero(~complete)
    rest = layers[p.size:]  # past the analytic layers, |a_n|^2 each
    bound = float(np.vdot(rest, rest).real)
    for a_n, p_n, beta_n, gamma_n in zip(layers, p, betas, gammas):
        b_n = np.kron(coherent_vector(beta_n, dims[1]), coherent_vector(gamma_n, dims[2]))
        a_out, b_out = a_n[outside], b_n[outside]
        bound += float(np.vdot(a_out, a_out).real) + p_n * float(np.vdot(b_out, b_out).real)
        a_n, b_n = a_n[inside], b_n[inside]
        b_norm = float(np.linalg.norm(b_n))
        b_n /= b_norm
        mu = complex(np.vdot(b_n, a_n))
        b_n *= -mu
        b_n += a_n  # delta_n
        delta = float(np.linalg.norm(b_n))
        t_11, t_22 = abs(mu) ** 2 - p_n * b_norm**2, delta**2
        bound += 0.5 * abs(t_11 + t_22) + math.hypot(0.5 * (t_11 - t_22), abs(mu) * delta)
    return float(bound)


class CatStateReport(NamedTuple):
    """Conditional-state fidelities at half period (mixing phase pi)."""

    even_fidelity: float
    odd_fidelity: float | None
    even_weight: float
    odd_weight: float
    reassembly_fidelity: float


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
    evolved state.  ``sim cat`` and ``sim verify`` pass the ``cat_dims``
    cutoffs.

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
    tensor = psi_t.reshape(len(psi_t), -1)

    # two-branch reassembly |re> = N+ |cat+>|b>|g> + N- |cat->|-b>|-g>, taken
    # through the projections: <re|psi(pi)> = N+ <cat+|cond+> + N- <cat-|cond->.
    # The cats have disjoint (even/odd) Fock support, so <re|re> has no cross
    # term, and with unit cats and products it is N+^2 + N-^2 = P+ + P- = 1
    fidelities, weights, re_overlap = [], [], 0.0
    products = ((triple.beta, triple.gamma), (-triple.beta, -triple.gamma))
    for sign, (beta, gamma), p_cat in zip((1, -1), products, cat_weights(triple.alpha)):
        proj = np.kron(coherent_vector(beta, dims[1]), coherent_vector(gamma, dims[2]))
        cond = tensor @ proj.conj()
        weight = float(np.vdot(cond, cond).real)
        cat = _cat_vector(triple.alpha, dims[0], sign)
        weights.append(weight)
        fidelities.append(None if weight < 1e-12 or cat is None
                          else float(abs(np.vdot(cat, cond)) ** 2 / weight))
        if cat is not None:
            re_overlap += math.sqrt(p_cat) * np.vdot(cat, cond)
    if fidelities[0] is None:
        raise ConditioningError("even projection branch carries no weight")

    return CatStateReport(
        even_fidelity=fidelities[0], odd_fidelity=fidelities[1],
        even_weight=weights[0], odd_weight=weights[1],
        reassembly_fidelity=float(abs(re_overlap) ** 2),
    )
