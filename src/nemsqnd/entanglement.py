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
closed double sums over branch overlaps; with ``p_n = |C_n|^2``:

    E_N|12 = 1 - sum_{n,m} p_n p_m exp(-|beta_n-beta_m|^2 - |gamma_n-gamma_m|^2)
    E_1|N2 = 1 - sum_{n,m} p_n p_m exp(-|beta_n-beta_m|^2)
    E_2|N1 = 1 - sum_{n,m} p_n p_m exp(-|gamma_n-gamma_m|^2)

Every reported entropy carries an additive truncation bound of twice the
discarded Poisson tail (the exponentials are bounded by 1, so a tail of
mass ``eps`` can move each double sum by at most ``2*eps``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .errors import ConditioningError, TruncationError
from .fock import (
    _DEFAULT_TRIPLE_LABELS as _TRIPLE_LABELS,
    StateVector,
    TruncatedSpace,
    coherent_vector,
    linear_entropy,
    min_fock_dim,
    poisson_tail,
    reduced_density,
)

#: cap on |alpha|; keeps the automatic term counts in the tens
ALPHA_CAP = 6.0

#: hard ceiling for the automatic term-count growth
TERM_CAP = 512

#: Poisson tail mass a truncated coherent mode may discard, on the
#: analytic layer sums and on every oracle cutoff alike
TAIL_TOL = 1e-12

#: largest configurable floor of the oracle cutoffs (``oracle_dims``)
ORACLE_DIM_CAP = 60

#: bytes one dense matrix on the resonator pair of an oracle space may
#: take (the rho_12 - mixture difference of ``separability_check_12``);
#: 512 MiB admits resonator cutoffs up to 76, above the cap's 60
ORACLE_BYTE_BUDGET = 2**29


@dataclass(frozen=True)
class CoherentTriple:
    """Initial coherent amplitudes for mechanics (alpha) and resonators."""

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            val = complex(getattr(self, name))
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"{name} must be finite, got {val!r}")
            object.__setattr__(self, name, val)
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
    if n.ndim == 0:
        return complex(beta_n), complex(gamma_n)
    return beta_n, gamma_n


def transmittance(theta0: float, theta: float, n_b: float, t):
    """Phonon-conditioned beam-splitter transmittance sin^2((theta0 + theta*n_b) t)."""
    t = np.asarray(t)
    if t.size and t.min() < 0:
        raise ValueError("t must be nonnegative")
    out = np.sin((theta0 + theta * n_b) * t) ** 2
    return float(out) if t.ndim == 0 else out


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
    theta_t: float
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
        for name, arr in (("c_n", c), ("beta_n", b), ("gamma_n", g)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_terms(self) -> int:
        return self.c_n.size

    def weight(self) -> float:
        """Kept probability mass, sum |c_n|^2 = 1 - tail."""
        return float(np.sum(np.abs(self.c_n) ** 2))

    def branch_energy(self) -> np.ndarray:
        """|beta_n|^2 + |gamma_n|^2 per layer; constant in n for exact branches."""
        return np.abs(self.beta_n) ** 2 + np.abs(self.gamma_n) ** 2


@dataclass(frozen=True)
class EntropyReport:
    """The three bipartite linear entropies with their truncation bound."""

    e_n_12: float
    e_1_n2: float
    e_2_n1: float
    tail_bound: float
    n_terms: int

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.e_n_12, self.e_1_n2, self.e_2_n1)


def _poisson_coefficients(alpha: complex, n_terms: int) -> np.ndarray:
    if alpha == 0:
        c = np.zeros(n_terms, dtype=complex)
        c[0] = 1.0
        return c
    n = np.arange(n_terms)
    log_c = -0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * gammaln(n + 1)
    return np.exp(log_c)


def required_terms(alpha: complex) -> int:
    """Smallest layer count keeping the Poisson tail of alpha at most ``TAIL_TOL``."""
    try:
        return min_fock_dim(alpha, TAIL_TOL, cap=TERM_CAP)
    except TruncationError:
        raise TruncationError(
            f"more than {TERM_CAP} layers needed for tail {TAIL_TOL} at "
            f"alpha = {alpha}",
            required_dim=TERM_CAP,
        ) from None


def conditioned_state(triple: CoherentTriple, theta_t: float,
                      n_terms: int | None = None) -> ConditionedState:
    """Evaluate the layer decomposition at dimensionless phase ``theta_t``.

    ``n_terms`` is a floor: the count is raised automatically until the
    discarded Poisson tail is at most ``TAIL_TOL``, and the call fails
    with a truncation error only if that would exceed the hard cap.
    """
    needed = required_terms(triple.alpha)
    n = max(needed, 0 if n_terms is None else int(n_terms))
    if n > TERM_CAP:
        raise TruncationError(
            f"requested {n} layers exceeds the cap {TERM_CAP}",
            required_dim=needed,
        )
    c = _poisson_coefficients(triple.alpha, n)
    beta_n, gamma_n = branch_amplitudes(np.arange(n), theta_t, triple.beta, triple.gamma)
    return ConditionedState(
        c_n=c, beta_n=beta_n, gamma_n=gamma_n, theta_t=theta_t,
        tail=poisson_tail(abs(triple.alpha) ** 2, n),
    )


def linear_entropies(state: ConditionedState) -> EntropyReport:
    """Closed-form linear entropies of the three bipartitions."""
    p = np.abs(state.c_n) ** 2
    w = np.outer(p, p)
    d1 = np.abs(state.beta_n[:, None] - state.beta_n[None, :]) ** 2
    d2 = np.abs(state.gamma_n[:, None] - state.gamma_n[None, :]) ** 2
    e_n_12 = 1.0 - float(np.sum(w * np.exp(-d1 - d2)))
    e_1_n2 = 1.0 - float(np.sum(w * np.exp(-d1)))
    e_2_n1 = 1.0 - float(np.sum(w * np.exp(-d2)))
    clamp = lambda e: float(np.clip(e, 0.0, 1.0))  # noqa: E731
    return EntropyReport(
        e_n_12=clamp(e_n_12), e_1_n2=clamp(e_1_n2), e_2_n1=clamp(e_2_n1),
        tail_bound=2.0 * state.tail, n_terms=state.n_terms,
    )


def entropy_series(triple: CoherentTriple, theta_ts, n_terms: int | None = None):
    """Entropies along a grid of phases; returns (E_N|12, E_1|N2, E_2|N1, tail_bound)."""
    theta_ts = np.asarray(theta_ts, dtype=float)
    out = np.empty((3, theta_ts.size))
    bound = 0.0
    for i, tt in enumerate(theta_ts):
        rep = linear_entropies(conditioned_state(triple, float(tt), n_terms))
        out[:, i] = rep.as_tuple()
        bound = max(bound, rep.tail_bound)
    return out[0], out[1], out[2], bound


# ---------------------------------------------------------------------------
# brute-force reference: exact evolution on the truncated space
#
# The evolution engine exploits two conservation laws.  Phonon number:
# the propagator is block diagonal over phonon layers and within layer n
# it is exp(-i phi_n K) with K = a1^dag a2 + a1 a2^dag on the resonator
# pair.  Total photon number n1 + n2: K is block diagonal over sectors
# N, and on the truncated sector it is a real tridiagonal matrix (the
# SU(2) blocks of the lossless beam splitter).  One eigendecomposition
# per sector serves every layer.  Note this uses nothing from the
# analytic solution above beyond the conservation laws themselves: the
# coherent-branch structure has to come out of the numerics, not in.


def oracle_dims(triple: CoherentTriple, floor: int) -> tuple[int, int, int]:
    """Cutoffs ``(d_N, d_1, d_2)`` of every brute-force check of ``triple``.

    The phonon cutoff keeps the Poisson tail of alpha at ``TAIL_TOL``.
    The exchange coupling conserves the total resonator photon number,
    so reflection artifacts appear only in sectors whose ladder is cut
    off; both resonator cutoffs are sized by the tail of the *joint*
    intensity |beta|^2 + |gamma|^2, which pushes that error well below
    the check tolerances.  ``floor`` bounds every cutoff from below.
    """
    d_n = max(floor, min_fock_dim(triple.alpha, TAIL_TOL))
    joint = math.sqrt(abs(triple.beta) ** 2 + abs(triple.gamma) ** 2)
    d_r = max(floor, min_fock_dim(joint, 1e-15) + 2)
    return (d_n, d_r, d_r)


def oracle_space(dims: tuple[int, int, int]) -> TruncatedSpace:
    """Three-mode space sized for the brute-force checks.

    Its allocation cap is the fixed ``ORACLE_BYTE_BUDGET`` in complex
    entries, room for one dense matrix on the resonator pair (the
    rho_12 - mixture difference of ``separability_check_12``).  Cutoffs
    whose pair matrix would not fit are refused with ``ValueError``
    before anything is allocated.
    """
    d_n, d_1, d_2 = (int(d) for d in dims)
    pair_bytes = 16 * (d_1 * d_2) ** 2
    if pair_bytes > ORACLE_BYTE_BUDGET:
        raise ValueError(
            f"cutoffs {(d_n, d_1, d_2)}: a resonator-pair matrix would take "
            f"{pair_bytes:.3e} bytes, above the oracle budget of "
            f"{ORACLE_BYTE_BUDGET} bytes"
        )
    return TruncatedSpace((d_n, d_1, d_2), _TRIPLE_LABELS, ORACLE_BYTE_BUDGET // 16)


def initial_product_state(triple: CoherentTriple, space: TruncatedSpace) -> StateVector:
    """Truncated ``|alpha>|beta>|gamma>`` on ``space``, tail-checked per mode.

    Each mode's discarded Poisson tail must be at most ``TAIL_TOL``.
    """
    vecs = []
    for amp, dim, name in zip((triple.alpha, triple.beta, triple.gamma),
                              space.dims, _TRIPLE_LABELS):
        tail = poisson_tail(abs(amp) ** 2, dim)
        if tail > TAIL_TOL:
            raise TruncationError(
                f"mode {name}: cutoff {dim} leaves tail {tail:.3e} for "
                f"amplitude {amp}",
                required_dim=min_fock_dim(amp, TAIL_TOL),
            )
        v, _ = coherent_vector(amp, dim)
        vecs.append(v)
    full = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    return StateVector(space, full)


def exchange_evolve(psi: StateVector, theta_t: float,
                    theta0_t: float = 0.0) -> StateVector:
    """Exact propagation of a three-mode state by the exchange interaction.

    ``theta_t`` and ``theta0_t`` are the accumulated dimensionless phases
    (coupling rate times time); layer n of the phonon mode is rotated by
    ``theta0_t + n * theta_t``.
    """
    space = psi.space
    if tuple(space.labels) != _TRIPLE_LABELS:
        raise ValueError(
            f"exchange_evolve expects modes {_TRIPLE_LABELS}, got {space.labels}"
        )
    d_n, d_1, d_2 = space.dims
    layer_phase = theta0_t + np.arange(d_n) * theta_t
    tensor = psi.vector.reshape(space.dims)
    out = np.empty_like(tensor)
    for total in range(d_1 + d_2 - 1):
        n1 = np.arange(max(0, total - d_2 + 1), min(total, d_1 - 1) + 1)
        w, v = eigh_tridiagonal(np.zeros(n1.size),
                                np.sqrt((n1[:-1] + 1.0) * (total - n1[:-1])))
        phases = np.exp(-1j * np.outer(layer_phase, w))
        out[:, n1, total - n1] = ((tensor[:, n1, total - n1] @ v) * phases) @ v.T
    return StateVector(space, out.reshape(-1), norm_tol=1e-10)


def brute_force_entropies(triple: CoherentTriple, theta_t: float,
                          dims: tuple[int, int, int], theta0_t: float = 0.0):
    """Partial-trace linear entropies from exact truncated evolution.

    Returns ``(E_N|12, E_1|N2, E_2|N1)``.  The analytic entropies drop
    the theta0 rotation; passing ``theta0_t != 0`` here probes the claim
    that it only mixes the two resonators internally: E_N|12 must be
    unchanged while the two single-resonator entropies may move.
    """
    space = oracle_space(dims)
    psi_t = exchange_evolve(initial_product_state(triple, space), theta_t, theta0_t)
    return tuple(linear_entropy(reduced_density(psi_t, keep))
                 for keep in (("N",), ("TLR1",), ("TLR2",)))


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
    ``rho_12 - mixture = G^T diag(1, ..., 1, -p_n) G^*``, one product.
    rho_12 = A^T A^* shares its nonzero spectrum and trace with the
    d_N x d_N Gram matrix A A^dagger (Schmidt decomposition), which is
    the phonon state, so validating that as a density matrix checks the
    trace and positivity of rho_12.
    """
    space = oracle_space(dims)
    psi_t = exchange_evolve(initial_product_state(triple, space), theta_t)
    reduced_density(psi_t, ("N",))  # raises unless rho_12 is a valid state

    state = conditioned_state(triple, theta_t)
    p = np.abs(state.c_n) ** 2
    branches = np.array([
        np.kron(coherent_vector(b_n, dims[1])[0], coherent_vector(g_n, dims[2])[0])
        for b_n, g_n in zip(state.beta_n, state.gamma_n)
    ])
    g = np.vstack([psi_t.vector.reshape(dims[0], -1), branches])
    sign = np.concatenate([np.ones(dims[0]), -p])
    deviation = (g.T * sign) @ g.conj()
    return SeparabilityReport(
        max_abs_deviation=float(np.max(np.abs(deviation))),
        mixture_trace=float(p @ np.sum(np.abs(branches) ** 2, axis=1)),
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
    plus, _ = coherent_vector(alpha, dim)
    minus, _ = coherent_vector(-alpha, dim)
    v = plus + sign * minus
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
    space = oracle_space(dims)
    psi = initial_product_state(triple, space)
    psi_t = exchange_evolve(psi, math.pi)
    tensor = psi_t.vector.reshape(space.dims[0], -1)

    vb, _ = coherent_vector(triple.beta, dims[1])
    vg, _ = coherent_vector(triple.gamma, dims[2])
    proj_plus = np.kron(vb, vg)
    vbm, _ = coherent_vector(-triple.beta, dims[1])
    vgm, _ = coherent_vector(-triple.gamma, dims[2])
    proj_minus = np.kron(vbm, vgm)

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

    # two-branch reassembly |psi(pi)> = N+ |cat+>|b>|g> + N- |cat->|-b>|-g>
    exp_term = math.exp(-2.0 * abs(triple.alpha) ** 2)
    n_plus = math.sqrt(0.5 * (1.0 + exp_term))
    n_minus = math.sqrt(0.5 * (1.0 - exp_term))
    re = n_plus * np.kron(cat_even, proj_plus)
    if cat_odd is not None and n_minus > 0:
        re = re + n_minus * np.kron(cat_odd, proj_minus)
    re_norm = float(np.linalg.norm(re))
    re_fid = float(abs(np.vdot(re / re_norm, psi_t.vector)) ** 2)

    return CatStateReport(
        even_fidelity=f_even, odd_fidelity=f_odd,
        even_weight=w_plus, odd_weight=w_minus,
        reassembled_norm=re_norm, reassembly_fidelity=re_fid,
        dims=tuple(int(d) for d in dims),
    )
