"""Explicit Runge-Kutta integration with the Dormand-Prince 8(5,3) pair.

DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 2nd ed., Sec. II.10): twelve stages of order 8, with the
error estimated from embedded solutions of orders 5 and 3.  The error
norm, the step-size control, the initial step and the ``rtol``/``atol``
meaning are those of ``scipy.integrate.solve_ivp(method="DOP853")``.

There are two entry points.  :func:`solve` advances adaptively and
returns every accepted node, the last at the end of the span.
:func:`step` takes one step of one state; stepping from the accepted
node nearest to a requested time (:func:`nearest`) replaces dense
output, since that step is no longer than half the accepted step around
it and so its local error is no larger than that step's.

A state is a NumPy array or one Python ``complex``, decided once per
call.  Only the tableau rows, the 12-slot stage container, the weighted
stage sums (``einsum`` over the dense tableau for an array; Python sums
over the nonzero coefficients, without NumPy, for a ``complex``) and two
reductions (a state's sum and the entrywise maximum of two states)
differ by kind; the start, the norms, the finiteness test, the step
control and the two lists :func:`solve` returns are shared.  ``rhs(t,
y)`` returns a state of the kind of ``y``.  An array's last axis may
hold columns that :func:`step` takes each from its own start to its own
end time, so one ``rhs`` written with NumPy broadcasting serves both.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from types import SimpleNamespace

from .errors import IntegrationError

# The tableau is Hairer's dop853.f as transcribed in SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause), each
# coefficient written as the shortest literal of the same double.  A row
# lists its nonzero entries as (stage, coefficient) pairs.
C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
     (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
     (10, 0.20136540080403034), (11, 0.04471061572777259))
# weights of the error estimates; SciPy's 13th entries, on rhs at the
# step's end, are zero and left out
E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.02265179219836082))
E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
      (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
      (10, 0.08192320648511571), (11, -0.022355307863886294))

#: step-size control of solve_ivp's Runge-Kutta solvers
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0

#: accepted steps one :func:`solve` may take before it gives up
MAX_STEPS = 100_000


def _complex_row(row):
    return tuple((j, complex(a)) for j, a in row)


def _complex_combine(row, k):
    total = 0j
    for j, w in row:
        total += w * k[j]
    return total


#: A state that is one Python ``complex``: its stage sums run over the
#: nonzero coefficients, held as complex numbers (a float times a complex
#: takes the slower mixed-type path), and a number is its own sum.
_COMPLEX = SimpleNamespace(
    A=tuple(map(_complex_row, A)), B=_complex_row(B), E3=_complex_row(E3), E5=_complex_row(E5),
    stages=lambda y, f: [f] * 12, combine=_complex_combine, sum=lambda x: x, maximum=max)


@functools.cache
def _arrays() -> SimpleNamespace:
    """A NumPy array state: its stage sums are one ``einsum`` over the
    dense tableau, which calls no BLAS (a ``gemv`` here can stall for
    0.1 s in a multithreaded OpenBLAS)."""
    import numpy as np

    def dense(row, n=12):
        w = np.zeros(n)
        for j, a in row:
            w[j] = a
        return w

    return SimpleNamespace(
        A=[dense(row, i) for i, row in enumerate(A)], B=dense(B), E3=dense(E3), E5=dense(E5),
        stages=lambda y, f: np.empty((12,) + y.shape, dtype=np.result_type(y, f)),
        combine=lambda w, k: np.einsum("j,j...->...", w, k[:w.size]),
        sum=np.sum, maximum=np.maximum)


def _kind(y):
    return _COMPLEX if type(y) is complex else _arrays()


def _size(x) -> int:
    return getattr(x, "size", 1)


def _sum_sq(kind, x) -> float:
    return float(kind.sum(x * x.conjugate()).real)


def _rms(kind, x) -> float:
    return math.sqrt(_sum_sq(kind, x)) / _size(x) ** 0.5


def _finite(kind, x) -> bool:
    """Whether every entry of ``x`` is finite.  It counts entries whose
    parts have finite moduli, which, unlike a sum of squares, cannot
    overflow."""
    return kind.sum((abs(x.real) < math.inf) & (abs(x.imag) < math.inf)) == _size(x)


def _advance(kind, rhs, t, y, f, h):
    """One step of size ``h``: the new state and the 12 stage derivatives."""
    k, combine, rows = kind.stages(y, f), kind.combine, kind.A
    k[0] = f
    for i in range(1, 12):
        k[i] = rhs(t + C[i] * h, y + h * combine(rows[i], k))
    return y + h * combine(kind.B, k), k


def _error_norm(kind, k, h, scale) -> float:
    e5 = _sum_sq(kind, kind.combine(kind.E5, k) / scale)
    e3 = _sum_sq(kind, kind.combine(kind.E3, k) / scale)
    if e5 == 0 and e3 == 0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * _size(scale))


def _initial_step(kind, rhs, t, y, f, length, max_step, rtol, atol) -> float:
    """Hairer, Norsett & Wanner, Sec. II.4, as in solve_ivp.

    Refuses a trial step ``h0`` that is not positive (a norm of ``f``
    that overflows), a right-hand side that is not finite at ``t + h0``,
    and a first step that is not finite and positive.
    """
    scale = atol + abs(y) * rtol
    d0, d1 = _rms(kind, y / scale), _rms(kind, f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    if not h0 > 0:
        raise IntegrationError(f"first trial step {h0!r} is not positive")
    f0 = rhs(t + h0, y + h0 * f)
    if not _finite(kind, f0):
        raise IntegrationError(f"non-finite right-hand side at the first trial step t = {t + h0!r}")
    d2 = _rms(kind, (f0 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    h = min(100 * h0, h1, length, max_step)
    if not 0 < h < math.inf:
        raise IntegrationError(f"first step {h!r} is not finite and positive")
    return h


def solve(rhs, t_span, y0, rtol, scale, max_step=math.inf):
    """Integrate ``y' = rhs(t, y)`` adaptively over the finite, increasing ``t_span``.

    ``rtol`` below 100 machine epsilons is raised to that floor, as in
    solve_ivp, and then ``atol = 1e-2 * rtol * scale``, with ``scale`` the
    state's natural size, broadcast against ``y0``.  Returns the accepted
    nodes ``(t, y)`` up to exactly ``t_span[1]`` as two lists of k entries.

    Raises
    ------
    ValueError
        If ``t_span`` is not finite and increasing, ``rtol`` not finite or
        ``atol`` not finite and positive; checked before ``rhs`` is called.
    IntegrationError
        If ``y0`` or ``rhs`` there is not finite, if the first trial step
        is not positive, ``rhs`` at its end not finite or the first step
        not finite and positive (all before the first step), if the step
        size falls below the resolution of ``t`` (or is not a number), or
        after ``MAX_STEPS`` steps.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_end) and t_end > t):
        raise ValueError(f"t_span must be finite and increasing, got ({t!r}, {t_end!r})")
    y = y0 + 0.0
    kind = _kind(y)
    if not math.isfinite(rtol):
        raise ValueError(f"rtol must be finite, got {rtol!r}")
    rtol = max(float(rtol), 100 * sys.float_info.epsilon)
    atol = 1e-2 * rtol * scale
    if kind.sum((atol > 0) & (atol < math.inf)) != _size(atol):
        raise ValueError(f"scale and atol must be finite and positive, got scale = {scale!r}")
    f = rhs(t, y)
    if not (_finite(kind, y) and _finite(kind, f)):
        raise IntegrationError("non-finite initial state or right-hand side")
    h_abs = _initial_step(kind, rhs, t, y, f, t_end - t, max_step, rtol, atol)
    ts, ys = [t], [y]
    while t < t_end:
        if len(ts) > MAX_STEPS:
            raise IntegrationError(f"no end of the span within {MAX_STEPS} steps")
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            # written so that a NaN step fails it too
            if not h_abs >= min_step:
                raise IntegrationError(f"step size fell below {min_step:.3e} at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            y_new, k = _advance(kind, rhs, t, y, f, h)
            f_new = rhs(t_new, y_new)
            scale = atol + kind.maximum(abs(y), abs(y_new)) * rtol
            err = _error_norm(kind, k, h, scale)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            # a NaN error norm fails the test above and shrinks the step too
            h_abs = h * max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return ts, ys


def nearest(nodes, t):
    """Index of the node nearest to each time in ``t``; ``nodes`` increasing.

    A list of nodes (what :func:`solve` returns) gives a list of
    indices; an array of nodes takes an array of times and gives an array.
    """
    if isinstance(nodes, list):
        last = len(nodes) - 1
        near = []
        for s in t:
            i = min(max(bisect.bisect_left(nodes, s), 1), last)
            near.append(i - (s - nodes[i - 1] < nodes[i] - s))
        return near
    i = nodes.searchsorted(t).clip(1, len(nodes) - 1)
    return i - (t - nodes[i - 1] < nodes[i] - t)


def step(rhs, t0, y0, t):
    """One DOP853 step of the state ``y0`` from ``t0`` to ``t``.

    ``y0`` is a ``complex``, with numbers ``t0`` and ``t``, or an array
    whose last axis holds columns that each start at their own ``t0``
    and end at their own ``t`` (numbers, or arrays over that axis).  The
    result is a state of the kind and shape of ``y0``.  No error is
    estimated: the step size is meant to be bounded by an accepted step
    of :func:`solve`.
    """
    return _advance(_kind(y0), rhs, t0, y0, rhs(t0, y0), t - t0)[0]
