"""Explicit Runge-Kutta integration with the Dormand-Prince 8(5,3) pair.

DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 2nd ed., Sec. II.10): twelve stages of order 8, with the
error estimated from embedded solutions of orders 5 and 3.  The error
norm, the step-size control, the initial step and the ``rtol``/``atol``
meaning are those of ``scipy.integrate.solve_ivp(method="DOP853")``.

There are two entry points.  :func:`solve` advances adaptively and
returns every accepted node.  :func:`step` takes one step from each of
many starting points at once; stepping from the accepted node nearest
to a requested time (:func:`nearest`) replaces dense output, since that
step is no longer than half the accepted step around it and so its local
error is no larger than that step's.

A state is a NumPy array or one Python ``complex``.  Each call decides
once which it has; only the stage container, the weighted stage sums,
the norms, the finiteness test and the containers of the result differ.  An array forms its sums with ``einsum`` over the
dense tableau and gives arrays; a ``complex`` forms them as Python sums
over the nonzero coefficients, gives lists and needs no NumPy.  Every
right-hand side ``rhs(t, y)`` returns a state of the kind of ``y``.  In
:func:`step` an array's time is an array over the *last* axis of ``y``
(one column per starting point), so an ``rhs`` written with NumPy
broadcasting serves both entry points.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import sys

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


def _complex_rows(rows):
    return tuple(tuple((j, complex(a)) for j, a in row) for row in rows)


class _Complex:
    """Helpers for a state that is one Python ``complex``: sums over the
    nonzero coefficients, held as complex numbers (a float times a
    complex takes the slower mixed-type path)."""

    A, (B, E3, E5) = _complex_rows(A), _complex_rows((B, E3, E5))

    @staticmethod
    def start(y0, atol):
        return y0, float(atol)

    @staticmethod
    def stages(y, f):
        return [f] * 12

    @staticmethod
    def combine(row, k):
        total = 0j
        for j, w in row:
            total += w * k[j]
        return total

    @staticmethod
    def sum_sq(x):
        return (x * x.conjugate()).real

    rms, maximum, finite = abs, max, cmath.isfinite

    @staticmethod
    def nodes(ts, ys):
        return ts, ys


class _Arrays:
    """Helpers for a NumPy array state: the dense tableau through ``einsum``."""

    def __init__(self):
        import numpy as np

        def dense(row, n):
            w = np.zeros(n)
            for j, a in row:
                w[j] = a
            return w

        self.np = np
        self.A = [dense(row, i) for i, row in enumerate(A)]
        self.B, self.E3, self.E5 = (dense(row, 12) for row in (B, E3, E5))
        self.maximum = np.maximum

    def start(self, y0, atol):
        y = self.np.asarray(y0) + 0.0
        return y, self.np.broadcast_to(self.np.asarray(atol, dtype=float), y.shape)

    def stages(self, y, f):
        return self.np.empty((12,) + y.shape, dtype=self.np.result_type(y, f))

    def combine(self, weights, k):
        """``sum_j weights[j] k[j]`` by ``einsum``, which calls no BLAS (a
        ``gemv`` here can stall for 0.1 s in a multithreaded OpenBLAS)."""
        return self.np.einsum("j,j...->...", weights, k[:weights.size])

    def sum_sq(self, x):
        return self.np.vdot(x, x).real

    def rms(self, x) -> float:
        return float(self.np.linalg.norm(x.ravel())) / x.size ** 0.5

    def finite(self, x) -> bool:
        return bool(self.np.isfinite(x).all())

    def nodes(self, ts, ys):
        return self.np.array(ts), self.np.array(ys)


@functools.cache
def _arrays() -> _Arrays:
    return _Arrays()


def _kind(y):
    return _Complex if type(y) is complex else _arrays()


def _stages(kind, rhs, t, y, f, h):
    """Stage derivatives of one step, 12 of them."""
    k, combine, rows = kind.stages(y, f), kind.combine, kind.A
    k[0] = f
    for i in range(1, 12):
        k[i] = rhs(t + C[i] * h, y + h * combine(rows[i], k))
    return k


def _error_norm(kind, k, h, scale) -> float:
    err5 = kind.combine(kind.E5, k) / scale
    err3 = kind.combine(kind.E3, k) / scale
    e5, e3 = kind.sum_sq(err5), kind.sum_sq(err3)
    if e5 == 0 and e3 == 0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * getattr(scale, "size", 1))


def _initial_step(kind, rhs, t, y, f, length, max_step, rtol, atol) -> float:
    """Hairer, Norsett & Wanner, Sec. II.4, as in solve_ivp."""
    scale = atol + abs(y) * rtol
    d0, d1 = kind.rms(y / scale), kind.rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    d2 = kind.rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, length, max_step)


def solve(rhs, t_span, y0, rtol, atol, max_step=math.inf):
    """Integrate ``y' = rhs(t, y)`` adaptively over the finite, increasing ``t_span``.

    ``atol`` broadcasts against ``y0``; ``rtol`` below 100 machine
    epsilons is raised to that floor, as in solve_ivp.  Returns the
    accepted nodes ``(t, y)`` from ``t_span[0]`` to exactly
    ``t_span[1]``: arrays of shapes (k,) and (k,) + y0.shape, or two
    lists of k for a ``complex`` ``y0``.

    Raises
    ------
    ValueError
        If ``t_span`` is not finite and increasing; checked before
        ``rhs`` is called.
    IntegrationError
        If ``y0`` or ``rhs`` there is not finite, if the step size falls
        below the resolution of ``t``, or after ``MAX_STEPS`` steps.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_end) and t_end > t):
        raise ValueError(f"t_span must be finite and increasing, got ({t!r}, {t_end!r})")
    kind = _kind(y0)
    y, atol = kind.start(y0, atol)
    rtol = max(float(rtol), 100 * sys.float_info.epsilon)
    f = rhs(t, y)
    if not (kind.finite(y) and kind.finite(f)):
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
            if h_abs < min_step:
                raise IntegrationError(f"step size fell below {min_step:.3e} at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k = _stages(kind, rhs, t, y, f, h)
            y_new = y + h * kind.combine(kind.B, k)
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
    return kind.nodes(ts, ys)


def nearest(nodes, t):
    """Index of the node nearest to each time in ``t``; ``nodes`` increasing.

    Array nodes give an array of indices, a list of nodes (what
    :func:`solve` returns for a ``complex``) a list.
    """
    if isinstance(nodes, list):
        last = len(nodes) - 1
        near = []
        for s in t:
            i = min(max(bisect.bisect_left(nodes, s), 1), last)
            near.append(i - (s - nodes[i - 1] < nodes[i] - s))
        return near
    import numpy as np

    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(nodes, t), 1, len(nodes) - 1)
    return i - (t - nodes[i - 1] < nodes[i] - t)


def _step(kind, rhs, t0, y0, h):
    k = _stages(kind, rhs, t0, y0, rhs(t0, y0), h)
    return y0 + h * kind.combine(kind.B, k)


def step(rhs, t0, y0, t):
    """One DOP853 step from each starting point ``(t0[j], y0[..., j])`` to ``t[j]``.

    ``t0`` and ``t`` hold N times.  ``y0`` is an array of shape (n, N),
    giving one of the same shape, or a list of N ``complex``, giving a
    list.  No error is estimated: the step sizes are meant to be bounded
    by accepted steps of :func:`solve`.
    """
    if not hasattr(y0, "shape"):
        return [_step(_Complex, rhs, a, y, b - a) for a, y, b in zip(t0, y0, t)]
    np = _arrays().np
    t0 = np.asarray(t0, dtype=float)
    return _step(_arrays(), rhs, t0, y0, np.asarray(t, dtype=float) - t0)
