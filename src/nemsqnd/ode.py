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

Every right-hand side ``rhs(t, y)`` returns an array shaped like ``y``.
In :func:`step` the time is an array over the *last* axis of ``y``
(one column per starting point), so an ``rhs`` written with NumPy
broadcasting serves both entry points.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError

# The tableau is Hairer's dop853.f as transcribed in SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause), each
# coefficient written as the shortest literal of the same double.
C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
A = np.zeros((12, 12))
A[1, :1] = [0.05260015195876773]
A[2, :2] = [0.0197250569845379, 0.0591751709536137]
A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
A[6, [0, 3, 4, 5]] = [0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125]
A[7, [0, 3, 4, 5, 6]] = [0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
                         -0.015319437748624402, 0.008273789163814023]
A[8, [0, 3, 4, 5, 6, 7]] = [0.6241109587160757, -3.3608926294469414, -0.868219346841726,
                            27.59209969944671, 20.154067550477894, -43.48988418106996]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [0.47766253643826434, -2.4881146199716677, -0.590290826836843,
                               21.230051448181193, 15.279233632882423, -33.28821096898486,
                               -0.020331201708508627]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-0.9371424300859873, 5.186372428844064, 1.0914373489967295,
                                   -8.149787010746927, -18.52006565999696, 22.739487099350505,
                                   2.4936055526796523, -3.0467644718982196]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.273310147516538, -10.53449546673725, -2.0008720582248625,
                                       -17.9589318631188, 27.94888452941996, -2.8589982771350235,
                                       -8.87285693353063, 12.360567175794303, 0.6433927460157636]
B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
              -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
              0.04471061572777259])
# weights of the error estimates; SciPy's 13th entries, on rhs at the
# step's end, are zero and left out
E3 = B.copy()
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.zeros(12)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                                  1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                                  0.08192320648511571, -0.022355307863886294]

#: step-size control of solve_ivp's Runge-Kutta solvers
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0

#: accepted steps one :func:`solve` may take before it gives up
MAX_STEPS = 100_000


def _combine(weights, k) -> np.ndarray:
    """``sum_j weights[j] k[j]`` by ``einsum``, which calls no BLAS (a
    ``gemv`` here can stall for 0.1 s in a multithreaded OpenBLAS)."""
    return np.einsum("j,j...->...", weights, k)


def _stages(rhs, t, y, f, h) -> np.ndarray:
    """Stage derivatives, shape (12,) + y.shape, of one step."""
    k = np.empty((12,) + y.shape, dtype=np.result_type(y, f))
    k[0] = f
    for i in range(1, 12):
        k[i] = rhs(t + C[i] * h, y + h * _combine(A[i, :i], k[:i]))
    return k


def _advance(k, y, h):
    return y + h * _combine(B, k)


def _rms(x) -> float:
    return float(np.linalg.norm(x.ravel())) / x.size ** 0.5


def _error_norm(k, h, scale) -> float:
    err5 = _combine(E5, k) / scale
    err3 = _combine(E3, k) / scale
    e5, e3 = np.vdot(err5, err5).real, np.vdot(err3, err3).real
    if e5 == 0 and e3 == 0:
        return 0.0
    return abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * scale.size)


def _initial_step(rhs, t, y, f, length, max_step, rtol, atol) -> float:
    """Hairer, Norsett & Wanner, Sec. II.4, as in solve_ivp."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, length, max_step)


def solve(rhs, t_span, y0, rtol, atol, max_step=np.inf):
    """Integrate ``y' = rhs(t, y)`` adaptively over the increasing ``t_span``.

    ``atol`` broadcasts against ``y0``; ``rtol`` below 100 machine
    epsilons is raised to that floor, as in solve_ivp.  Returns the
    accepted nodes ``(t, y)``, shapes (k,) and (k,) + y0.shape, from
    ``t_span[0]`` to exactly ``t_span[1]``.

    Raises
    ------
    IntegrationError
        If ``y0`` or ``rhs`` there is not finite, if the step size falls
        below the resolution of ``t``, or after ``MAX_STEPS`` steps.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t:
        raise ValueError("t_span must be increasing")
    y = np.asarray(y0) + 0.0
    rtol = max(float(rtol), 100 * np.finfo(float).eps)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), y.shape)
    f = rhs(t, y)
    if not (np.isfinite(y).all() and np.isfinite(f).all()):
        raise IntegrationError("non-finite initial state or right-hand side")
    h_abs = _initial_step(rhs, t, y, f, t_end - t, max_step, rtol, atol)
    ts, ys = [t], [y]
    while t < t_end:
        if len(ts) > MAX_STEPS:
            raise IntegrationError(f"no end of the span within {MAX_STEPS} steps")
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size fell below {min_step:.3e} at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            k = _stages(rhs, t, y, f, h)
            y_new = _advance(k, y, h)
            f_new = rhs(t_new, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(k, h, scale)
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
    return np.array(ts), np.array(ys)


def nearest(nodes, t) -> np.ndarray:
    """Index of the node nearest to each time in ``t``; ``nodes`` increasing."""
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(nodes, t), 1, len(nodes) - 1)
    return i - (t - nodes[i - 1] < nodes[i] - t)


def step(rhs, t0, y0, t) -> np.ndarray:
    """One DOP853 step from each ``(t0[j], y0[..., j])`` to ``t[j]``.

    ``t0`` and ``t`` have shape (N,) and ``y0`` shape (n, N); the result
    is shaped like ``y0``.  No error is estimated: the step sizes are
    meant to be bounded by accepted steps of :func:`solve`.
    """
    t0 = np.asarray(t0, dtype=float)
    h = np.asarray(t, dtype=float) - t0
    return _advance(_stages(rhs, t0, y0, rhs(t0, y0), h), y0, h)
