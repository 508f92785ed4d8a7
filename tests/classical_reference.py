"""Step-by-step Kirchhoff integrator for arbitrary plate and voltage drives.

The independent reference the Floquet path of
``nemsqnd.circuit.simulate_classical_circuit`` is checked against: it
takes the plate displacement x(t) and the reference voltage V(t) as
callables and integrates the whole span with DOP853, sharing no code
with the library's integrator beyond the ``Trajectory`` it returns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from nemsqnd.circuit import PhysicalCircuitParams, Trajectory


def _zero(_t: float) -> float:
    return 0.0


def reference_trajectory(
    p: PhysicalCircuitParams,
    y0: tuple[float, float, float, float],
    t_span: tuple[float, float],
    n_samples: int,
    x_drive: Callable[[float], float] | None = None,
    v_ct: Callable[[float], float] | None = None,
    rtol: float = 1e-10,
    atol: float | np.ndarray | None = None,
) -> Trajectory:
    """Integrate

        dQ1/dt = P1 / L1
        dP1/dt = -Q1 / Ctilde1(t) - c(t) Q2 - ((d - x) / 2d) V(t)
        dQ2/dt = P2 / L2
        dP2/dt = -Q2 / Ctilde2(t) - c(t) Q1 + ((d + x) / 2d) V(t)

    with c(t) = (d^2 - x^2(t)) / (2 d eps0 A), 1/Ctilde_i(t) = 1/C_i + c(t),
    from ``y0 = (Q1, P1, Q2, P2)`` at ``t_span[0]``, sampled at
    ``n_samples`` evenly spaced times.  ``x_drive`` and ``v_ct`` default
    to zero; ``atol`` (scalar or per component) defaults to
    ``1e-2 * rtol * max|y0|``.  Raises ``ValueError`` when |x(t)| reaches
    the gap on a grid of ``4 * n_samples`` times.
    """
    x_of = x_drive or _zero
    v_of = v_ct or _zero
    t0, t1 = t_span
    worst = max(abs(x_of(t)) for t in np.linspace(t0, t1, 4 * n_samples))
    if worst >= p.d:
        raise ValueError(
            f"|x(t)| reaches {worst:.3e} m which meets the plate separation "
            f"{p.d:.3e} m; the plates would short"
        )

    def rhs(t, y):
        x = x_of(t)
        v = v_of(t)
        c = (p.d**2 - x * x) / (2.0 * p.d * p.eps0 * p.A)
        q1, p1, q2, p2 = y
        return (
            p1 / p.L1,
            -(1.0 / p.C1 + c) * q1 - c * q2 - (p.d - x) / (2.0 * p.d) * v,
            p2 / p.L2,
            -(1.0 / p.C2 + c) * q2 - c * q1 + (p.d + x) / (2.0 * p.d) * v,
        )

    if atol is None:
        atol = 1e-2 * rtol * max(max(map(abs, y0)), 1e-30)
    t_eval = np.linspace(t0, t1, n_samples)
    sol = solve_ivp(rhs, (t0, t1), list(y0), method="DOP853",
                    rtol=rtol, atol=atol, t_eval=t_eval)
    assert sol.success, sol.message
    return Trajectory(sol.t, *sol.y)
