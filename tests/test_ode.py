"""The package's DOP853 integrator against SciPy's tableau and closed forms."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as reference

from nemsqnd import ode
from nemsqnd.errors import IntegrationError


def dense(rows, n):
    """A dense (len(rows), n) array from rows of (stage, coefficient) pairs."""
    out = np.zeros((len(rows), n))
    for i, row in enumerate(rows):
        for j, value in row:
            out[i, j] = value
    return out


def test_tableau_is_scipys():
    a = dense(ode.A, 12)
    b, e3, e5 = dense([ode.B, ode.E3, ode.E5], 12)
    assert np.array_equal(np.array(ode.C), reference.C[:12])
    assert np.array_equal(a, reference.A[:12, :12])
    assert np.array_equal(b, reference.B)
    # SciPy's 13th error weights act on rhs at the step's end; both are
    # zero, so the package keeps the first 12
    assert reference.E3[12] == reference.E5[12] == 0.0
    assert np.array_equal(e3, reference.E3[:12])
    assert np.array_equal(e5, reference.E5[:12])
    # the rows leave out exactly SciPy's zeros, each entry once
    for rows, full in [(ode.A, reference.A[:12, :12]),
                       ([ode.B, ode.E3, ode.E5], [reference.B, reference.E3, reference.E5])]:
        for row, ref in zip(rows, full):
            kept = [j for j, _ in row]
            assert kept == sorted(set(kept))
            assert all(ref[j] == 0.0 for j in range(12) if j not in kept)
            assert all(value != 0.0 for _, value in row)


def test_tableau_order_conditions_up_to_four():
    a, b, c = dense(ode.A, 12), dense([ode.B], 12)[0], np.array(ode.C)
    np.testing.assert_allclose(a.sum(axis=1), c, atol=1e-15)
    conditions = [
        (b.sum(), 1.0),
        (b @ c, 1 / 2),
        (b @ c**2, 1 / 3), (b @ a @ c, 1 / 6),
        (b @ c**3, 1 / 4), (b @ (c * (a @ c)), 1 / 8),
        (b @ a @ c**2, 1 / 12), (b @ a @ a @ c, 1 / 24),
    ]
    for got, want in conditions:
        assert got == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("lam", [-0.3 + 2j, 0.2 - 1.5j])
@pytest.mark.parametrize("rtol", [1e-6, 1e-10])
def test_linear_equation_within_a_few_rtol(lam, rtol):
    def rhs(_t, y):
        return lam * y

    nodes, states = ode.solve(rhs, (0.0, 10.0), np.array([1.0 + 0j]), rtol, 1e-30)
    assert isinstance(nodes, list) and isinstance(states, list)
    nodes, states = np.array(nodes), np.array(states)
    assert nodes[0] == 0.0 and nodes[-1] == 10.0
    exact = np.exp(lam * nodes)
    assert np.max(np.abs(states[:, 0] - exact) / np.abs(exact)) <= 5 * rtol

    t = np.linspace(0.0, 10.0, 1001)
    near = ode.nearest(nodes, t)
    gaps = np.abs(nodes[:, None] - t)
    np.testing.assert_array_equal(gaps[near, np.arange(t.size)], gaps.min(axis=0))
    y = ode.step(rhs, nodes[near], states[near].T, t)
    assert y.shape == (1, t.size)
    assert np.max(np.abs(y[0] - np.exp(lam * t)) / np.abs(np.exp(lam * t))) <= 5 * rtol

    # one vectorised step per accepted step lands on the adaptive nodes
    hops = ode.step(rhs, nodes[:-1], states[:-1].T, nodes[1:])
    np.testing.assert_allclose(hops.T, states[1:], rtol=1e-13)
    np.testing.assert_array_equal(ode.step(rhs, nodes, states.T, nodes), states.T)

    # a Python complex takes the sums over the nonzero coefficients, one
    # sample per step; rounding in its error estimate steers its step
    # sizes away from the array's, so it too is judged against the closed form
    nodes, states = ode.solve(rhs, (0.0, 10.0), 1.0 + 0j, rtol, 1e-30)
    assert isinstance(nodes, list) and isinstance(states[-1], complex)
    assert nodes[0] == 0.0 and nodes[-1] == 10.0
    exact = np.exp(lam * np.array(nodes))
    assert np.max(np.abs(np.array(states) - exact) / np.abs(exact)) <= 5 * rtol
    near = ode.nearest(nodes, t.tolist())
    assert near == ode.nearest(np.array(nodes), t).tolist()
    y = [ode.step(rhs, nodes[i], states[i], s) for i, s in zip(near, t.tolist())]
    assert all(isinstance(v, complex) for v in y)
    assert np.max(np.abs(np.array(y) - np.exp(lam * t)) / np.abs(np.exp(lam * t))) <= 5 * rtol
    assert [ode.step(rhs, s, y, s) for s, y in zip(nodes, states)] == states


@pytest.mark.parametrize("rtol", [1e-300, 5e-324])
def test_rtol_below_the_floor_runs_at_the_floor(rtol):
    """An rtol below 100 machine epsilons gives exactly the solve at that
    floor, its absolute tolerance included, and warns of nothing, for an
    array and for a Python complex.  An absolute tolerance from the
    unfloored rtol once made the first trial step 0.0 (1e-300) or divided
    by zero (5e-324)."""
    def driven(t, y):
        return np.array((y[1], -(1.0 + 0.4 * math.cos(3.0 * t)) * y[0]))

    def decaying(_t, y):
        return (-0.3 + 2j) * y

    for rhs, y0, scale in ((driven, np.array([1.0, 0.0]), np.array([1.0, 1.0])),
                           (decaying, 1.0 + 0j, 1e-30)):
        floor = ode.solve(rhs, (0.0, 20.0), y0, 100 * sys.float_info.epsilon, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = ode.solve(rhs, (0.0, 20.0), y0, rtol, scale)
        for got, want in zip(tiny, floor):
            np.testing.assert_array_equal(got, want)


def test_non_finite_rhs_raises():
    with pytest.raises(IntegrationError, match="non-finite"):
        ode.solve(lambda t, y: y * np.nan, (0.0, 1.0), np.ones(2), 1e-8, 1.0)
    # any inf or NaN entry of either kind is refused, in either part
    for y0 in [np.array([1.0, np.inf]), np.array([0j, complex(0.0, -np.inf)]),
               np.array([[1.0, np.nan]]), complex(np.inf, 0.0), complex(0.0, np.nan)]:
        with pytest.raises(IntegrationError, match="non-finite"):
            ode.solve(lambda t, y: y, (0.0, 1.0), y0, 1e-8, 1.0)
    # and no finite one, however large: a sum of squares would overflow here
    for y0 in [np.array([1e308, -1e308, 1e308]), 1e308 + 1e300j]:
        _, states = ode.solve(lambda t, y: 0 * y, (0.0, 1.0), y0, 1e-8, 1.0)
        np.testing.assert_array_equal(states[-1], y0)

    def blows_up(t, y):
        return -y if t < 0.5 else y * np.inf

    with pytest.raises(IntegrationError, match="step size"), np.errstate(invalid="ignore"):
        ode.solve(blows_up, (0.0, 1.0), np.ones(2), 1e-8, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(math.inf, 1.0)])
def test_non_finite_rhs_at_the_first_trial_point_is_refused(bad):
    """``max(d1, d2)`` would drop a NaN ``d2``, so an ``rhs`` that is not
    finite at the first trial point ``t0 + h0`` is refused by name there,
    before any step: ``rhs`` is called at ``t0`` and at that point alone."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y if t == 0.0 else y * bad

    for y0 in (np.ones(2), 1.0 + 0j):
        calls.clear()
        with pytest.raises(IntegrationError, match="^non-finite right-hand side at the first "
                                                   "trial step"), np.errstate(invalid="ignore"):
            ode.solve(rhs, (0.0, 1.0), y0, 1e-8, 1.0)
        assert len(calls) == 2 and calls[1] > 0.0


def test_first_step_must_be_finite_and_positive():
    """A norm of ``rhs`` that overflows leaves a zero trial step (it once
    divided by it), and a difference of right-hand sides that overflows a
    zero first step; each is refused by name before any step."""
    def large(t, y):
        return np.full(2, 1e200)

    with pytest.raises(IntegrationError, match="^first trial step 0.0 is not positive"), \
            np.errstate(over="ignore"):
        ode.solve(large, (0.0, 1.0), np.ones(2), 1e-8, 1.0)

    def flips(t, y):
        return np.full(2, -1e308 if t == 0.0 else 1e308)

    with pytest.raises(IntegrationError, match="^first step 0.0 is not finite and positive"), \
            np.errstate(over="ignore"):
        ode.solve(flips, (0.0, 1.0), np.ones(2), 1e-8, 1e300)


def test_step_cap_raises(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="10 steps"):
        ode.solve(lambda t, y: -y, (0.0, 1.0), np.ones(1), 1e-8, 1.0, max_step=0.01)
    nodes, _ = ode.solve(lambda t, y: -y, (0.0, 0.05), np.ones(1), 1e-8, 1.0, max_step=0.01)
    assert nodes[-1] == 0.05 and len(nodes) <= 11


@pytest.mark.parametrize("y0,rtol,scale", [
    (np.ones(2), math.nan, 1e-12),
    (np.ones(2), math.inf, 1e-12),
    (np.ones(2), 1e-8, math.nan),
    (np.ones(2), 1e-8, np.array([1e-12, -math.inf])),
    (1.0 + 0j, math.nan, 1e-12),
    (1.0 + 0j, 1e-8, math.inf),
    (np.ones(2), 1e-8, np.array([1.0, math.inf])),
    (np.ones(2), 1e-8, np.array([1.0, 0.0])),
    (np.ones(2), 1e-8, np.array([1.0, -1.0])),
    (np.ones(2), 1e-8, 0.0),
    (1.0 + 0j, 1e-8, math.nan),
    (1.0 + 0j, 1e-8, -math.inf),
    (1.0 + 0j, 1e-8, 0.0),
    (1.0 + 0j, 1e-8, -1.0),
    (0j, 1e-8, 5e-324),
])
def test_non_finite_tolerances_are_refused(y0, rtol, scale):
    """A NaN tolerance makes every step size NaN, and a NaN step was once
    retried forever; a zero or negative scale gives a zero or negative
    absolute tolerance, which divides by zero or acts as its magnitude,
    and so does a subnormal one, whose absolute tolerance underflows to
    zero.  An ``rtol`` that is not finite, or a ``scale`` with an entry
    that is not finite and positive, is refused before the right-hand
    side is called."""
    def rhs(t, y):
        raise AssertionError("rhs called")

    name = "scale" if math.isfinite(rtol) else "rtol"
    with pytest.raises(ValueError, match=f"^{name} .*must be finite"):
        ode.solve(rhs, (0.0, 1.0), y0, rtol, scale)


def test_nan_step_size_raises(monkeypatch):
    """A step size that is not a number fails the step-size test."""
    monkeypatch.setattr(ode, "_initial_step", lambda *args: math.nan)
    with pytest.raises(IntegrationError, match="step size"):
        ode.solve(lambda t, y: -y, (0.0, 1.0), np.ones(1), 1e-8, 1.0)


def test_span_must_increase():
    """A span that is not finite and increasing is refused before the
    right-hand side is called (from t = -inf every step size is NaN)."""
    def rhs(t, y):
        raise AssertionError("rhs called")

    for span in [(1.0, 1.0), (2.0, 1.0), (-math.inf, 0.0), (0.0, math.inf),
                 (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="finite and increasing"):
            ode.solve(rhs, span, np.ones(1), 1e-8, 1.0)
