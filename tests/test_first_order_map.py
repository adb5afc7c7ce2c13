"""The first-order N-clock map as an oracle.

Summing the kick rule over one reference cycle, to first order in eps,
gives for the differences ``theta_j = psi_j - psi_0`` (``theta_0 = 0``) the
map ``theta -> theta + eps * Omega(theta)`` with

    Omega_j(theta) = sum_k sin(theta_j - theta_k) - sum_k sin(theta_0 - theta_k).

For N = 3 it is the package's three-clock map.  At the splay state
``theta_j = 2*pi*j/N`` the sums ``sum_k cos(theta_j - theta_k)`` vanish, so
the map's Jacobian there is ``I + eps * DOmega`` with
``DOmega[j, m] = cos(theta_m) - cos(theta_j - theta_m)``.  Its circulant
part moves only the modes ``m = +-1`` under a first-harmonic coupling, so
the multipliers are ``1 - (N/2)*eps`` twice and ``1`` N-3 times: from four
clocks on, the first-order dynamics has neutral directions at the splay.

One reference cycle of the event simulator is that map up to O(eps**2),
for every N: the property below checks the error and its eps**2 scaling
componentwise, start by start.

Under a general kick ``p -> p + eps*Z(p)`` (tests/test_general_kick.py) the
same sum gives ``Omega_j = sum_k Z(theta_j - theta_k) - sum_k Z(theta_0 -
theta_k)``.  A second harmonic in ``Z`` moves the modes the first harmonic
leaves alone, so the N-3 neutral directions belong to first-harmonic
coupling (Watanabe & Strogatz, Physica D 74 (1994)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triclock.core import TWO_PI, CouplingParams, omega_field
from triclock.events import ClockEnsemble, difference_vector, run_cycle


def omega(theta, Z=np.sin):
    """``Omega`` of the kick ``Z`` at the differences ``theta_1..theta_{N-1}``."""
    full = np.concatenate(([0.0], theta))
    sums = Z(full[:, None] - full[None, :]).sum(axis=1)
    return sums[1:] - sums[0]


def first_order_step(theta, eps):
    return theta + eps * omega(theta)


def splay(n):
    return 2.0 * math.pi * np.arange(1, n) / n


def closed_form_jacobian(n, eps):
    """``I + eps * DOmega`` at the splay state, from the formula above."""
    theta = splay(n)
    d_omega = np.cos(theta)[None, :] - np.cos(theta[:, None] - theta[None, :])
    return np.eye(n - 1) + eps * d_omega


def finite_difference_jacobian(n, eps, h=1e-6):
    theta = splay(n)
    columns = []
    for m in range(n - 1):
        e = np.zeros(n - 1)
        e[m] = h
        columns.append((first_order_step(theta + e, eps) - first_order_step(theta - e, eps))
                       / (2.0 * h))
    return np.column_stack(columns)


def closed_form_multipliers(n, eps):
    return sorted([1.0 - 0.5 * n * eps] * 2 + [1.0] * (n - 3))


def test_three_clocks_give_the_drift_field():
    rng = np.random.default_rng(3)
    for x, y in rng.uniform(0.0, 2.0 * math.pi, size=(50, 2)):
        assert np.allclose(omega(np.array([x, y])), omega_field((x, y)), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_splay_is_a_fixed_point(n):
    assert np.max(np.abs(omega(splay(n)))) < 1e-14


@pytest.mark.parametrize("eps", [0.01, 0.05])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_splay_multipliers_match_the_closed_form(n, eps):
    exact = closed_form_jacobian(n, eps)
    numeric = finite_difference_jacobian(n, eps)
    # The Jacobian formula agrees with finite differences of the map ...
    assert np.max(np.abs(numeric - exact)) < 1e-8
    # ... and both have the multipliers 1 - (N/2)*eps twice and 1 N-3 times.
    expected = closed_form_multipliers(n, eps)
    for jac, tol in ((exact, 1e-12), (numeric, 1e-6)):
        multipliers = np.linalg.eigvals(jac)
        assert np.max(np.abs(multipliers.imag)) < tol
        assert np.allclose(np.sort(multipliers.real), expected, rtol=0.0, atol=tol)


# First-order rates at the splay, the eigenvalues of DOmega, under three
# kicks: a second harmonic lifts every neutral direction, a first-harmonic
# cosine term only turns the pair of decaying modes into a spiral.
KICK_RATES = [
    ("sin", np.sin, 4, [-2.0, -2.0, 0.0]),
    ("sin", np.sin, 5, [-2.5, -2.5, 0.0, 0.0]),
    ("sin + 0.3 sin 2p", lambda p: np.sin(p) + 0.3 * np.sin(2.0 * p), 4, [-2.4, -2.0, -2.0]),
    ("sin + 0.3 sin 2p", lambda p: np.sin(p) + 0.3 * np.sin(2.0 * p), 5,
     [-2.5, -2.5, -1.5, -1.5]),
    ("sin + 0.3(1 - cos)", lambda p: np.sin(p) + 0.3 * (1.0 - np.cos(p)), 4,
     [-2.0 - 0.6j, -2.0 + 0.6j, 0.0]),
    ("sin + 0.3(1 - cos)", lambda p: np.sin(p) + 0.3 * (1.0 - np.cos(p)), 5,
     [-2.5 - 0.75j, -2.5 + 0.75j, 0.0, 0.0]),
]


def by_real_then_imag(values):
    return sorted(values, key=lambda z: (round(complex(z).real, 4), complex(z).imag))


@pytest.mark.parametrize("name, Z, n, rates", KICK_RATES,
                         ids=[f"{name}-N{n}" for name, _, n, _ in KICK_RATES])
def test_splay_rates_under_a_general_kick(name, Z, n, rates):
    theta, h = splay(n), 1e-6
    columns = []
    for m in range(n - 1):
        e = np.zeros(n - 1)
        e[m] = h
        columns.append((omega(theta + e, Z) - omega(theta - e, Z)) / (2.0 * h))
    got = by_real_then_imag(np.linalg.eigvals(np.column_stack(columns)))
    assert np.max(np.abs(np.array(got) - np.array(by_real_then_imag(rates)))) < 1e-6


EPS = 4e-3


def one_cycle_error(theta, eps):
    """The simulator's differences after one reference cycle from ``theta``
    minus the map's step, wrapped into [-pi, pi), and the cycle's kick count."""
    start = ClockEnsemble(np.concatenate(([0.0], theta)), CouplingParams(epsilon=eps))
    trace = run_cycle(start, record=False)
    err = difference_vector(trace.end_state) - first_order_step(theta, eps)
    return (err + math.pi) % TWO_PI - math.pi, len(trace.kick_times)


def wrapped(v):
    v %= TWO_PI
    return 0.0 if v == TWO_PI else v


@st.composite
def starts(draw, n):
    """Differences anywhere on the torus; for N = 3 also within 1e-3 of an
    edge (from either side of it) or of the diagonal (from either triangle)."""
    theta = draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=n - 1,
                          max_size=n - 1))
    if n == 3:
        x, y = theta
        d = draw(st.floats(-1e-3, 1e-3))
        near = draw(st.sampled_from(["anywhere", "edge x", "edge y", "diagonal"]))
        if near == "edge x":
            x = wrapped(d)
        elif near == "edge y":
            y = wrapped(d)
        elif near == "diagonal":
            y = wrapped(x + d)
        theta = [x, y]
    return np.array(theta)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_one_cycle_is_the_map_up_to_second_order(n, data):
    theta = data.draw(starts(n))
    err, kicks = one_cycle_error(theta, EPS)
    half, half_kicks = one_cycle_error(theta, EPS / 2)
    if min(kicks, half_kicks) < n:
        # A clock within rounding behind the reference reaches the threshold
        # with it as the cycle closes, and kicks in the next cycle's opening
        # instant instead (see test_events.TestNearTies): this cycle lacks
        # that kick, an O(eps) difference.
        assert min(theta) < 1e-12
        return
    assert np.all(np.abs(err) <= n * n * EPS**2)
    assert np.all(np.abs(half) <= n * n * (EPS / 2) ** 2)
    # The error is eps**2 times a smooth function of the start, plus O(eps**3).
    assert np.all(np.abs(err / EPS**2 - half / (EPS / 2) ** 2) <= n**3 * EPS)
