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
"""

import math

import numpy as np
import pytest

from triclock.core import omega_field


def omega(theta):
    """``Omega`` at the differences ``theta_1..theta_{N-1}``."""
    full = np.concatenate(([0.0], theta))
    sums = np.sin(full[:, None] - full[None, :]).sum(axis=1)
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
