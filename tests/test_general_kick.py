"""The splay's stability under a general kick.

The paper claims its result holds "despite the particular models of the
oscillators".  Here the kick ``p -> p + eps*sin(p)`` becomes ``p -> p +
eps*Z(p)`` for a 2*pi-periodic ``Z`` with ``Z(0) = 0``, in a test-side
cycle that takes ``Z`` (the package's simulator stays ``sin``-only).
Summing one reference cycle's kicks to first order gives the map
``(x, y) -> (x, y) + eps*omega_Z(x, y)`` with

    f(x, y) = Z(x) - Z(-x) - Z(-y) + Z(x - y),    g(x, y) = f(y, x),

which is the package's field for ``Z = sin``.  The splay ``(2*pi/3,
4*pi/3)`` is a fixed point of it for every ``Z``, and with ``A =
Z'(2*pi/3)`` and ``B = Z'(4*pi/3)`` its multipliers are

    1 + eps*((3/2)*(A + B) +- i*(sqrt(3)/2)*|A - B|),

so at small eps the splay attracts exactly when ``A + B < 0``.  The claim
holds under that condition on the model, not for every model: ``-sin``
and ``sin(3p)`` repel.
"""

import math

import numpy as np
import pytest

from triclock import events
from triclock.core import TWO_PI

SPLAY = np.array([TWO_PI / 3, 2 * TWO_PI / 3])

# (name, Z, Z'): each Z is 2*pi-periodic with Z(0) = 0.
KICKS = [
    ("sin", math.sin, math.cos),
    ("sin + 0.4(1 - cos)", lambda p: math.sin(p) + 0.4 * (1.0 - math.cos(p)),
     lambda p: math.cos(p) + 0.4 * math.sin(p)),
    ("sin + 0.3 sin 2p", lambda p: math.sin(p) + 0.3 * math.sin(2.0 * p),
     lambda p: math.cos(p) + 0.6 * math.cos(2.0 * p)),
    ("sin 3p", lambda p: math.sin(3.0 * p), lambda p: 3.0 * math.cos(3.0 * p)),
    ("-sin", lambda p: -math.sin(p), lambda p: -math.cos(p)),
]
KICK_IDS = [name for name, _, _ in KICKS]


def kick_cycle(psi, eps, Z):
    """One reference cycle of N clocks under the kick ``p -> p + eps*Z(p)``:
    ``pre_change_cycle``'s rule (tests/test_events.py) with ``Z`` for ``sin``,
    without kick records.  Returns the end phases, the (clock, time) of every
    kick and the period, as ``events._cycle`` does."""
    psi = [TWO_PI] + [TWO_PI if p == 0.0 else p for p in psi[1:]]
    kicked = [False] * len(psi)
    kick_times = []
    now = 0.0
    while True:
        gaps = [TWO_PI - p for p in psi]
        shift = min(gaps)
        if shift > 0.0:
            psi = [p + shift for p in psi]
            psi[gaps.index(shift)] = TWO_PI
        k = psi.index(TWO_PI)
        now += shift
        if kicked[k]:
            if k == 0:
                break
            raise RuntimeError(f"clock {k} reached the threshold twice within one reference "
                               "cycle; the coupling is too strong for identical clocks")
        psi[k] = 0.0
        psi = [p + eps * Z(p) for p in psi]
        if not (0.0 <= min(psi) and max(psi) <= TWO_PI):
            raise RuntimeError(f"a kick carried a clock outside [0, 2*pi] at eps={eps}")
        kicked[k] = True
        kick_times.append((k, now))
    psi[0] = 0.0
    return events._wrapped(psi), kick_times, now


def step(p, eps, Z):
    """The three-clock difference map of one ``kick_cycle``."""
    end, _, _ = kick_cycle([0.0, *p], eps, Z)
    return np.array(end[1:])


def omega_Z(p, Z):
    """The first-order field ``(f, g)`` of the kick ``Z`` at ``p``."""
    x, y = p
    return np.array([Z(x) - Z(-x) - Z(-y) + Z(x - y), Z(y) - Z(-y) - Z(-x) + Z(y - x)])


def wrapped(d):
    """Differences of phases, into [-pi, pi)."""
    return (np.asarray(d) + math.pi) % TWO_PI - math.pi


def test_the_sine_kick_is_the_simulators_kernel_bit_for_bit():
    rng = np.random.default_rng(19)
    starts = [([0.0, 0.0, 3.0], 0.1), ([0.0, 5e-324, 3.0], 0.1), ([0.0, 2.2e-16, 3.0], 0.1)]
    for _ in range(300):
        n = int(rng.integers(2, 7))
        starts.append(([0.0, *rng.uniform(0.0, TWO_PI, n - 1).tolist()],
                       float(rng.uniform(0.0, 0.11))))
    for phases, eps in starts:
        got, want = list(phases), list(phases)
        for cycle in range(3):
            got, got_times, got_period = kick_cycle(got, eps, math.sin)
            want, _, want_times, want_period = events._cycle(want, eps, cycle, False)
            assert [p.hex() for p in got] == [p.hex() for p in want]
            assert [(k, t.hex()) for k, t in got_times] == [(k, t.hex()) for k, t in want_times]
            assert got_period.hex() == want_period.hex()


@pytest.mark.parametrize("name, Z, dZ", KICKS, ids=KICK_IDS)
def test_one_cycle_is_the_first_order_map(name, Z, dZ):
    # Starts 0.1 or more off the edges and the diagonal keep the clocks'
    # cyclic order through the cycle.  The remainder over eps**2 is at most
    # 7.75 on these starts (at sin 3p), 2.3-3.9 for the other kicks.
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, TWO_PI - 0.1, size=(400, 2))
    pts = pts[np.abs(pts[:, 0] - pts[:, 1]) > 0.1][:50]
    for eps in (1e-3, 5e-4):
        for p in pts:
            err = wrapped(step(p, eps, Z) - p - eps * omega_Z(p, Z))
            assert np.max(np.abs(err)) <= 10.0 * eps * eps


def closed_form_rates(dZ):
    """``(3/2)*(A + B) -+ i*(sqrt(3)/2)*|A - B|``, imaginary part ascending."""
    a, b = dZ(TWO_PI / 3), dZ(2 * TWO_PI / 3)
    im = 0.5 * math.sqrt(3.0) * abs(a - b)
    return np.array([complex(1.5 * (a + b), -im), complex(1.5 * (a + b), im)])


@pytest.mark.parametrize("name, Z, dZ", KICKS, ids=KICK_IDS)
def test_splay_multipliers_match_the_closed_form(name, Z, dZ):
    # Central differences of one simulated cycle at the splay; (lam - 1)/eps
    # carries the map's O(eps) offset, at most 2.7e-3 here (at sin 3p).
    eps, h = 1e-4, 1e-6
    columns = [(step(SPLAY + e, eps, Z) - step(SPLAY - e, eps, Z)) / (2.0 * h)
               for e in (np.array([h, 0.0]), np.array([0.0, h]))]
    lam = np.linalg.eigvals(np.column_stack(columns))
    rates = (lam - 1.0) / eps
    rates = rates[np.argsort(rates.imag)]
    assert np.max(np.abs(rates - closed_form_rates(dZ))) < 1e-2


@pytest.mark.parametrize("name, Z, dZ", KICKS, ids=KICK_IDS)
def test_the_sign_of_a_plus_b_decides_lock_or_escape(name, Z, dZ):
    # At eps 0.02 a start 1e-3 off the splay locks (moves less than 1e-12 in
    # a cycle, within 0.1 of the splay) when A + B < 0 and moves more than 0.1
    # away when A + B > 0.
    attracts = dZ(TWO_PI / 3) + dZ(2 * TWO_PI / 3) < 0.0
    p = SPLAY + 1e-3
    for _ in range(2000):
        q = step(p, 0.02, Z)
        moved, off = np.max(np.abs(wrapped(q - p))), np.max(np.abs(wrapped(q - SPLAY)))
        p = q
        if moved < 1e-12 or off > 0.1:
            break
    assert (moved < 1e-12 and off < 0.1) if attracts else off > 0.1
