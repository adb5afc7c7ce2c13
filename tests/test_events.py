import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triclock import events
from triclock.core import TWO_PI, CouplingParams, json_data, normalize_phase, three_clock_step
from triclock.events import (
    ClockEnsemble,
    CycleTrace,
    KickEvent,
    LockResult,
    cyclic_gaps,
    difference_vector,
    phase_differences,
    read_events_jsonl,
    run_cycle,
    run_until_locked,
    write_events_csv,
    write_events_jsonl,
)

PI = math.pi
SPLAY = np.array([0.0, 2 * PI / 3, 4 * PI / 3])


def ensemble(phases, eps=0.05):
    return ClockEnsemble(np.asarray(phases, dtype=float), CouplingParams(epsilon=eps))


class TestClockEnsemble:
    def test_needs_two_clocks(self):
        with pytest.raises(ValueError):
            ensemble([1.0])

    def test_needs_flat_phases(self):
        with pytest.raises(ValueError, match="flat list"):
            ensemble([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError, match="flat list"):
            ClockEnsemble(np.array([[0.0], [1.0], [2.5]]), CouplingParams(epsilon=0.05))

    @pytest.mark.parametrize("phases", [
        np.array([0.0, 0.1, 2.5]),
        [0.0, 0.1, TWO_PI - 1e-15],
        (0.0, 5e-324, 0.1),
        np.array([0.0, 0.1, 2.5], dtype=np.float32),
        (np.float64(0.0), np.float64(0.1), np.float64(2.5)),
    ], ids=["ndarray", "list", "tuple", "float32", "float64-scalars"])
    def test_stores_the_input_as_a_tuple_of_floats(self, phases):
        stored = ClockEnsemble(phases, CouplingParams(epsilon=0.05)).phases
        assert type(stored) is tuple
        assert all(type(p) is float for p in stored)
        assert [p.hex() for p in stored] == [float(p).hex() for p in phases]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ensemble([0.0, TWO_PI])
        with pytest.raises(ValueError):
            ensemble([-0.1, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ensemble([0.0, math.nan])
        with pytest.raises(ValueError, match="finite"):
            ensemble([0.0, math.inf])

    @pytest.mark.parametrize("eps", [1.0, 5.0])
    def test_rejects_eps_of_one_or_more(self, eps):
        with pytest.raises(ValueError, match="eps < 1"):
            ensemble([0.0, 1.0, 2.0], eps=eps)

    def test_n(self):
        assert ensemble([0.0, 1.0, 2.0, 3.0]).n == 4


class TestAdvanceToNextKick:
    """The time shift between kicks, as ``run_cycle`` takes it."""

    def test_largest_phase_kicks(self):
        trace = run_cycle(ensemble([0.0, 1.0, 2.0]))
        first, second = trace.events[:2]
        shift = TWO_PI - first.phases_after[2]
        assert trace.kick_times[1] == (2, shift)
        assert second.phases_before[0] == first.phases_after[0] + shift

    def test_degenerate_tie_breaks_to_lowest_index(self):
        trace = run_cycle(ensemble([0.0, 0.0, 0.0]))
        assert trace.kick_times == ((0, 0.0), (1, 0.0), (2, 0.0))

    def test_splay_geometry(self):
        trace = run_cycle(ensemble(SPLAY, eps=0.0))
        assert [k for k, _ in trace.kick_times] == [0, 2, 1]
        times = [t for _, t in trace.kick_times]
        assert times == pytest.approx([0.0, 2 * PI / 3, 4 * PI / 3], abs=1e-12)
        assert trace.period == pytest.approx(TWO_PI, abs=1e-12)


class TestApplyKick:
    """The kick rule, as the reference's opening kick in ``run_cycle`` applies it."""

    def test_opposition_unaffected(self):
        out = run_cycle(ensemble([0.0, PI])).events[0].phases_after
        assert out[1] == pytest.approx(PI, abs=1e-15)

    def test_quarter_turn_advanced(self):
        out = run_cycle(ensemble([0.0, PI / 2], eps=0.01)).events[0].phases_after
        assert out[1] == pytest.approx(PI / 2 + 0.01, abs=1e-15)

    def test_splay_kick_exact_values(self):
        eps = 0.01
        out = run_cycle(ensemble(SPLAY, eps=eps)).events[0].phases_after
        for j in (1, 2):
            p = float(SPLAY[j])
            assert float(out[j]).hex() == (p + eps * math.sin(p)).hex()

    def test_kicker_unchanged(self):
        for ev in run_cycle(ensemble([0.0, 1.0, 5.0])).events:
            assert ev.phases_before[ev.kicking_clock] == 0.0
            assert ev.phases_after[ev.kicking_clock] == 0.0

    def test_alternation_with_advance_walks_a_cycle(self):
        trace = run_cycle(ensemble([0.0, 1.0, 2.0]))
        assert [k for k, _ in trace.kick_times] == [0, 2, 1]
        assert trace.end_state.phases[0] == 0.0


class TestRunCycle:
    def test_exactly_n_kicks(self):
        for n, phases in ((3, [0.0, 1.3, 4.1]), (4, [0.0, 0.7, 2.9, 5.1]), (5, [0.0, 1, 2, 3, 4])):
            trace = run_cycle(ensemble(phases))
            assert len(trace.events) == n

    def test_kick_order_descends_from_largest_phase(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]))
        assert [ev.kicking_clock for ev in trace.events] == [0, 2, 1]

    def test_kicker_at_threshold_in_before_snapshot(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]))
        for ev in trace.events:
            assert ev.phases_before[ev.kicking_clock] == 0.0

    def test_kick_changes_only_other_clocks(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]))
        for ev in trace.events:
            k = ev.kicking_clock
            before, after = np.asarray(ev.phases_before), np.asarray(ev.phases_after)
            assert after[k] == before[k]
            others = np.delete(np.arange(3), k)
            eps = 0.05
            expect = before[others] + eps * np.sin(before[others])
            assert np.max(np.abs(after[others] - expect)) < 1e-12

    @pytest.mark.parametrize("phases", [[0.0, 1.3, 4.1], [0.0, 0.0, 3.0], [0.0, 0.7, 2.9, 5.1]])
    def test_end_state_is_the_ensemble_of_its_phases(self, phases):
        end = run_cycle(ensemble(phases)).end_state
        assert bits(end) == bits(ClockEnsemble(end.phases, end.params))

    def test_reference_back_at_threshold(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]))
        assert trace.end_state.phases[0] == 0.0

    def test_requires_reference_at_threshold(self):
        with pytest.raises(ValueError):
            run_cycle(ensemble([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("reference",
                             [5e-10, TWO_PI - 5e-10, 5e-324, math.nextafter(TWO_PI, 0.0)])
    def test_reference_off_zero_by_any_amount_is_refused(self, reference):
        with pytest.raises(ValueError, match="reference clock must start at the kick threshold"):
            run_cycle(ensemble([reference, 1.0, 3.0]))

    def test_a_negative_zero_reference_is_on_the_threshold(self):
        zero = run_cycle(ensemble([0.0, 1.0, 3.0]))
        assert bits(run_cycle(ensemble([-0.0, 1.0, 3.0]))) == bits(zero)

    def test_clock_due_in_the_same_instant_is_at_two_pi_before(self):
        first = run_cycle(ensemble([0.0, 0.0, 3.0])).events[0]
        assert np.asarray(first.phases_before).tolist() == [0.0, TWO_PI, 3.0]
        assert np.asarray(first.phases_after).tolist()[:2] == [0.0, 0.0]

    def test_kick_outside_the_circle_raises(self):
        # Unreachable through a valid ensemble (eps < 1 keeps every kick inside
        # [0, 2*pi]); the kernel reports it instead of clamping it away.
        with pytest.raises(RuntimeError, match="outside"):
            events._cycle([0.0, 1.5, 5.0], 5.0, 0, False)

    def test_all_tied_cycle(self):
        trace = run_cycle(ensemble([0.0, 0.0, 0.0]))
        assert [ev.kicking_clock for ev in trace.events] == [0, 1, 2]
        assert np.allclose(trace.end_state.phases, 0.0)

    def test_opposition_row_is_preserved_exactly(self):
        # sin(pi) kills every perturbation, so this state reproduces itself.
        trace = run_cycle(ensemble([0.0, PI, PI]))
        diffs = phase_differences(trace.end_state)
        assert np.max(np.abs(diffs - np.array([PI, PI]))) < 1e-12

    @pytest.mark.parametrize("eps", [0.05, 0.01])
    def test_splay_reproduces_to_second_order(self, eps):
        trace = run_cycle(ensemble(SPLAY, eps=eps))
        diffs = phase_differences(trace.end_state)
        drift = np.max(np.abs(diffs - SPLAY[1:]))
        assert drift < 2.0 * eps**2

    def test_cyclic_order_preserved(self):
        rng = np.random.default_rng(11)
        p = CouplingParams(epsilon=0.02)
        for _ in range(25):
            phases = np.concatenate(([0.0], np.sort(rng.uniform(0.2, TWO_PI - 0.2, size=4))))
            ens = ClockEnsemble(phases, p)
            before = np.argsort(difference_vector(ens))
            after = np.argsort(difference_vector(run_cycle(ens, record=False).end_state))
            assert np.array_equal(before, after)

    def test_kick_times_increase_and_period_positive(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]))
        times = [t for _, t in trace.kick_times]
        assert times[0] == 0.0
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert trace.period == pytest.approx(TWO_PI, abs=0.05)

    @settings(deadline=None, max_examples=300)
    @given(t=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.sampled_from((PI, 5e-324))),
           eps=st.floats(0.0, 1.0, exclude_max=True),
           tied=st.sampled_from(((0, 1), (0, 2), (1, 2))))
    @example(t=2.0, eps=0.05, tied=(0, 1))
    @example(t=2.0, eps=math.nextafter(1.0, 0.0), tied=(1, 2))
    def test_the_edges_and_the_diagonal_are_invariant(self, t, eps, tied):
        """The starts ``[0, 0, t]``, ``[0, t, 0]`` and ``[0, t, t]`` stay on
        the edge ``x = 0``, the edge ``y = 0`` and the diagonal ``x = y`` bit
        for bit, for any eps in [0, 1).  Tied clocks take the same float
        operations, and a clock tied to the kicker at 2*pi keeps its bits
        through the kick: |eps*sin(2*pi)| < 2.5e-16 is below half an ulp of
        2*pi, so it kicks in the same instant."""
        i, j = tied
        phases = [0.0, t, t]
        if i == 0:
            phases[j] = 0.0
        state = ensemble(phases, eps=eps)
        for cycle in range(4):
            state = run_cycle(state, cycle_index=cycle, record=False).end_state
            assert state.phases[i].hex() == state.phases[j].hex()


class TestOracleAgreement:
    def test_one_cycle_matches_map_to_second_order(self):
        errs = []
        for eps in (2e-3, 1e-3):
            p = CouplingParams(epsilon=eps)
            rng = np.random.default_rng(7)
            worst = 0.0
            for _ in range(100):
                x, y = np.sort(rng.uniform(0.0, TWO_PI, size=2))
                if not 0.0 < x < y < TWO_PI:
                    continue
                ens = ClockEnsemble(np.array([0.0, x, y]), p)
                sim = phase_differences(run_cycle(ens, record=False).end_state)
                mapped = three_clock_step((x, y), p)
                worst = max(worst, float(np.max(np.abs(sim - mapped))))
            errs.append(worst)
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    @pytest.mark.parametrize("eps", [0.04, 0.02, 0.01, 0.005])
    def test_splay_multipliers_match_the_closed_form(self, eps):
        """The oracle's multipliers at the splay (2*pi/3, 4*pi/3) are
        1 - (3/2)*eps + 3*eps**2 and 1 - (3/2)*eps + (3/4)*eps**2, up to
        O(eps**3), and so exclude the paper's 1 - (3*sqrt(3)/2)*eps.

        Near the splay with x < y the kick order is fixed: the reference,
        then clock 2, then clock 1.  With k(p) = p + eps*sin(p), the cycle
        from (0, x, y) is, in sympy::

            r, a, b = 0, k(x), k(y)
            s = 2*pi - b; r, a, b = k(r + s), k(a + s), 0
            s = 2*pi - a; r, a, b = k(r + s), 0, k(b + s)
            X, Y = a - r, b - r

        The Jacobian of (X, Y) at the splay, expanded to eps**2, is
        [[1 - 3*eps/2 + 3*eps**2, -9*eps**2/4], [0, 1 - 3*eps/2 + 3*eps**2/4]];
        its diagonal gives the multipliers.  Central differences of one
        cycle with h = 1e-6 put (measured - closed form) / eps**3 between
        -2.2 and 0.7 over the couplings tested here.
        """
        p = CouplingParams(epsilon=eps)

        def cycle(x, y):
            return difference_vector(run_cycle(ClockEnsemble(np.array([0.0, x, y]), p),
                                               record=False).end_state)

        h, x0, y0 = 1e-6, TWO_PI / 3, 2 * TWO_PI / 3
        J = np.column_stack(((cycle(x0 + h, y0) - cycle(x0 - h, y0)) / (2 * h),
                             (cycle(x0, y0 + h) - cycle(x0, y0 - h)) / (2 * h)))
        measured = np.sort(np.linalg.eigvals(J).real)
        closed = np.array([1 - 1.5 * eps + 0.75 * eps**2, 1 - 1.5 * eps + 3 * eps**2])
        assert np.all(np.abs(measured - closed) <= 3 * eps**3), (measured - closed) / eps**3
        paper = 1 - (3 * math.sqrt(3) / 2) * eps
        assert np.all(np.abs(measured - paper) > 3 * eps**3)


class TestPhaseDifferences:
    def test_splay(self):
        assert np.allclose(phase_differences(ensemble(SPLAY)), SPLAY[1:], atol=1e-15)

    def test_identical_phases(self):
        assert np.allclose(phase_differences(ensemble([1.0, 1.0, 1.0])), 0.0)

    def test_wraparound(self):
        diffs = phase_differences(ensemble([0.5, 0.2, 1.0]))
        assert diffs[0] == pytest.approx(TWO_PI - 0.3, abs=1e-12)
        assert diffs[1] == pytest.approx(0.5, abs=1e-12)
        # A difference that rounds up to 2*pi is folded back to 0.
        assert phase_differences(ensemble([1e-16, 5e-17, 1.0]))[0] == 0.0

    def test_requires_three_clocks(self):
        with pytest.raises(ValueError):
            phase_differences(ensemble([0.0, 1.0, 2.0, 3.0]))


class TestRunUntilLocked:
    def test_upper_triangle_start_locks_at_splay_wave(self):
        res = run_until_locked(ensemble([0.0, 1.1, 4.9]), tol=1e-8, max_cycles=2000)
        assert res.locked
        # Kick spacing becomes exactly even; the phase snapshot keeps an
        # O(eps) offset from the splay point.
        assert np.max(np.abs(res.firing_gaps - TWO_PI / 3)) < 1e-6
        assert np.max(np.abs(res.differences - SPLAY[1:])) < 2.0 * 0.05

    @settings(deadline=None, max_examples=60)
    @given(eps=st.floats(0.02, 1 / 9, exclude_max=True),
           x=st.floats(1e-6, TWO_PI - 1e-6), y=st.floats(1e-6, TWO_PI - 1e-6))
    @example(eps=0.02, x=2.0, y=2.0 + 1e-6)
    @example(eps=0.02, x=1e-6, y=TWO_PI - 1e-6)
    def test_starts_off_the_edges_and_the_diagonal_lock_to_their_splay(self, eps, x, y):
        """The paper's global claim on the exact oracle: a start at least
        1e-6 off the edges and the diagonal locks, its kicks are splay
        within 1e-6, and it keeps the orientation of its own triangle
        (kicks never change the clocks' cyclic order)."""
        assume(abs(x - y) >= 1e-6)
        res = run_until_locked(ensemble([0.0, x, y], eps=eps), tol=1e-10, max_cycles=5000)
        assert res.locked
        assert np.max(np.abs(res.firing_gaps - TWO_PI / 3)) < 1e-6
        assert (res.differences[0] < res.differences[1]) == (x < y)

    def test_diagonal_start_stays_on_diagonal(self):
        res = run_until_locked(ensemble([0.0, 2.0, 2.0]), tol=1e-8, max_cycles=5000)
        assert res.locked
        assert res.differences[0] == res.differences[1]
        assert abs(res.differences[0] - PI) < 1e-3

    def test_budget_exhaustion_reports_not_locked(self):
        res = run_until_locked(ensemble([0.0, 1.1, 4.9]), tol=1e-20, max_cycles=5)
        assert not res.locked
        assert res.cycles == 5

    def test_four_clock_exploration_runs(self):
        res = run_until_locked(ensemble([0.0, 1.0, 3.0, 5.0], eps=0.02), tol=1e-7, max_cycles=3000)
        assert res.gaps.shape == (4,)
        assert res.firing_gaps.shape == (4,)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            run_until_locked(ensemble([0.0, 1.0, 2.0]), tol=0.0, max_cycles=10)
        for tol in (float("nan"), float("inf"), -1e-6):
            with pytest.raises(ValueError, match="tol must be finite"):
                run_until_locked(ensemble([0.0, 1.0, 2.0]), tol=tol, max_cycles=10)
        with pytest.raises(ValueError):
            run_until_locked(ensemble([0.0, 1.0, 2.0]), tol=1e-6, max_cycles=0)
        with pytest.raises(ValueError, match="max_cycles must be an integer"):
            run_until_locked(ensemble([0.0, 1.0, 2.0]), tol=1e-6, max_cycles=2.5)

    @pytest.mark.parametrize("phases", [[0.0, 1.3, 4.1], [0.0, 0.7, 2.9, 5.1]])
    def test_recorded_events_are_the_cycles_events(self, phases):
        start = ensemble(phases, eps=0.02)
        res = run_until_locked(start, tol=1e-20, max_cycles=6, record=True)
        expected, state = [], start
        for cycle in range(res.cycles):
            trace = run_cycle(state, cycle_index=cycle, record=True)
            expected.extend(trace.events)
            state = trace.end_state
        assert [json_data(ev) for ev in res.events] == [json_data(ev) for ev in expected]
        assert np.array_equal(res.ensemble.phases, state.phases)
        assert run_until_locked(start, tol=1e-20, max_cycles=6).events == ()


PINNED = json.loads((Path(__file__).parent / "data" / "lock_outcomes.json").read_text())


def test_lock_outcomes_match_the_recorded_loop():
    """Bit-for-bit outcomes of the event loop that preceded the single kernel.

    ``data/lock_outcomes.json`` was recorded with that loop: the first 40
    starts of acceptance criterion 8 (seed 77, eps 0.05), the first 3 of
    criterion 10 (seed 4, N=4, eps 0.02), a diagonal start and an N=5 start,
    all with tol 1e-8 and 2000 cycles.  Floats are stored as ``repr``.
    """
    mismatches = []
    for case in PINNED:
        start = ClockEnsemble(
            np.array([float(v) for v in case["start"]]),
            CouplingParams(epsilon=float(case["eps"])),
        )
        res = run_until_locked(start, tol=1e-8, max_cycles=2000)
        got = {
            "final_phases": [repr(float(v)) for v in res.ensemble.phases],
            "cycles": res.cycles,
            "locked": res.locked,
            "period": repr(float(res.period)),
            "firing_gaps": [repr(float(v)) for v in res.firing_gaps],
        }
        if any(got[key] != case[key] for key in got):
            mismatches.append((case["start"], got))
    assert not mismatches, mismatches[:3]


@st.composite
def tie_states(draw):
    """N = 2..6 clocks, reference at the threshold, with exact and 1-ulp ties.

    Each non-reference clock is either free or tied to an earlier clock:
    exactly, or one ulp above or below it on the circle.
    """
    n = draw(st.integers(2, 6))
    phases = [0.0] + draw(
        st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=n - 1, max_size=n - 1)
    )
    for i in range(1, n):
        partner = draw(st.integers(0, i - 1))
        tie = draw(st.sampled_from(("free", "exact", "ulp_up", "ulp_down")))
        if tie == "exact":
            phases[i] = phases[partner]
        elif tie == "ulp_up":
            phases[i] = math.nextafter(phases[partner], math.inf)
        elif tie == "ulp_down":
            phases[i] = math.nextafter(phases[partner], -math.inf)
        if phases[i] < 0.0:
            phases[i] = math.nextafter(TWO_PI, 0.0)
        elif phases[i] >= TWO_PI:
            phases[i] = 0.0
    return phases


class TestNearTies:
    @settings(deadline=None, max_examples=300)
    @given(phases=tie_states(), eps=st.floats(0.0, 0.11))
    @example(phases=[0.0, 5e-324, 3.0], eps=0.1)
    @example(phases=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], eps=0.11)
    def test_cycles_run_and_stay_on_the_circle(self, phases, eps):
        """Every clock kicks once per cycle, except that a clock reaching the
        threshold in the same instant as the returning reference kicks in
        the next cycle's opening instant instead (ascending tie order).
        Clocks with equal phases kick lowest index first."""
        n = len(phases)
        state = ensemble(phases, eps=eps)
        for cycle in range(3):
            start = state.phases
            trace = run_cycle(state, cycle_index=cycle)
            end = trace.end_state.phases
            assert all(0.0 <= p < TWO_PI for p in end)
            assert end[0] == 0.0
            kickers = [ev.kicking_clock for ev in trace.events]
            assert len(kickers) == len(set(kickers))
            assert all(end[i] == 0.0 and start[i] != 0.0 for i in set(range(n)) - set(kickers))
            for i, j in zip(kickers, kickers[1:]):
                assert start[i] != start[j] or i < j
            state = trace.end_state


def pre_change_lock_loop(ensemble, tol, max_cycles, record):
    """``run_until_locked`` as it was before the loop read the differences
    straight off each cycle's end state: it chains ``run_cycle`` and takes
    ``difference_vector`` of every cycle's end state."""
    state = ensemble
    prev = difference_vector(state).tolist()
    locked = False
    recorded = []
    for cycles in range(1, max_cycles + 1):
        trace = run_cycle(state, cycle_index=cycles - 1, record=record)
        recorded.extend(trace.events)
        state = trace.end_state
        cur = difference_vector(state).tolist()
        if max([abs(c - p) for c, p in zip(cur, prev)]) < tol:
            locked = True
            break
        prev = cur
    return LockResult(
        ensemble=state,
        cycles=cycles,
        locked=locked,
        differences=difference_vector(state),
        gaps=cyclic_gaps(state),
        firing_gaps=trace.firing_gaps(),
        period=trace.period,
        events=tuple(recorded),
    )


def bits(value):
    """A comparable form of ``value`` that tells apart any two different bit patterns."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (LockResult, KickEvent, ClockEnsemble, CycleTrace)):
        return (type(value).__name__, tuple(bits(v) for v in vars(value).values()))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return (type(value).__name__, value)


class TestLockLoop:
    @settings(deadline=None, max_examples=150)
    @given(
        phases=tie_states(),
        eps=st.floats(0.0, 0.11),
        tol=st.sampled_from((1e-12, 1e-8, 1e-4, 0.05, 1.0)),
        max_cycles=st.integers(1, 30),
    )
    @example(phases=[0.0, 2.0, 2.0], eps=0.05, tol=1e-8, max_cycles=30)
    @example(phases=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0], eps=0.11, tol=1e-8, max_cycles=5)
    def test_equals_the_pre_change_loop(self, phases, eps, tol, max_cycles):
        """Bit for bit, every field and every recorded event, with and
        without recording, from starts with the reference at exactly 0."""
        start = ensemble(phases, eps=eps)
        for record in (False, True):
            got = run_until_locked(start, tol=tol, max_cycles=max_cycles, record=record)
            want = pre_change_lock_loop(start, tol, max_cycles, record)
            assert bits(got) == bits(want)
            assert bool(got.events) == record


def pre_change_advance(psi):
    """``events._advance`` as it was before the kernel took the leader by ``max``."""
    gaps = [TWO_PI - p for p in psi]
    shift = min(gaps)
    if shift > 0.0:
        k = gaps.index(shift)
        psi[:] = [p + shift for p in psi]
        psi[k] = TWO_PI
    return shift, psi.index(TWO_PI)


def pre_change_kick(psi, eps):
    """``events._kick`` as it was before the kernel inlined it."""
    psi[:] = [p + eps * math.sin(p) for p in psi]
    if not (0.0 <= min(psi) and max(psi) <= TWO_PI):
        raise RuntimeError(f"a kick carried a clock outside [0, 2*pi] at eps={eps}")


def pre_change_cycle(psi, eps, cycle_index, record):
    """``events._cycle`` as it was when it called ``_advance`` and ``_kick``."""
    psi = [TWO_PI] + [TWO_PI if p == 0.0 else p for p in psi[1:]]
    kicked = [False] * len(psi)
    recorded = []
    kick_times = []
    now = 0.0
    while True:
        shift, k = pre_change_advance(psi)
        now += shift
        if kicked[k]:
            if k == 0:
                break
            raise RuntimeError(f"clock {k} reached the threshold twice within one reference "
                               "cycle; the coupling is too strong for identical clocks")
        psi[k] = 0.0
        before = np.array(psi) if record else None
        pre_change_kick(psi, eps)
        kicked[k] = True
        kick_times.append((k, now))
        if record:
            recorded.append(KickEvent(cycle_index, k, before, np.array(events._wrapped(psi))))
    psi[0] = 0.0
    return events._wrapped(psi), recorded, kick_times, now


# Phases where the leader's gap 2*pi - p is inexact or borderline: pi and one
# ulp either side of it, exact zeros and the tiniest phases.
SPECIAL_PHASES = (0.0, 5e-324, 2.2e-16, math.nextafter(PI, 0.0), PI, math.nextafter(PI, 4.0))


@st.composite
def kernel_states(draw):
    """N = 2..6 clocks, reference at the threshold, each other clock free, one
    of ``SPECIAL_PHASES``, or in a cluster below pi: within two ulps of a
    common centre, so that neighbours in the cluster are one ulp apart."""
    n = draw(st.integers(2, 6))
    centre = draw(st.one_of(st.floats(0.0, PI, exclude_max=True), st.sampled_from(SPECIAL_PHASES)))
    phases = [0.0]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(("free", "special", "cluster")))
        if kind == "free":
            p = draw(st.floats(0.0, TWO_PI, exclude_max=True))
        elif kind == "special":
            p = draw(st.sampled_from(SPECIAL_PHASES))
        else:
            p = centre
            steps = draw(st.integers(-2, 2))
            for _ in range(abs(steps)):
                p = math.nextafter(p, math.copysign(math.inf, steps))
            p = max(p, 0.0)
        phases.append(p)
    return phases


def kick_bits(ev):
    """A kick record with its phases by ``float.hex``, so that the reference
    kernel's arrays and the kernel's tuples compare by their value bits."""
    return (ev.cycle_index, ev.kicking_clock,
            [float.hex(p) for p in ev.phases_before], [float.hex(p) for p in ev.phases_after])


def kernel_outcome(kernel, phases, eps, record, cycles=3):
    """Every output of ``cycles`` chained kernel cycles in a comparable form,
    floats by ``float.hex``, or the exception that ended them."""
    out = []
    try:
        for cycle in range(cycles):
            phases, recorded, kick_times, period = kernel(list(phases), eps, cycle, record)
            out.append((
                [p.hex() for p in phases],
                [kick_bits(ev) for ev in recorded],
                [(k, t.hex()) for k, t in kick_times],
                period.hex(),
            ))
    except Exception as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


# Couplings from the simulator's range and beyond it, where kicks carry clocks
# outside the circle or make a clock reach the threshold twice.
kernel_eps = st.one_of(st.floats(0.0, 0.11), st.floats(1.0, 20.0))


class TestCycleKernelOracle:
    """``events._cycle`` equals the kernel it replaced, bit for bit."""

    def check(self, phases, eps):
        for record in (False, True):
            got = kernel_outcome(events._cycle, phases, eps, record)
            want = kernel_outcome(pre_change_cycle, phases, eps, record)
            assert got == want

    @settings(deadline=None, max_examples=300)
    @given(phases=tie_states(), eps=kernel_eps)
    @example(phases=[0.0, 5e-324, 3.0], eps=0.1)
    @example(phases=[0.0, 2.2e-16, 3.0], eps=0.1)
    @example(phases=[0.0, 1.5, 5.0], eps=5.0)
    def test_on_tie_states(self, phases, eps):
        self.check(phases, eps)

    @settings(deadline=None, max_examples=300)
    @given(phases=kernel_states(), eps=kernel_eps)
    @example(phases=[0.0, PI, math.nextafter(PI, 0.0), math.nextafter(PI, 4.0)], eps=0.05)
    @example(phases=[0.0, 0.0, 5e-324, 2.2e-16], eps=0.11)
    def test_on_clustered_and_special_states(self, phases, eps):
        self.check(phases, eps)

    @settings(deadline=None, max_examples=100)
    @given(phases=tie_states(), eps=st.floats(0.0, 0.11))
    @example(phases=[0.0, 0.0, 3.0], eps=0.1)
    @example(phases=[0.0, 5e-324, 3.0], eps=0.1)
    @example(phases=[0.0, 2.2e-16, 3.0], eps=0.1)
    def test_trace_writers_format_the_reference_events(self, phases, eps):
        """The jsonl and csv bytes written from the kernel's records equal
        those formatted from the reference kernel's numpy records by
        ``tolist()``, over three chained cycles."""
        got, want = [], []
        for kernel, out in ((events._cycle, got), (pre_change_cycle, want)):
            psi = list(phases)
            for cycle in range(3):
                psi, recorded, _, _ = kernel(psi, eps, cycle, True)
                out.extend(recorded)
        jsonl, table = io.StringIO(), io.StringIO()
        write_events_jsonl(got, jsonl)
        write_events_csv(got, table, len(phases))
        assert jsonl.getvalue() == "".join(
            json.dumps({"cycle_index": ev.cycle_index, "kicking_clock": ev.kicking_clock,
                        "phases_before": ev.phases_before.tolist(),
                        "phases_after": ev.phases_after.tolist()}) + "\n"
            for ev in want
        )
        header = ["cycle_index", "kicker"] + [f"psi_{i + 1}" for i in range(len(phases))]
        assert table.getvalue() == "".join(
            ",".join(row) + "\n"
            for row in [header] + [[str(ev.cycle_index), str(ev.kicking_clock)]
                                   + [repr(v) for v in ev.phases_after.tolist()] for ev in want]
        )

    @settings(deadline=None, max_examples=300)
    @given(phases=st.one_of(tie_states(), kernel_states()), eps=kernel_eps)
    @example(phases=[0.0, 0.0, 3.0], eps=0.1)
    @example(phases=[0.0, 1.5, 5.0], eps=5.0)
    def test_leaves_its_input_alone(self, phases, eps):
        """The kernel steps a copy of its input in place; the input list
        keeps every bit, with and without recording, also when the cycle
        raises."""
        for record in (False, True):
            psi = list(phases)
            with contextlib.suppress(RuntimeError):
                events._cycle(psi, eps, 0, record)
            assert [p.hex() for p in psi] == [p.hex() for p in phases]

    @given(p=st.one_of(st.floats(0.0, TWO_PI), st.sampled_from(SPECIAL_PHASES)))
    def test_the_shift_lands_the_leader_on_the_threshold(self, p):
        """Why the kernel needs no forced landing: p + (2*pi - p) rounds to
        2*pi for every float p in [0, 2*pi].  Where 2*pi - p is inexact, its
        rounding error is at most half an ulp of 2*pi, and 2*pi is even, so
        the sum rounds back to it."""
        assert p + (TWO_PI - p) == TWO_PI


# Floats of every size, whole turns and their neighbours, tiny values of
# either sign and signed zeros.
_turns = st.integers(-10**6, 10**6).map(lambda k: k * TWO_PI)
wrap_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-15, 1e-15),
    _turns,
    _turns.map(lambda p: math.nextafter(p, math.inf)),
    _turns.map(lambda p: math.nextafter(p, -math.inf)),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, TWO_PI, -TWO_PI, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(deadline=None, max_examples=500)
@given(psi=st.lists(wrap_inputs, min_size=1, max_size=12))
@example(psi=[-0.0, 5e-324, -5e-324, TWO_PI, -TWO_PI, -1e-17, 2.0**60 * TWO_PI])
def test_the_simulators_wrap_is_normalize_phase(psi):
    """The cycle kernel wraps Python floats with ``%``; that must be
    :func:`~triclock.core.normalize_phase`, bit for bit."""
    assert np.array(events._wrapped(psi)).tobytes() == normalize_phase(np.array(psi)).tobytes()


class TestGaps:
    def test_cyclic_gaps_sum_to_full_turn(self):
        ens = ensemble([0.0, 1.0, 4.0, 2.5, 5.5])
        gaps = cyclic_gaps(ens)
        assert np.sum(gaps) == pytest.approx(TWO_PI, abs=1e-12)
        assert np.all(np.diff(gaps) >= 0)

    def test_splay_gaps_equal(self):
        assert np.allclose(cyclic_gaps(ensemble(SPLAY)), TWO_PI / 3, atol=1e-12)


class TestEventSerialization:
    def test_jsonl_round_trip(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]), cycle_index=7)
        buf = io.StringIO()
        write_events_jsonl(trace.events, buf)
        buf.seek(0)
        back = read_events_jsonl(buf)
        assert len(back) == len(trace.events)
        for a, b in zip(trace.events, back):
            assert a.cycle_index == b.cycle_index
            assert a.kicking_clock == b.kicking_clock
            assert np.array_equal(a.phases_before, b.phases_before)
            assert np.array_equal(a.phases_after, b.phases_after)

    def test_csv_layout(self):
        trace = run_cycle(ensemble([0.0, 1.3, 4.1]))
        buf = io.StringIO()
        write_events_csv(trace.events, buf, 3)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "cycle_index,kicker,psi_1,psi_2,psi_3"
        assert len(lines) == 4

    def test_kick_event_dict_round_trip(self):
        ev = KickEvent(2, 1, (0.1, 0.0, TWO_PI), (0.1, 0.0, 2.21))
        back = KickEvent.from_dict(json_data(ev))
        assert back.cycle_index == 2 and back.kicking_clock == 1
        assert np.array_equal(back.phases_before, ev.phases_before)
        assert np.array_equal(back.phases_after, ev.phases_after)
        assert KickEvent.from_dict(json.loads(json.dumps(ev, default=json_data))) == ev

    # Each case changes fields of a valid 3-clock event (None drops one); the
    # reader must refuse it with ValueError, from a dict and a jsonl line alike.
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"phases_after": None}, "has the fields"),
            ({"extra": 1}, "has the fields"),
            ({"cycle_index": 2.7}, "cycle_index must be an integer >= 0, got 2.7"),
            ({"cycle_index": 2.0}, "cycle_index must be an integer >= 0, got 2.0"),
            ({"cycle_index": -1}, "cycle_index must be an integer >= 0, got -1"),
            ({"kicking_clock": True}, r"kicking_clock must be an integer in \[0, 3\), got True"),
            ({"kicking_clock": 3}, r"in \[0, 3\), got 3"),
            ({"kicking_clock": 7, "phases_before": [0.0, 1.0], "phases_after": [0.0, 1.0]},
             r"in \[0, 2\), got 7"),
            ({"phases_after": [0.1, 0.0]}, "the same N >= 2 clocks, got 3 and 2"),
            ({"phases_before": [0.0], "phases_after": [0.0]}, "got 1 and 1"),
            ({"phases_before": [0.1, 0.0, math.nan]},
             r"phases_before must list phases in \[0, 2\*pi\]"),
            ({"phases_after": [math.nan, 0.0, 2.2]},
             r"phases_after must list phases in \[0, 2\*pi\)"),
            ({"phases_after": [0.1, 0.0, TWO_PI]}, "phases_after must list phases"),
            ({"phases_before": [0.1, 0.0, math.nextafter(TWO_PI, 7.0)]}, "phases_before must"),
            ({"phases_before": [-1e-300, 0.0, 2.2]}, "phases_before must"),
            ({"phases_after": [0.1, 0.0, math.inf]}, "phases_after must"),
            ({"phases_after": [0.1, False, 2.2]}, "phases_after must"),
            ({"phases_after": "0.1"}, "phases_after must"),
        ],
        ids=["missing-key", "extra-key", "fractional-cycle", "float-cycle", "negative-cycle",
             "bool-kicker", "kicker-3-of-3", "kicker-7-of-2", "unequal-lengths", "one-clock",
             "nan-before", "nan-after", "after-at-two-pi", "before-above-two-pi",
             "negative-before", "inf-after", "bool-phase", "string-phases"],
    )
    def test_kick_event_reader_is_strict(self, change, message):
        d = {"cycle_index": 2, "kicking_clock": 1,
             "phases_before": [0.1, 0.0, TWO_PI], "phases_after": [0.1, 0.0, 2.2]}
        d = {k: v for k, v in (d | change).items() if v is not None}
        with pytest.raises(ValueError, match=message):
            KickEvent.from_dict(d)
        with pytest.raises(ValueError, match=message):
            read_events_jsonl(io.StringIO(json.dumps(d) + "\n"))

    def test_jsonl_reader_refuses_a_line_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="has the fields"):
            read_events_jsonl(io.StringIO("[2, 1, [0.0, 1.0], [0.0, 1.0]]\n"))
