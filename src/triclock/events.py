"""Exact event-driven simulation of N impact-coupled clocks.

Each clock is a unit-rate phase ``psi_i`` on [0, 2*pi).  When a clock
reaches the threshold 2*pi (== 0) it "kicks": every other clock j is
shifted by the full ``eps*sin(psi_j - psi_kicker)``, with no first-order
truncation.  Between kicks all phases advance together, so
the simulation jumps straight from kick to kick.

One cycle of the reference clock (index 0) is the unit of observation:
the reference kicks, then each other clock kicks once, and the cycle
closes when the reference returns to the threshold.  For three clocks
the phase differences taken at those instants follow the first-order
map in :mod:`triclock.core` up to O(eps**2), which is what makes this
simulator an independent oracle for it.

The kick rule, the time shift and the tie order exist once, in the
cycle kernel ``_cycle``.  It runs on Python floats for any N, with no
numpy call: it copies the start phases once into a working list, and per
kick one ``max`` finds the leader, then one index loop shifts every
phase and another kicks them, both in place.  An ensemble and a recorded
kick event hold the same floats as tuples, so :func:`run_cycle` hands
the kernel the ensemble's phases as they are and checks the end phases
once, in the ensemble's constructor.  :func:`run_until_locked` calls
:func:`run_cycle` once per cycle and reads the start's and each cycle's
difference vector straight off its phases, whose reference is at exactly
0.  A kick trace is recorded by the same run that reports the lock.  The
simulator accepts 0 <= eps < 1, where a kick cannot carry a clock across
the threshold; the kernel raises if one ever does.

Convention, the one threshold rule: a clock at exactly 0 stands on the
threshold when a cycle opens and kicks in the opening instant, the
reference included (:func:`run_cycle` takes it at exactly 0 and nothing
else).  Mid-cycle, a clock at 0 has just kicked.  Ties in one instant go
in ascending clock index, which matters only at O(eps**2).  So a clock
that reaches the threshold with the returning reference ends the cycle
at 0 and kicks at the next opening (an N-1-kick cycle), and a clock due
in the same instant as a kicker stands at 2*pi in ``phases_before``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import IO, Iterable, Sequence

import numpy as np

from .core import TWO_PI, CouplingParams, json_data, require_integer

__all__ = [
    "ClockEnsemble",
    "KickEvent",
    "CycleTrace",
    "LockResult",
    "run_cycle",
    "phase_differences",
    "difference_vector",
    "cyclic_gaps",
    "run_until_locked",
    "require_lock_tol",
    "write_events_jsonl",
    "read_events_jsonl",
    "write_events_csv",
]


_OUTSIDE = "a kick carried a clock outside [0, 2*pi] at eps={}"


@dataclass(frozen=True)
class ClockEnsemble:
    """N absolute clock phases plus the coupling they interact with.

    The constructor takes any flat sequence or array of at least 2 phases
    in [0, 2*pi) and stores them as a tuple of Python floats.
    """

    phases: tuple[float, ...]
    params: CouplingParams

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1 or phases.size < 2:
            raise ValueError("an ensemble needs a flat list of at least 2 phases")
        psi = tuple(phases.tolist())
        if not all([0.0 <= p < TWO_PI for p in psi]):
            raise ValueError(f"phases must be finite and normalized to [0, 2*pi), got {psi}")
        self.params.require_simulator_range()
        object.__setattr__(self, "phases", psi)

    @property
    def n(self) -> int:
        return len(self.phases)


def _read_phases(phases, name: str, closed: bool) -> tuple[float, ...]:
    """A kick event's phase list as floats; ValueError unless it lists
    numbers in [0, 2*pi] (``closed``) or in [0, 2*pi)."""
    if isinstance(phases, (list, tuple)) and all(
        type(p) in (int, float) and (0.0 <= p <= TWO_PI if closed else 0.0 <= p < TWO_PI)
        for p in phases
    ):
        return tuple(map(float, phases))
    raise ValueError(f"{name} must list phases in [0, 2*pi{']' if closed else ')'}, "
                     f"got {phases!r}")


@dataclass(frozen=True)
class KickEvent:
    """One kick: who fired and the phases just before and just after it.

    The phases are tuples of Python floats, one per clock.
    ``phases_after`` lies in [0, 2*pi).  ``phases_before`` has the kicker
    at 0 and lies in [0, 2*pi]: a clock due to kick in the same instant
    stands at exactly 2*pi there (the start ``[0, 0, 3]`` gives
    ``(0.0, 6.283185307179586, 3.0)``) and at 0 in ``phases_after``.
    """

    cycle_index: int
    kicking_clock: int
    phases_before: tuple[float, ...]
    phases_after: tuple[float, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "KickEvent":
        """The event :func:`write_events_jsonl` wrote, read strictly.

        ValueError unless ``d`` has exactly the four fields, an integer
        ``cycle_index`` >= 0, two phase lists of one length N >= 2 within
        the ranges above (no NaN), and an integer ``kicking_clock`` in
        [0, N); a bool or a float is not an integer here.
        """
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or set(d) != set(names):
            raise ValueError(f"a kick event has the fields {', '.join(names)}, got {d!r}")
        before = _read_phases(d["phases_before"], "phases_before", closed=True)
        after = _read_phases(d["phases_after"], "phases_after", closed=False)
        n = len(before)
        if n < 2 or len(after) != n:
            raise ValueError(f"phases_before and phases_after must list the same N >= 2 "
                             f"clocks, got {n} and {len(after)}")
        cycle, kicker = d["cycle_index"], d["kicking_clock"]
        if type(cycle) is not int or cycle < 0:
            raise ValueError(f"cycle_index must be an integer >= 0, got {cycle!r}")
        if type(kicker) is not int or not 0 <= kicker < n:
            raise ValueError(f"kicking_clock must be an integer in [0, {n}), got {kicker!r}")
        return cls(cycle, kicker, before, after)


@dataclass(frozen=True)
class CycleTrace:
    """All kick events of one reference-clock cycle.

    ``kick_times`` lists (clock, time since cycle start) for every kick and
    ``period`` is the cycle's total duration; with exact kicks the period is
    2*pi only up to O(eps**2), since the reference phase itself gets bumped
    by the others' kicks.
    """

    events: tuple[KickEvent, ...]
    end_state: ClockEnsemble
    kick_times: tuple[tuple[int, float], ...]
    period: float

    def firing_gaps(self) -> np.ndarray:
        """Sorted gaps between consecutive kicks, normalized so they sum to 2*pi.

        In a locked splay state the kicks are equally spaced in time, so
        these gaps all equal 2*pi/N exactly, unlike the phase-difference
        snapshot which carries an O(eps) offset from the received kicks.
        """
        return _gaps([t for _, t in self.kick_times], self.period) * (TWO_PI / self.period)


@dataclass(frozen=True)
class LockResult:
    """Outcome of iterating cycles until the difference vector settles.

    ``differences`` and ``gaps`` describe the phase snapshot at the final
    reference kick; ``firing_gaps`` and ``period`` describe the timing of
    the kicks within the final cycle, which is the observable that becomes
    exactly splay in a locked state.  ``events`` holds every cycle's kicks
    when the run was asked to record them, and is empty otherwise.
    """

    ensemble: ClockEnsemble
    cycles: int
    locked: bool
    differences: np.ndarray
    gaps: np.ndarray
    firing_gaps: np.ndarray
    period: float
    events: tuple[KickEvent, ...] = ()


def _wrapped(psi: list[float]) -> list[float]:
    # Python's float % is numpy's (fmod, then a shift into the divisor's sign),
    # so this equals normalize_phase bit for bit.
    return [0.0 if r == TWO_PI else r for r in [p % TWO_PI for p in psi]]


def _gaps(points: Sequence[float], length: float) -> np.ndarray:
    """Sorted gaps between consecutive points around a circle of ``length``."""
    ordered = np.sort(points)
    return np.sort(np.diff(ordered, append=ordered[0] + length))


def _cycle(
    psi: Sequence[float], eps: float, cycle_index: int, record: bool
) -> tuple[list[float], list[KickEvent], list[tuple[int, float]], float]:
    """The cycle kernel: one reference cycle on a state of Python floats.

    ``psi`` holds the start phases with the reference (index 0) at exactly
    0; it is left unchanged.  The kernel copies it once and steps
    that copy in place: per kick, one loop adds the time shift to every
    phase and one applies the kick rule to every phase.  Returns the end
    phases (wrapped to [0, 2*pi), the reference at exactly 0), the kick
    events (only when ``record``), the (clock, time) of every kick and the
    cycle's period.
    """
    # The opening rule: a clock at exactly 0 stands on the threshold and kicks
    # now, the reference first by the tie order; one that reaches it with the
    # returning reference ends at 0 and kicks at the next opening.  Mid-cycle,
    # 2*pi is "due to kick now" (so in phases_before) and 0 is "just kicked".
    psi = [TWO_PI if p == 0.0 else p for p in psi]
    clocks = range(len(psi))
    kicked = [False] * len(psi)
    events: list[KickEvent] = []
    kick_times: list[tuple[int, float]] = []
    sin = math.sin
    now = 0.0
    while True:
        # A kick that carried a clock past 2*pi shows here, in the leader; one
        # that carried a clock below 0 is caught right after the kick.
        lead = max(psi)
        if lead > TWO_PI:
            raise RuntimeError(_OUTSIDE.format(eps))
        # The shift puts the leader on the threshold exactly: p + (2*pi - p)
        # rounds to 2*pi for every float p in [0, 2*pi].  A phase that rounds
        # onto the threshold with it ties with it; ties go to the lowest index.
        shift = TWO_PI - lead
        for j in clocks:
            psi[j] += shift
        now += shift
        k = psi.index(TWO_PI)
        if kicked[k]:
            if k == 0:
                break
            raise RuntimeError(f"clock {k} reached the threshold twice within one reference "
                               "cycle; the coupling is too strong for identical clocks")
        # The kick rule, with the kicker just fired and at 0: every clock j
        # gains eps*sin(psi_j), psi_j being its phase relative to the kicker.
        psi[k] = 0.0
        if record:
            before = tuple(psi)
        for j in clocks:
            p = psi[j]
            psi[j] = p + eps * sin(p)
        if min(psi) < 0.0:
            raise RuntimeError(_OUTSIDE.format(eps))
        kicked[k] = True
        kick_times.append((k, now))
        if record:
            events.append(KickEvent(cycle_index, k, before, tuple(_wrapped(psi))))
    psi[0] = 0.0
    return _wrapped(psi), events, kick_times, now


def run_cycle(
    ensemble: ClockEnsemble, cycle_index: int = 0, record: bool = True
) -> CycleTrace:
    """Simulate one full cycle of the reference clock (index 0).

    One rule opens the cycle: a clock at exactly 0 stands on the threshold
    and kicks in the opening instant, in ascending index.  The reference
    must be at exactly 0 (``-0.0`` too); any other reference phase, however
    close to 0 or 2*pi, raises ValueError.  Alternates kicks and time shifts
    until the reference returns to the threshold, which closes the cycle.
    So a clock that reaches the threshold with the returning reference ends
    at 0 and kicks at the next opening (this cycle has N-1 kicks), and a
    clock due in the same instant as a kicker stands at 2*pi in that kick's
    ``phases_before``.

    Raises RuntimeError if some clock would kick twice first, which cannot
    happen for identical clocks at small eps and signals bad parameters.
    """
    psi = ensemble.phases
    if psi[0] != 0.0:
        raise ValueError(f"the reference clock must start at the kick threshold, got {psi[0]}")
    params = ensemble.params
    end, events, kick_times, period = _cycle(psi, params.epsilon, cycle_index, record)
    return CycleTrace(tuple(events), ClockEnsemble(end, params), tuple(kick_times), period)


def phase_differences(ensemble: ClockEnsemble) -> np.ndarray:
    """Map state (x, y) = (psi_2 - psi_1, psi_3 - psi_1) mod 2*pi; three clocks only."""
    if ensemble.n != 3:
        raise ValueError(f"phase differences need exactly 3 clocks, got {ensemble.n}")
    return difference_vector(ensemble)


def difference_vector(ensemble: ClockEnsemble) -> np.ndarray:
    """Differences of every clock to the reference, (psi_i - psi_0) mod 2*pi."""
    psi = ensemble.phases
    return np.array(_wrapped([p - psi[0] for p in psi[1:]]))


def cyclic_gaps(ensemble: ClockEnsemble) -> np.ndarray:
    """Sorted gaps between consecutive clocks around the circle (sums to 2*pi)."""
    return _gaps(ensemble.phases, TWO_PI)


def require_lock_tol(tol: float) -> None:
    """Refuse a lock tolerance that is not finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def run_until_locked(
    ensemble: ClockEnsemble, tol: float, max_cycles: int, record: bool = False
) -> LockResult:
    """Iterate cycles until the difference vector moves less than ``tol``.

    Movement is the max-norm change of the reference-relative difference
    vector between consecutive cycles.  Returns locked=False when
    ``max_cycles`` is exhausted first; that is a result, not an error.
    With ``record`` the result also carries every cycle's kick events.
    """
    require_lock_tol(tol)
    require_integer(max_cycles, "max_cycles", 1)
    state = ensemble
    prev = state.phases[1:]
    locked = False
    recorded: list[KickEvent] = []
    for cycles in range(1, max_cycles + 1):
        trace = run_cycle(state, cycle_index=cycles - 1, record=record)
        recorded.extend(trace.events)
        state = trace.end_state
        # Every cycle starts and ends with the reference at exactly 0, where the
        # difference vector is the other clocks' phases as they stand.
        cur = state.phases[1:]
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


# One encoder for every kick: json.dumps with default= builds one per call.
_encode_event = json.JSONEncoder(default=json_data).encode


def write_events_jsonl(events: Iterable[KickEvent], stream: IO[str]) -> None:
    """One JSON object per kick event, fields as named on the type."""
    for ev in events:
        stream.write(_encode_event(ev) + "\n")


def read_events_jsonl(stream: IO[str]) -> list[KickEvent]:
    """The events of every non-blank line, read by :meth:`KickEvent.from_dict`."""
    return [KickEvent.from_dict(json.loads(line)) for line in stream if line.strip()]


def write_events_csv(events: Iterable[KickEvent], stream: IO[str], n: int) -> None:
    """Rows of (cycle_index, kicker, post-kick phases psi_1..psi_N)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["cycle_index", "kicker"] + [f"psi_{i + 1}" for i in range(n)])
    for ev in events:
        writer.writerow(
            [ev.cycle_index, ev.kicking_clock] + [repr(v) for v in ev.phases_after]
        )
