"""The simulation kernel: one virtual clock and one event queue.

The paper's platform needs "the VMs and the network emulator [to] have the
same perception of time" (Section III-C).  In this reproduction that
requirement is discharged structurally: every component — network emulator,
virtual machines, node runtimes, the controller's measurement windows —
schedules its work on a single :class:`SimKernel`, so there is exactly one
notion of *now*.

The kernel supports interruption: the malicious proxy raises an interrupt
when it intercepts a message at an attack injection point, the run loop
returns to the controller, and the controller takes a distributed snapshot
before branching.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.common.errors import SimulationError, WatchdogTimeout
from repro.sim.events import Event, PRIORITY_TIMER


class Interrupt:
    """A reason the run loop stopped before its deadline."""

    def __init__(self, reason: str, payload: Any = None) -> None:
        self.reason = reason
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt({self.reason!r})"


class SimKernel:
    """Discrete-event scheduler owning virtual time."""

    def __init__(self) -> None:
        #: virtual time: a plain attribute, read on every event, that only
        #: the run loop and :meth:`load_state` advance
        self.now = 0.0
        self._seq = 0
        self._heap: List[Event] = []
        self._interrupt: Optional[Interrupt] = None
        self._running = False
        self.events_executed = 0
        #: virtual-time watchdog: maximum events one run window (a single
        #: :meth:`run_until` call) may execute before the kernel raises
        #: :class:`WatchdogTimeout`.  ``None`` disables the watchdog.
        self.watchdog_limit: Optional[int] = None
        #: how many times the watchdog has tripped on this kernel
        self.watchdog_trips = 0

    # -------------------------------------------------------------- schedule

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any,
                 priority: int = PRIORITY_TIMER) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any,
                    priority: int = PRIORITY_TIMER) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time.

        The returned :class:`Event` is the heap entry itself; ``cancel()``
        on it is how a caller withdraws the callback.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}")
        self._seq = seq = self._seq + 1
        event = Event((time, priority, seq, fn, args))
        heappush(self._heap, event)
        return event

    # ------------------------------------------------------------- interrupt

    def interrupt(self, reason: str, payload: Any = None) -> None:
        """Ask the run loop to return control after the current event."""
        self._interrupt = Interrupt(reason, payload)

    def take_interrupt(self) -> Optional[Interrupt]:
        intr, self._interrupt = self._interrupt, None
        return intr

    # ------------------------------------------------------------------- run

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return sum(1 for event in self._heap if event[3] is not None)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is drained."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue is empty."""
        if self.peek_time() is None:
            return False
        time, __, __seq, fn, args = heappop(self._heap)
        if time < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = time
        self.events_executed += 1
        fn(*args)
        return True

    def run_until(self, deadline: float) -> Optional[Interrupt]:
        """Run events until ``deadline`` or until interrupted.

        On a clean return the clock is advanced exactly to ``deadline`` even
        if the last event fired earlier, so back-to-back windows tile with
        no gaps.  On interrupt the clock stays at the interrupting event.
        One loop does it all per event: the interrupt test, skipping
        cancelled entries, the deadline test, the watchdog test, dispatch.
        """
        if self._running:
            raise SimulationError("run loop is not reentrant")
        self._running = True
        window_events = 0
        heap = self._heap
        limit = self.watchdog_limit
        try:
            while True:
                if self._interrupt is not None:
                    return self.take_interrupt()
                while heap and heap[0][3] is None:
                    heappop(heap)
                if not heap or heap[0][0] > deadline:
                    self.now = max(self.now, deadline)
                    return None
                if limit is not None and window_events >= limit:
                    self.watchdog_trips += 1
                    raise WatchdogTimeout(
                        f"watchdog: window at t={self.now:.3f} executed "
                        f"{window_events} events (limit {limit})"
                        "; likely an event storm",
                        events=window_events, limit=limit)
                time, __, __seq, fn, args = heappop(heap)
                if time < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = time
                self.events_executed += 1
                window_events += 1
                fn(*args)
        finally:
            self._running = False

    def run_for(self, duration: float) -> Optional[Interrupt]:
        return self.run_until(self.now + duration)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue empties; returns events executed."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise SimulationError("drain exceeded max_events; likely a livelock")
        return count

    # -------------------------------------------------------------- snapshot
    #
    # The kernel itself snapshots only its clock and sequence counter; queued
    # events belong to the components that scheduled them (network emulator,
    # node runtimes, VMs), each of which re-registers its events on restore.
    # This mirrors the paper's NS3 modification, where save iterates the
    # event queue and each object knows how to save and re-create itself.

    def save_state(self) -> dict:
        return {"now": self.now, "seq": self._seq,
                "events_executed": self.events_executed}

    def load_state(self, state: dict) -> None:
        self.now = state["now"]
        self._seq = state["seq"]
        self.events_executed = state["events_executed"]
        self._heap.clear()
        self._interrupt = None
