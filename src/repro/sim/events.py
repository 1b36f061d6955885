"""Event primitives for the simulation kernel.

Events are ordered by ``(time, priority, seq)``.  The sequence number makes
ordering total and deterministic: two events scheduled for the same instant
always fire in scheduling order, which is a prerequisite for reproducible
branching (the controller compares executions branched from one snapshot, so
tie-breaking must never depend on hash order or identity).
"""

from __future__ import annotations


class Event(list):
    """A scheduled callback: ``[time, priority, seq, fn, args]``.

    The one object a scheduled event costs: it is the heap entry (lists
    compare element-wise, and ``seq`` is unique, so ordering never reaches
    ``fn``) and the handle returned to the caller.  Cancellation is handled
    by flagging rather than heap removal (removal from the middle of a heap
    is O(n)): :meth:`cancel` clears ``fn`` and the kernel skips the entry
    when it surfaces.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def active(self) -> bool:
        return self[3] is not None

    def cancel(self) -> None:
        self[3] = None


# Priorities: lower runs first at equal timestamps.  Network deliveries run
# before application timers so a message that arrives "now" is visible to a
# timer handler also firing "now", mirroring how an OS delivers pending I/O
# before a timer signal for the same tick.
PRIORITY_NETWORK = 0
PRIORITY_CPU = 1
PRIORITY_TIMER = 2
PRIORITY_CONTROL = 3
