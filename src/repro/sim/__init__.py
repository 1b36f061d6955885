"""Simulation kernel: the single virtual clock and event queue."""

from repro.sim.events import (PRIORITY_CONTROL, PRIORITY_CPU,
                              PRIORITY_NETWORK, PRIORITY_TIMER, Event)
from repro.sim.kernel import Interrupt, SimKernel

__all__ = [
    "PRIORITY_CONTROL", "PRIORITY_CPU", "PRIORITY_NETWORK", "PRIORITY_TIMER",
    "Event", "Interrupt", "SimKernel",
]
