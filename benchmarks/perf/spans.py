"""Timing shims installed from outside ``src/repro``.

A :class:`SpanStack` wraps public entry points of each layer (class
attributes, so every instance — including ones a hunt builds internally —
is covered) and keeps, per span name, the call count, total time and
*self* time: duration minus the part covered by child spans.  Open spans
live on one in-memory stack (the parent of a span is the entry below it);
closed spans are folded into per-name aggregates, plus raw durations for
the few names that need percentiles, and read out once at the end.

Layer = the part of the span name before the first dot, which is the
``src/repro/<module>`` the wrapped function belongs to.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple


class SpanStack:
    def __init__(self) -> None:
        #: child-time accumulators of the currently open spans
        self._open: List[float] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: name -> raw durations (only for names wrapped with keep=True)
        self.durations: Dict[str, List[float]] = {}
        #: name -> sum of what ``measure`` returned after minus before
        self.measured: Dict[str, float] = {}
        self._patched: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------- wrapping

    def _shim(self, fn: Callable, name: str, keep: bool,
              measure: Callable = None) -> Callable:
        open_spans = self._open
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        kept = self.durations.setdefault(name, []) if keep else None
        clock = time.perf_counter

        def shim(*args, **kwargs):
            before = measure(args[0]) if measure is not None else 0
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
                if kept is not None:
                    kept.append(elapsed)
                if measure is not None:
                    self.measured[name] = (self.measured.get(name, 0)
                                           + measure(args[0]) - before)

        shim.__wrapped__ = fn
        return shim

    def wrap(self, owner: type, attr: str, name: str, keep: bool = False,
             measure: Callable = None) -> None:
        """Replace ``owner.attr`` with a timing shim until :meth:`remove`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._shim(original, name, keep, measure))

    def remove(self) -> None:
        """Restore every wrapped attribute (aggregates are kept)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a root-style span (the timed body itself)."""
        return self._shim(fn, name, keep=True)(*args, **kwargs)

    # -------------------------------------------------------------- reading

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self_times(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, (__, __total, self_s) in self.spans.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers


# ---------------------------------------------------------------- targets

WIRE_OPS = ("encode", "decode", "peek_type", "mutate")


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install_in_process(stack: SpanStack) -> None:
    """Wrap every layer boundary an in-process workload crosses."""
    from repro.attacks.proxy import MaliciousProxy
    from repro.controller.branching import DistributedSnapshotter
    from repro.controller.harness import AttackHarness
    from repro.netem.emulator import NetworkEmulator
    from repro.runtime.app import Application
    from repro.runtime.node import Node
    from repro.sim.kernel import SimKernel
    from repro.vm.ksm import KsmDaemon
    from repro.vm.snapshots import SnapshotManager
    from repro.wire.codec import ProtocolCodec

    stack.wrap(SimKernel, "run_until", "sim.run_until",
               measure=lambda kernel: kernel.events_executed)
    for attr in WIRE_OPS:
        stack.wrap(ProtocolCodec, attr, f"wire.{attr}")
    stack.wrap(NetworkEmulator, "transmit", "netem.transmit")
    stack.wrap(Node, "send", "runtime.send")
    for cls in _subclasses(Application):
        if "on_message" in cls.__dict__:
            stack.wrap(cls, "on_message", "systems.on_message")
    stack.wrap(KsmDaemon, "scan", "vm.ksm_scan", keep=True)
    for attr in ("save", "load", "save_delta", "load_delta"):
        stack.wrap(SnapshotManager, attr, f"vm.{attr}", keep=True)
    stack.wrap(DistributedSnapshotter, "save", "controller.world_save",
               keep=True)
    stack.wrap(DistributedSnapshotter, "restore", "controller.world_restore",
               keep=True)
    stack.wrap(AttackHarness, "start_run", "controller.start_run", keep=True)
    stack.wrap(AttackHarness, "run_to_injection", "controller.seek",
               keep=True)
    stack.wrap(AttackHarness, "branch_measure", "controller.branch_measure",
               keep=True)
    stack.wrap(MaliciousProxy, "__call__", "attacks.proxy")


def install_store(stack: SpanStack) -> None:
    """Parent-side store shims for the forked hunt: workers are not
    shimmed (their numbers come from the hunt's side channels), and the
    journal is only ever appended to by the parent."""
    from multiprocessing.process import BaseProcess

    from repro.store.journal import Journal
    from repro.store.runstore import RunStore

    stack.wrap(BaseProcess, "start", "parallel.pool_start")
    stack.wrap(Journal, "append", "store.append", keep=True)
    stack.wrap(RunStore, "save_checkpoint", "store.checkpoint", keep=True)
