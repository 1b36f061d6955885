"""The cached step source: what every walk in a hunt runs over.

A search walk (:mod:`repro.search.base`) asks a step source four questions
and replays each probe it gets back into its own ledger (brute force
prices them first, :func:`repro.search.brute.price`).  :class:`CachedSteps`
answers from the poisoned probes, then the
:class:`~repro.parallel.worker.ProbeCache`.  A step the cache lacks is a
*question* for the prober (:class:`~repro.parallel.worker.WorkerProber`):
it simulates that one step on its live harness, the probe is admitted — a
run store journals it before it is used — and replayed like any other.
Replaying individual charges in the walk's order makes its ledger bitwise
identical whichever probes were recorded when, and by whom.

With a healthy fork pool there is no prober: the workers prefetched all
the walk can need (the superset rule, :meth:`ProbeCache.split`), and a
miss is a "coverage hole" :class:`SearchError`, never a silently shorter
report.  A poison step (:mod:`repro.parallel.health`) comes back as
synthetic probes whose traces carry only ``worker-fault`` + ``quarantine``
events; they are handed to the source beside the cache — never admitted
(a journaled poison would poison a clean resume), never asked again.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.attacks.actions import MaliciousAction
from repro.common.errors import SearchError
from repro.controller.costs import SNAPSHOT_SAVE
from repro.controller.harness import AttackHarness
from repro.parallel.recording import StepTrace
from repro.parallel.worker import (BaselineProbe, ContextProbe, EvalProbe,
                                   ProbeCache, StartupProbe, WorkerProber)
from repro.search.base import supervised


class CachedSteps:
    """A step source (:mod:`repro.search.base`) over recorded probes.

    ``cache`` holds the recorded probes; ``prober`` (None: nobody — a miss
    is a coverage hole) simulates the step the cache lacks; ``poisoned`` is
    a second cache, of synthetic poison-step quarantines, which outranks
    both.  ``instance`` is an unbooted testbed, read only for the system's
    name, schema, search types, warmup and window (with ``max_wait``, what
    brute force prices by).  ``kept`` prices the pass as one whose
    snapshots the platform kept.
    """

    def __init__(self, instance, cache: ProbeCache,
                 prober: Optional[WorkerProber] = None,
                 poisoned: Optional[ProbeCache] = None,
                 kept: bool = False,
                 max_wait: Optional[float] = None) -> None:
        self.system = instance.name
        self.schema = instance.schema
        self.search_types = instance.search_types
        self.warmup, self.window = instance.warmup, instance.window
        self.max_wait = (AttackHarness.DEFAULT_MAX_WAIT if max_wait is None
                         else max_wait)
        self._cache = cache
        self._prober = prober
        self._poisoned = poisoned if poisoned is not None else ProbeCache()
        self._kept = kept

    def _priced(self, probe):
        """``probe`` as replaying it charges.

        A *kept* pass (``hunt --injection-cache``, pass 2 on) is priced as
        a platform that kept pass 1's snapshots would charge it: the warm
        testbed is still up, so the startup replays its crashed-node
        summary but none of its charges, and each type's injection
        snapshot is still there, so a found, clean context replays only
        its baseline branch — the charges after its injection save.  Every
        other step replays as recorded.  The rule reads nothing but the
        recorded trace, so the probes — and a store's journal — are the
        same with the policy on or off.
        """
        if not self._kept:
            return probe
        trace = probe.trace
        if isinstance(probe, StartupProbe):
            return replace(probe, trace=StepTrace(
                crash_lines=trace.crash_lines))
        if (isinstance(probe, ContextProbe) and probe.found
                and not supervised(probe)):
            categories = [category for category, __ in trace.charges]
            saved = categories.index(SNAPSHOT_SAVE) + 1
            return replace(probe, trace=StepTrace(
                trace.charges[saved:], [], trace.crash_lines))
        return probe

    def _answer(self, probe, what: str, simulate, admit):
        """``probe`` as recorded — or, on a miss (None), the one
        ``simulate(prober)`` records now, admitted first — priced."""
        if probe is None:
            if self._prober is None:
                raise SearchError(
                    f"parallel probe coverage hole: no recorded {what}")
            probe = simulate(self._prober)
            admit(probe)
        return self._priced(probe)

    def startup(self) -> StartupProbe:
        return self._answer(self._cache.startup, "startup",
                            WorkerProber.startup, self._cache.add_startup)

    def context(self, message_type: str) -> ContextProbe:
        return self._answer(
            self._poisoned.contexts.get(message_type)
            or self._cache.contexts.get(message_type),
            f"injection context for {message_type}",
            lambda prober: prober.context(message_type),
            lambda probe: self._cache.add_context(message_type, probe))

    def evaluate(self, message_type: str,
                 action: MaliciousAction) -> EvalProbe:
        record = action.to_record()
        return self._answer(
            self._poisoned.evals.get(message_type, {}).get(record)
            or self._cache.evals.get(message_type, {}).get(record),
            f"evaluation of {action.describe()} {message_type}",
            lambda prober: prober.evaluate(message_type, action),
            lambda probe: self._cache.add_eval(message_type, probe))

    def baseline(self) -> BaselineProbe:
        return self._answer(
            self._poisoned.baseline or self._cache.baseline, "baseline",
            WorkerProber.baseline, self._cache.add_baseline)
