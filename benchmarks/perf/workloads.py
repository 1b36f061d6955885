"""The four workloads: what is set up, what one repetition does, and what
it must produce.

Every workload is closed-loop with one caller (this process).  One
*repetition* is a fixed amount of work — fixed by ``SIZES`` — whose
virtual-time outputs are deterministic, so each repetition returns an
``exact`` record that is compared with the pinned oracle, and host time
is the only thing that varies.

``repro`` is imported inside ``setup`` on purpose: the import is part of
the cold set-up cost a user pays on every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List

import spans as shims

#: sizes are part of the benchmark definition; ``smoke`` exists so the
#: whole matrix can be exercised in seconds (names only, no baselines)
SIZES = {
    "full": {
        "hunt_types": ("PrePrepare", "Prepare", "Commit"),
        "hunt_passes": 2,
        "events_virtual_s": 2.5,
        "os_image_mb": (48, 58),
        "snapshot_rounds": {"5vm": 2, "15vm": 1},
        "micro_events": 200_000,
    },
    "smoke": {
        "hunt_types": ("PrePrepare",),
        "hunt_passes": 1,
        "events_virtual_s": 1.0,
        "os_image_mb": (6, 7),
        "snapshot_rounds": {"5vm": 1, "15vm": 1},
        "micro_events": 20_000,
    },
}

BFT_SYSTEMS = ("pbft", "zyzzyva", "prime", "aardvark")
CLUSTERS = {"5vm": 5, "15vm": 15}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (layer did no work)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Workload:
    name = ""
    #: the issue's names for this workload's own end-to-end numbers ->
    #: where each comes from (``work_per_s`` or a directly timed sample)
    aliases: Dict[str, str] = {}
    #: every repetition must produce the same exact outputs
    reps_identical = False
    #: name of the span around one shimmed repetition; its self time is
    #: what the repetition spends outside every shimmed call
    root_span = ""
    #: extra repetition kinds a traced run makes once each, after the
    #: first plain repetition (``shimmed`` is handled by the caller)
    traced_kinds = ("shimmed",)
    #: plain repetitions one run makes at most, however long it may
    #: measure, so memory does not depend on how fast the build is
    max_reps = 12
    #: pause the cyclic garbage collector while a repetition is timed
    pause_gc = False

    def __init__(self, seed: int, sizes: str, workdir: str) -> None:
        self.seed = seed
        self.sizes = SIZES[sizes]
        self.workdir = workdir
        #: per-layer numbers timed directly (no shim), name -> samples
        self.direct: Dict[str, List[float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self) -> dict:
        """One repetition: ``{work, attempted, failed, exact}``."""
        raise NotImplementedError

    def variant(self, kind: str) -> Callable[[], dict]:
        raise KeyError(kind)

    def install(self, stack: shims.SpanStack) -> None:
        shims.install_in_process(stack)

    def sample(self, name: str, value: float) -> None:
        self.direct.setdefault(name, []).append(value)

    def layers(self, stack: shims.SpanStack, reps: List[dict]) -> dict:
        """Per-layer metrics of the shimmed repetition."""
        out = {
            "sim.run_until_self_s": stack.self_time("sim.run_until"),
            "sim.events_executed": stack.measured.get("sim.run_until", 0),
            "wire.self_s": sum(stack.self_time(f"wire.{op}")
                               for op in shims.WIRE_OPS),
            "wire.calls": sum(stack.calls(f"wire.{op}")
                              for op in shims.WIRE_OPS),
            "netem.transmit_self_s": stack.self_time("netem.transmit"),
            "netem.packets": stack.calls("netem.transmit"),
            "runtime.send_self_s": stack.self_time("runtime.send"),
            "systems.on_message_self_s":
                stack.self_time("systems.on_message"),
            "systems.messages_handled": stack.calls("systems.on_message"),
            "attacks.proxy_self_s": stack.self_time("attacks.proxy"),
            "attacks.intercepts": stack.calls("attacks.proxy"),
            "controller.saves": stack.calls("controller.world_save"),
            "controller.restores": stack.calls("controller.world_restore"),
        }
        if out["netem.packets"]:
            out["netem.us_per_packet"] = (1e6 * out["netem.transmit_self_s"]
                                          / out["netem.packets"])
        durations = stack.durations
        for metric, span, q in (
                ("controller.seek_ms_p50", "controller.seek", 0.5),
                ("controller.branch_measure_ms_p50",
                 "controller.branch_measure", 0.5),
                ("controller.branch_measure_ms_p80",
                 "controller.branch_measure", 0.8),
                ("controller.world_save_ms_p50", "controller.world_save",
                 0.5),
                ("controller.world_restore_ms_p50",
                 "controller.world_restore", 0.5)):
            out[metric] = 1000.0 * _percentile(durations.get(span, []), q)
        out["controller.start_run_s"] = _percentile(
            durations.get("controller.start_run", []), 0.5)
        return out


# ------------------------------------------------------------------ hunts

class HuntPbftLying(Workload):
    """Serial PBFT hunt, malicious primary, lying on: the user's unit of
    work, in which every layer takes part."""

    name = "hunt_pbft_lying"
    aliases = {"scenarios_per_s": "work_per_s"}
    reps_identical = True
    root_span = "search.hunt"
    traced_kinds = ("shimmed", "tracer")
    #: one hunt is 15 to 20 s: a second one must never fit "sometimes"
    max_reps = 1

    def setup(self) -> None:
        from repro.attacks.space import ActionSpaceConfig
        from repro.controller.harness import AttackHarness
        from repro.controller.monitor import AttackThreshold
        from repro.search.hunt import hunt
        from repro.systems.registry import get_system

        self._hunt = hunt
        # repro hunt pbft --fast --warmup 1 --window 1 --max-wait 5
        self.factory = get_system("pbft").build("primary", 1.0, 1.0)
        self.common = dict(
            seed=self.seed,
            message_types=list(self.sizes["hunt_types"]),
            threshold=AttackThreshold(delta=0.25),
            space_config=ActionSpaceConfig(
                delays=(1.0,), drop_probabilities=(0.5, 1.0),
                duplicate_counts=(50,), include_divert=False,
                include_lying=True),
            max_passes=self.sizes["hunt_passes"], max_wait=5.0)
        AttackHarness(self.factory, seed=self.seed).start_run()

    def rep(self, **options) -> dict:
        result = self._hunt(self.factory, **self.common, **options)
        return self.digest(result)

    def digest(self, result) -> dict:
        from repro.analysis.reports import hunt_result_to_dict
        # the bytes `repro hunt --json FILE` writes
        report = json.dumps(hunt_result_to_dict(result), indent=2)
        scenarios = sum(p.scenarios_evaluated for p in result.passes)
        health = result.worker_health
        failed = len(result.quarantined) + int(result.interrupted)
        if health is not None:
            failed += (health.crashes + health.restarts
                       + len(health.quarantined_tasks) + int(health.degraded))
        return {
            "work": scenarios,
            "attempted": scenarios + len(result.quarantined),
            "failed": failed,
            "exact": {
                "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
                "ledger": dict(result.total_ledger.by_category),
                "scenarios_evaluated": scenarios,
                "findings": result.attack_names(),
            },
        }

    def variant(self, kind: str) -> Callable[[], dict]:
        if kind == "tracer":
            from repro.telemetry.tracer import Tracer
            return lambda: self.rep(tracer=Tracer(enabled=True))
        return super().variant(kind)

    def search_layers(self, stack, exact: dict) -> dict:
        return {
            "search.self_s": stack.self_time(self.root_span),
            "search.scenarios_evaluated": exact["scenarios_evaluated"],
            "search.findings": len(exact["findings"]),
            "search.platform_time_s": sum(exact["ledger"].values()),
        }

    def layers(self, stack, reps) -> dict:
        return {**super().layers(stack, reps),
                **self.search_layers(stack, reps[0]["exact"])}


class HuntPbftW2Store(HuntPbftLying):
    """The same hunt through the other engine: two forked workers, merged
    traces, and the fsync'd run store."""

    name = "hunt_pbft_w2_store"
    traced_kinds = ("shimmed", "serial")

    def rep(self, **options) -> dict:
        store_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            result = self._hunt(self.factory, **self.common, workers=2,
                                store_dir=store_dir, **options)
            side = self._side_channels(result, store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return {**self.digest(result), "side": side}

    @staticmethod
    def _side_channels(result, store_dir: str) -> dict:
        counters = result.store_report.counters
        return {
            "worker_wall_s": [w.wall_seconds
                              for w in result.worker_breakdown],
            "parallel.respawns": result.worker_health.restarts,
            "store.journal_records":
                counters.get("store.journal.records_appended", 0),
            "store.journal_bytes": sum(
                os.path.getsize(os.path.join(store_dir, f))
                for f in os.listdir(store_dir) if f.endswith(".jsonl")),
        }

    def variant(self, kind: str) -> Callable[[], dict]:
        if kind == "serial":
            # the serial engine on the same inputs: its report must hash
            # identically, and it is the base of parallel.speedup_vs_serial
            return lambda: HuntPbftLying.rep(self)
        return super().variant(kind)

    def install(self, stack) -> None:
        shims.install_store(stack)

    def layers(self, stack, reps) -> dict:
        shimmed = next(r for r in reps if r["kind"] == "shimmed")
        serial = next(r for r in reps if r["kind"] == "serial")
        side = dict(shimmed["side"])
        busy = sum(side.pop("worker_wall_s")) / (2 * shimmed["wall_s"])
        durations = stack.durations
        return {
            **side,
            "parallel.speedup_vs_serial":
                serial["wall_s"] / shimmed["wall_s"],
            "parallel.worker_busy_share": busy,
            "parallel.pool_start_s": stack.total("parallel.pool_start"),
            "store.append_ms_p50": 1000.0 * _percentile(
                durations.get("store.append", []), 0.5),
            "store.checkpoint_ms": 1000.0 * _percentile(
                durations.get("store.checkpoint", []), 0.5),
            **self.search_layers(stack, shimmed["exact"]),
        }


# ----------------------------------------------------------------- events

class EventsBft4(Workload):
    """Four BFT testbeds run benignly: the event path (sim, runtime,
    systems, wire, netem) does all the work and vm none, over four
    generated codecs so a PBFT-only trick does not pass as general."""

    name = "events_bft4"
    aliases = {"events_per_s": "work_per_s"}
    root_span = "bench.events_loop"

    def setup(self) -> None:
        from repro.systems.registry import get_system

        self.worlds = {}
        for system in BFT_SYSTEMS:
            entry = get_system(system)
            instance = entry.build(entry.default_role, 1.0, 1.0)(self.seed)
            world = instance.world
            # no proxy on this workload: the attacks layer must do nothing
            world.emulator.set_interceptor(None)
            world.boot()
            world.run_for(instance.warmup)
            self.worlds[system] = world

    def rep(self) -> dict:
        events, failed = {}, 0
        for system, world in self.worlds.items():
            before = world.kernel.events_executed
            start = time.perf_counter()
            interrupt = world.run_for(self.sizes["events_virtual_s"])
            elapsed = time.perf_counter() - start
            events[system] = world.kernel.events_executed - before
            self.sample(f"events_per_s.{system}", events[system] / elapsed)
            failed += int(interrupt is not None or bool(world.crashed_nodes()))
        return {"work": sum(events.values()), "attempted": len(events),
                "failed": failed, "exact": {"events_executed": events}}


# -------------------------------------------------------------- snapshots

class SequenceSenderApp:
    """The paper's Table II measurement app: hostname plus a counter."""

    def __init__(self, hostname: str) -> None:
        self.hostname = hostname
        self.sequence = 0
        self.sent: List[str] = []

    def tick(self) -> None:
        self.sequence += 1
        self.sent.append(f"{self.hostname}:{self.sequence}")

    def snapshot_state(self) -> dict:
        return {"hostname": self.hostname, "sequence": self.sequence,
                "sent": list(self.sent)}

    def restore_state(self, state: dict) -> None:
        self.hostname = state["hostname"]
        self.sequence = state["sequence"]
        self.sent = list(state["sent"])


class SnapshotCycle(Workload):
    """Clusters of 5 and 15 VMs cycled through shared, plain and delta
    snapshots: vm does all the work and sim none, and the snapshot layer
    is used three ways so a gain on one that costs another shows."""

    name = "snapshot_cycle"
    aliases = {"snapshot_save_ms": "vm.save_shared_ms.5vm",
               "snapshot_restore_ms": "vm.restore_shared_ms.5vm"}
    #: the repetition calls VmCluster directly, so what is left outside the
    #: SnapshotManager/KsmDaemon shims is VmCluster's own code
    root_span = "vm.cluster"
    #: A full collection walks everything alive in the process: here both
    #: clusters and every snapshot the benchmark holds, so its cost is the
    #: benchmark's arrangement, not the operation's.  It would be over half
    #: of every save, in a number of collections that depends on where the
    #: allocation counters stand, and it is what a noisy neighbour slows
    #: most (README, "Steadiness measures").  The hunts run with it on.
    pause_gc = True

    def setup(self) -> None:
        from repro.vm.manager import VmCluster
        from repro.vm.memory import OsImage

        resident, unique = self.sizes["os_image_mb"]
        image = OsImage(resident_mb=resident, unique_mb=unique)
        rng = random.Random(self.seed)
        self.clusters, self.bases = {}, {}
        rss_before = _rss_mb()
        for label, n_vms in CLUSTERS.items():
            start = time.perf_counter()
            cluster = VmCluster([f"vm{i}" for i in range(n_vms)], image=image)
            cluster.boot_all()
            self.sample(f"vm.boot_ms.{label}", _ms_since(start))
            for vm in cluster.machines():
                vm.app = SequenceSenderApp(vm.name)
                # about thirty seconds of the paper's workload; the seed
                # varies page content, never the page count
                for __ in range(rng.randint(20, 40)):
                    vm.app.tick()
            self.clusters[label] = cluster
        self.sample("vm.rss_per_vm_mb",
                    (_rss_mb() - rss_before) / sum(CLUSTERS.values()))

    def _timed(self, metric: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.sample(metric, _ms_since(start))
        return result

    def _round(self, label: str) -> dict:
        cluster = self.clusters[label]
        apps = [vm.app for vm in cluster.machines()]
        failed = 0

        def tick() -> None:
            for app in apps:
                app.tick()

        def restore(mode: str, snapshot, expected: List[int]) -> int:
            tick()  # so the restore has something to rewind
            self._timed(f"vm.restore_{mode}_ms.{label}",
                        cluster.restore_snapshot, snapshot)
            cluster.resume_all()
            return int([vm.app.sequence for vm in cluster.machines()]
                       != expected)

        exact = {}
        tick()
        for mode in ("shared", "plain", "delta"):
            if mode == "delta":
                tick()  # so the delta against the base is never empty
                snapshot = self._timed(
                    f"vm.save_delta_ms.{label}",
                    cluster.save_delta_snapshot, self.bases[label]).snapshot
            else:
                snapshot = self._timed(
                    f"vm.save_{mode}_ms.{label}", cluster.save_snapshot,
                    shared=(mode == "shared")).snapshot
                if mode == "shared":
                    self.bases.setdefault(label, snapshot)
            self.sample(f"vm.stored_bytes.{mode}.{label}",
                        snapshot.stored_bytes())
            sequences = [app.sequence for app in apps]
            exact[mode] = {"stored_bytes": snapshot.stored_bytes(),
                           "save_time": snapshot.save_time,
                           "load_time": snapshot.load_time,
                           **snapshot.page_counts()}
            failed += restore(mode, snapshot, sequences)
        return {"exact": exact, "failed": failed}

    def rep(self) -> dict:
        exact, failed, operations = {}, 0, 0
        for label, rounds in self.sizes["snapshot_rounds"].items():
            exact[label] = []
            for __ in range(rounds):
                outcome = self._round(label)
                exact[label].append(outcome["exact"])
                failed += outcome["failed"]
                operations += 6
        return {"work": operations, "attempted": operations,
                "failed": failed, "exact": exact}

    def layers(self, stack, reps) -> dict:
        out = super().layers(stack, reps)
        # the shimmed repetition runs the clusters in order, one KSM scan
        # per shared save
        scans = stack.durations.get("vm.ksm_scan", [])
        for label, rounds in self.sizes["snapshot_rounds"].items():
            mine, scans = scans[:rounds], scans[rounds:]
            out[f"vm.ksm_scan_ms.{label}"] = 1000.0 * _percentile(mine, 0.5)
        return out


WORKLOADS = {w.name: w for w in
             (HuntPbftLying, HuntPbftW2Store, EventsBft4, SnapshotCycle)}


# ------------------------------------------------------------ microbenches

def micro(seed: int, n_events: int) -> dict:
    """Direct-call microbenchmarks of the two innermost layers."""
    from repro.sim.kernel import SimKernel
    from repro.systems.pbft.schema import PBFT_CODEC, PBFT_SCHEMA
    from repro.wire.codec import Message
    from repro.wire.schema import KIND_BYTES, KIND_SCALAR

    def noop() -> None:
        pass

    kernel = SimKernel()
    start = time.perf_counter()
    for i in range(n_events):
        kernel.schedule(i * 1e-6, noop)
    kernel.run_until(1.0)
    out = {"sim.bare_events_per_s":
           kernel.events_executed / (time.perf_counter() - start)}

    rng = random.Random(seed)
    per_type: Dict[str, List[float]] = {
        "encode": [], "decode": [], "peek_type": [], "mutate": []}
    calls = 2000
    for spec in PBFT_SCHEMA.messages:
        fields = {}
        for f in spec.fields:
            if f.kind == KIND_SCALAR:
                fields[f.name] = f.scalar.wrap(rng.getrandbits(31))
            elif f.kind == KIND_BYTES:
                fields[f.name] = rng.randbytes(f.fixed_len)
            else:
                fields[f.name] = rng.randbytes(64)
        message = Message(spec.name, fields)
        data = PBFT_CODEC.encode(message)
        if PBFT_CODEC.decode(data).fields != fields:
            raise RuntimeError(f"codec round trip changed a {spec.name}")
        target = spec.scalar_fields()[0].name
        for op, call in (
                ("encode", lambda: PBFT_CODEC.encode(message)),
                ("decode", lambda: PBFT_CODEC.decode(data)),
                ("peek_type", lambda: PBFT_CODEC.peek_type(data)),
                ("mutate", lambda: PBFT_CODEC.mutate(data, target, 7))):
            start = time.perf_counter()
            for __ in range(calls):
                call()
            per_type[op].append(1e6 * (time.perf_counter() - start) / calls)
    for op, values in per_type.items():
        out[f"wire.{op}_us"] = statistics.median(values)
    return out
