"""The malicious proxy (Sections III-D and IV-B).

The proxy sits inside the network emulator on the path traffic takes as it
leaves each malicious node's VM.  It never touches the application: all
misbehaviour is injected by acting on intercepted messages.  Modes of
operation, both driven by the controller:

* **policy** — a persistent map from message type to
  :class:`~repro.attacks.actions.MaliciousAction`; every matching message
  from a malicious node gets the action.  Used while executing one attack
  scenario (and by the Fig. 5 benchmarks).
* **armed** — watch for the next message of a target type from a malicious
  node; when one appears, *hold* it inside the emulator and interrupt the
  kernel.  This is the attack injection point: the controller snapshots the
  world, then branches — restoring, installing a policy, and releasing the
  held message — once per candidate action.

The proxy also understands "who sent this": it only ever intercepts traffic
of nodes the controller designated malicious, matching the paper's NS3
configuration-file mechanism.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence

from repro.common.ids import NodeId
from repro.common.rng import RandomStream
from repro.netem.emulator import NetworkEmulator, Verdict
from repro.netem.packets import MessageEnvelope
from repro.wire.codec import ProtocolCodec
from repro.attacks.actions import ActionContext, MaliciousAction

INJECTION_POINT = "injection_point"
HELD_TAG = "injection"


def _held_tag(index: int) -> str:
    return f"{HELD_TAG}:{index}"


class MaliciousProxy:
    """Message interceptor implementing the platform's attack injection."""

    def __init__(self, emulator: NetworkEmulator, codec: ProtocolCodec,
                 malicious: Sequence[NodeId], rng: RandomStream) -> None:
        self.emulator = emulator
        self.codec = codec
        #: by name: a client and a replica of one index share a NodeId hash
        self.malicious: FrozenSet[str] = frozenset(n.name for n in malicious)
        self.rng = rng
        self._policy: Dict[str, MaliciousAction] = {}
        self._background: Dict[str, MaliciousAction] = {}
        self._armed_type: Optional[str] = None
        self._arm_after: float = 0.0
        # After the injection point triggers, sibling copies of the same
        # broadcast (sent within the same event) are parked too, so the
        # branch can subject the *whole* send to the candidate action.
        self._parked_type: Optional[str] = None
        self._held_count = 0
        self.intercepted = 0
        self.injections = 0
        self.first_injection_time: Optional[float] = None
        #: optional :class:`~repro.telemetry.tracer.Tracer`; the harness
        #: attaches one so each applied action leaves a ``proxy.action``
        #: instant in the trace (platform-side, never rewound).
        self.tracer = None
        emulator.set_interceptor(self)

    def _instant(self, action: MaliciousAction, message_type: str) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("proxy.action", action=type(action).__name__,
                           message_type=message_type)

    # -------------------------------------------------------- configuration

    def set_policy(self, message_type: str, action: MaliciousAction) -> None:
        self._policy[message_type] = action

    def clear_policy(self) -> None:
        self._policy.clear()

    def set_background_policy(self, message_type: str,
                              action: MaliciousAction) -> None:
        """Install a fixed environment behaviour that searches never clear.

        Used by testbeds that need a standing fault to reach a protocol
        phase — e.g. a malicious primary that drops Pre-Prepares so that
        view changes occur and ViewChange messages can be attacked (the
        paper's 7-server PBFT configuration).
        """
        self._background[message_type] = action

    @property
    def policy(self) -> Dict[str, MaliciousAction]:
        return dict(self._policy)

    def arm(self, message_type: str, after: float = 0.0) -> None:
        """Watch for the next ``message_type`` sent by a malicious node."""
        self._armed_type = message_type
        self._arm_after = after
        self._parked_type = None
        self._held_count = 0

    def disarm(self) -> None:
        self._armed_type = None
        self._parked_type = None

    def abort_injection(self) -> None:
        """Error cleanup: disarm and drop any parked injection messages.

        Used by the harness's exception paths so a fault mid-branch never
        leaves the proxy armed or a held message stranded in the emulator.
        Safe to call when nothing is armed or held.
        """
        self._armed_type = None
        self._parked_type = None
        for tag in self._injection_tags():
            self.emulator.discard_held(tag)

    @property
    def armed_type(self) -> Optional[str]:
        return self._armed_type

    # ------------------------------------------------------------ intercept

    def _context(self) -> ActionContext:
        return ActionContext(self.codec, self.rng, self.emulator.hosts())

    def __call__(self, envelope: MessageEnvelope) -> Verdict:
        if envelope.src.name not in self.malicious:
            return Verdict.passthrough()
        spec = envelope.spec or self.codec.peek_type(envelope.payload)
        if spec is None:
            return Verdict.passthrough()
        self.intercepted += 1

        if self._parked_type == spec.name:
            # Sibling copy of the held broadcast: park it alongside.
            self._held_count += 1
            return Verdict.hold(_held_tag(self._held_count))

        if (self._armed_type == spec.name
                and self.emulator.kernel.now >= self._arm_after):
            # Attack injection point: park the message, stop the world.
            self._armed_type = None
            self._parked_type = spec.name
            self._held_count = 1
            self.emulator.kernel.interrupt(INJECTION_POINT, payload={
                "message_type": spec.name,
                "src": envelope.src,
                "dst": envelope.dst,
                "time": self.emulator.kernel.now,
            })
            return Verdict.hold(_held_tag(1))

        action = self._policy.get(spec.name)
        if action is None:
            action = self._background.get(spec.name)
        if action is None:
            return Verdict.passthrough()
        deliveries = action.apply(envelope, self._context())
        self.injections += 1
        self._instant(action, spec.name)
        tap = self.emulator.causal_tap
        if tap is not None:
            tap.on_proxy(envelope.msg_seq, action.describe())
        if self.first_injection_time is None:
            self.first_injection_time = self.emulator.kernel.now
        if not deliveries:
            return Verdict.drop()
        return Verdict.rewrite(deliveries)

    # -------------------------------------------------- held-message release

    def release_held(self, action: Optional[MaliciousAction]) -> None:
        """Release the parked injection-point messages into a branch.

        With ``action`` None the messages pass unmodified (the baseline
        branch); otherwise the action is applied to each of them, exactly
        as it will be applied to every subsequent message of that type via
        the policy.
        """
        self._parked_type = None
        for tag in self._injection_tags():
            if action is None:
                self.emulator.release_held(tag)
                continue
            envelope = self.emulator.peek_held(tag)
            deliveries = action.apply(envelope, self._context())
            self.injections += 1
            spec = envelope.spec or self.codec.peek_type(envelope.payload)
            self._instant(action, spec.name if spec else "?")
            tap = self.emulator.causal_tap
            if tap is not None:
                tap.on_proxy(envelope.msg_seq, action.describe())
            self.emulator.release_held(tag, deliveries)

    def _injection_tags(self):
        prefix = HELD_TAG + ":"
        return [t for t in self.emulator.held_tags() if t.startswith(prefix)]

    def has_held(self) -> bool:
        return bool(self._injection_tags())
