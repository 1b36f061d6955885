"""The emulator's message hop, pinned case by case.

A bare :class:`NetworkEmulator` is driven through a fixed table of cases —
payloads of 1, 2 and 3 fragments; pass, drop, hold-then-release and
rewrite-with-extra-delay verdicts; no fault, bursty loss, corruption, a
partition and a down link; frozen and resumed or not — plus one TCP flow
that pays its handshake.  For each case the sha256 of everything the
emulator makes observable is pinned: the delivery log (time, envelope),
``stats.as_tuple()``, every port's counters and device state, and
``save_state()`` taken mid-flight.  The hop may be restructured freely; any
change to what it delivers, when, or what it saves moves a hash.
"""

import hashlib
import itertools

import pytest

from repro.common.ids import client, replica
from repro.faults.models import (ANY_PATH, GilbertElliott, PathFaults,
                                 path_key)
from repro.netem.emulator import Delivery, NetworkEmulator, Verdict
from repro.netem.packets import MTU
from repro.netem.topology import LanTopology
from repro.netem.transport import TCP, HostTransport
from repro.sim.kernel import SimKernel

A, B, C, K = replica(0), replica(1), replica(2), client(0)
HOSTS = (A, B, C, K)

SIZES = {1: 40, 2: MTU + 11, 3: 2 * MTU + 7}
VERDICTS = ("pass", "drop", "hold", "rewrite")
FAULTS = ("none", "loss", "corrupt", "partition", "down")


def _interceptor(verdict):
    """Apply ``verdict`` to replica0's messages; pass everything else."""
    held = itertools.count(1)

    def intercept(envelope):
        if envelope.src != A:
            return Verdict.passthrough()
        if verdict == "drop":
            return Verdict.drop()
        if verdict == "hold":
            return Verdict.hold(f"h:{next(held)}")
        if verdict == "rewrite":
            return Verdict.rewrite([Delivery(envelope.dst, envelope.payload,
                                             extra_delay=0.0007)])
        return Verdict.passthrough()
    return intercept


def _apply_fault(emulator, fault):
    if fault == "loss":
        emulator.faults.set_path(ANY_PATH, PathFaults(
            loss=GilbertElliott(p_enter_bad=0.3, p_exit_bad=0.5)))
    elif fault == "corrupt":
        emulator.faults.set_path(path_key("replica0", "replica1"),
                                 PathFaults(corrupt_rate=0.5, jitter=0.0002))
    elif fault == "partition":
        emulator.topology.set_partition([["replica0", "client0"],
                                         ["replica1", "replica2"]])
    elif fault == "down":
        emulator.topology.set_link_down("replica0", "replica2")


def _observe(emulator):
    ports = []
    for host in emulator.hosts():
        port = emulator.port_stats(host)
        device = port.device
        ports.append((str(host), port.messages_in, port.messages_out,
                      port.packets_in, device._busy_until,
                      device.stats.enqueued, device.stats.processed,
                      device.stats.dropped_overflow,
                      port.reassembly.pending_messages()))
    return (emulator.stats.as_tuple(), ports)


def run_case(size, verdict, fault, frozen):
    """One case: a few messages each way, returning the observed record."""
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    log = []
    for host in HOSTS:
        emulator.register_host(host)
        emulator.set_receiver(host, lambda env: log.append(
            (kernel.now, env.msg_seq, str(env.src), str(env.dst),
             env.transport, env.payload)))
    emulator.set_interceptor(_interceptor(verdict))
    _apply_fault(emulator, fault)
    payload = bytes(range(256)) * (SIZES[size] // 256) + b"x" * (
        SIZES[size] % 256)

    def burst(tag):
        for i, (src, dst) in enumerate(((A, B), (A, C), (B, A), (C, B),
                                        (K, A), (A, A), (A, K))):
            emulator.transmit(src, dst, "udp" if i % 2 else "tcp",
                              tag + payload)

    burst(b"1")
    emulator.transmit(B, C, "udp", b"late" + payload, delay=0.0009)
    if frozen:
        kernel.schedule(0.0008, emulator.freeze)
        kernel.schedule(0.0008, burst, b"2")
        kernel.schedule(0.0031, emulator.resume_emulation)
    if verdict == "hold":
        kernel.schedule(0.0025, lambda: [emulator.release_held(tag)
                                         for tag in emulator.held_tags()])
    kernel.run_until(0.0012)
    mid = emulator.save_state()
    kernel.run_until(0.0013)
    burst(b"3")
    kernel.run_until(2.0)
    return (log, _observe(emulator), mid, emulator.held_tags())


def run_tcp_flow():
    """A TCP flow through the transport: the first message of each flow
    waits out a handshake, later ones do not, and the flow state saves."""
    kernel = SimKernel()
    emulator = NetworkEmulator(kernel, LanTopology())
    log = []
    transports = {}
    for host in HOSTS:
        emulator.register_host(host)
        transports[host] = HostTransport(emulator, host)
        emulator.set_receiver(host, lambda env: log.append(
            (kernel.now, env.msg_seq, str(env.src), str(env.dst),
             env.transport, env.payload)))
    for i in range(3):
        transports[A].send(B, b"flow%d" % i, transport=TCP)
        transports[K].send(B, b"k%d" % i * 800, transport=TCP)
    kernel.run_until(0.0015)
    mid = (emulator.save_state(), transports[A].save_state())
    transports[A].send(C, b"new flow", transport=TCP)
    kernel.run_until(1.0)
    return (log, _observe(emulator), mid)


def digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


CASES = list(itertools.product(SIZES, VERDICTS, FAULTS, (False, True)))


def case_id(case):
    size, verdict, fault, frozen = case
    return f"{size}frag-{verdict}-{fault}" + ("-frozen" if frozen else "")


#: ``digest(run_case(*case))`` per case, and of ``run_tcp_flow()``, as the
#: emulator of commit 4cc3218 produced them
PINNED = {
    "1frag-pass-none": "cf4756fb4d8055bbacc5a3f93da229fbb65d950dcf23f0a169725a53a34a6b43",
    "1frag-pass-none-frozen": "0d191f98c727970e97dea4a165e61d8397332cf68e55af3632bc43d714965d56",
    "1frag-pass-loss": "bff0c299b16b1ef7d388d40863fcf070923a6b7b7f656209b2d4c8e8f317546e",
    "1frag-pass-loss-frozen": "71e392b275115eabb2fbb27c1b983b1c4cd7f129516154e4b1dd1ef013fbe8e7",
    "1frag-pass-corrupt": "3beb342567cf2ff9a2b723a6fa0fac2e9881c1cd6df965d5e14e5a2c04b66c5f",
    "1frag-pass-corrupt-frozen": "5a034127725ef6e0631a90bc4c0a4bba819b98c7339032ded4829701345488f8",
    "1frag-pass-partition": "139999f5d8e16e409b7ee4235911620172e92713104c9e099399b029cc8f569a",
    "1frag-pass-partition-frozen": "1cd8572dc635a772744eb6d8cc570db1cb90e7b8f95aeae07b90c0c4ef3305f7",
    "1frag-pass-down": "cc655fcc2ecc8015dc8fb32ebdc3e874eff3bfadecb62e726e4550bcf26b84f8",
    "1frag-pass-down-frozen": "21bf106957b70f616297e593c328581373a991a14778484eabfd8d471bc659b0",
    "1frag-drop-none": "443520049377dcddcf16f8b1678b7b08f2cfc3cfc35d3047cb66b867ab830b6b",
    "1frag-drop-none-frozen": "408159958bedb5af818f7b475b47f8142080745be4a803ad328163b724585856",
    "1frag-drop-loss": "f4f5b01193b453dec3ad28d4ac9013394b62b04705bfce332e6a99a938da320b",
    "1frag-drop-loss-frozen": "3332b3c87e8112b11008820a3a1f6849fd65f868c3bea3badbd0e22fb348ef73",
    "1frag-drop-corrupt": "ea6546e32e98d08eb1876059f891d3337fdd58f4bd1f586e39175910f06903ea",
    "1frag-drop-corrupt-frozen": "286fcf2806f593398141585804a7bc82546a7560bf5061965dd3fb378b9adfeb",
    "1frag-drop-partition": "a9bd3460cb6ffa0040fdefb3ca6cd812c15db63d81934d9cd876f1aa35e6ce02",
    "1frag-drop-partition-frozen": "e56d720167b1b0ed15a6f66a3c8162516dbb51789ff64450ffab499574fd12aa",
    "1frag-drop-down": "0dcea162e15a950248ee2587ec8dca5297c6efd1066a1395a3a9500da4df42c0",
    "1frag-drop-down-frozen": "d649e288d93c67ed968296eb2d49fe62d8aac5450756b7a5525f1cd5eea0d20c",
    "1frag-hold-none": "72029b1501153c89152039a92c24d9a74ec10cef65e9794d7992a9534b46a609",
    "1frag-hold-none-frozen": "921d2d9d3ae26740ef14db9e94d49583ad84d70316252b32d802705ca3929841",
    "1frag-hold-loss": "9a7c002e5f00519aa9aa34b7f69d7553d0ca7d471a8216233d7a10697a20775d",
    "1frag-hold-loss-frozen": "7fcb3b3cf5c14b897fca25f13f439811b7bb5f5bdb2d0a26aae4d7830672b567",
    "1frag-hold-corrupt": "a9cd6513fd0acb1363571d5ed987c1669788f33d4533034ed3229e73567fffc4",
    "1frag-hold-corrupt-frozen": "4f249190b89a355aa39b876acc05e779a6d6d96da5c90760707c562dd6c300a1",
    "1frag-hold-partition": "17cd87eec4c4cc4a4200335a2ba4a44b6008856a1aa81e2eb7483994752cfe94",
    "1frag-hold-partition-frozen": "06e4093e49074961a39f26c6a695f22f001774823a336ee5b7d9922300ad5365",
    "1frag-hold-down": "94777612043b8de481f861931a3f433e0d2b1e28cfbd19308db7bcf0fb9746f9",
    "1frag-hold-down-frozen": "810bc82b9c5e0a0eb8250c4de166511efc2b0c043cbfa76e4aef9daff0888ca1",
    "1frag-rewrite-none": "8f82bf04fdb37e93766b4d064b6be5473139a969eec1d5dbbe3d2a2490ba2963",
    "1frag-rewrite-none-frozen": "2f9e872fc1b1844075728c2c9491cfdd4ed1ae7eacd7c7babf2e52cbe5806744",
    "1frag-rewrite-loss": "9fa309e5c71fde527c81b5ddfefe31687518603a0fadb6941b6953ba2c6beeaa",
    "1frag-rewrite-loss-frozen": "7b59f60136b73cb546cbe2a86c81fba638d8a40474eb4086be5ae9048c806155",
    "1frag-rewrite-corrupt": "42e5a0b842377d5180d8eba6dd6743bba41b3f351e45e58a519a8cd86387bab7",
    "1frag-rewrite-corrupt-frozen": "d56e7a1239947a4a0a415f7a00e45c823d54990c9d1b89c17bb17a0a71f0da92",
    "1frag-rewrite-partition": "ea016388971a9b70957062210d9139c937495c06f883b83bf717380a3e98c4a9",
    "1frag-rewrite-partition-frozen": "aa9df9453bcd3a88928d613fe335f6b7c8a7618ae4228bb38932e0b5f99c81eb",
    "1frag-rewrite-down": "f64ff9295d120292c35cf64f49d524529a1b73e55e7e6801ad92fc30e7aad113",
    "1frag-rewrite-down-frozen": "aac9b0c7d393dff41c7e9bf6665b9bd1df5c2adba621e6f2842ed3fcf376b357",
    "2frag-pass-none": "8c64209c3d21051e4c73dc601ae8be7b9d9c2f32c73bd90672e18c148457fe59",
    "2frag-pass-none-frozen": "96dfcb910c27952dee8e171bb5759e26c146fb8bc62dfe79c59e616f0df6aacf",
    "2frag-pass-loss": "f2468e908b03b5395104b675533220e58f04249462c1dd3d8cac862a0c0fff91",
    "2frag-pass-loss-frozen": "1890b8a9f45440b4f40ec02a72f0bc72197be598bcb1a1d81fcb1765ec18a8c8",
    "2frag-pass-corrupt": "a0b9df7d19bed53413db13f029fbf9fa437c20b1021aaf718e3b39667b5da803",
    "2frag-pass-corrupt-frozen": "d8901a2f808ed7625ea93c467f7ce61133ad7048f9c71096d326dae404220e43",
    "2frag-pass-partition": "b1e83c423a564cf772594a10f2ec557f5294810d8c081bd05579fce892f24e29",
    "2frag-pass-partition-frozen": "d4308a679217a466a4c355461a20eac2f2b4b00cc8dd9f235e70980cbdcda34a",
    "2frag-pass-down": "3c257c21e6dde17214216d6ccee3ace969c9fc73d7420df98d3bab4f8802661e",
    "2frag-pass-down-frozen": "7b7702fc739003a3115fb76485e0b6e1504229cd39796462a9c795e5242a3435",
    "2frag-drop-none": "f0bea7a8987aed5c847c13780bf1c68de7f319851b1f6f36f77ad5b84e098c7e",
    "2frag-drop-none-frozen": "5e0a36d8324b7631417a0d89331bdabfe45467c560a25712c637f10ec49a0b6c",
    "2frag-drop-loss": "cd4715dfa416d9347096b5ebf7c4e4305d059fb692bb6f6345a6834285bb0be5",
    "2frag-drop-loss-frozen": "42b2b849eba47fed7bdff6112b020ce70f52fcb1f5a1071757472206d4257f7d",
    "2frag-drop-corrupt": "7bc7bdd08dd661d4a27a4a08562614ea15cf642e266b9c8352395c73f539577a",
    "2frag-drop-corrupt-frozen": "c096c8661d53b929a2b2db7f1c02018db6da05a7599422aded35b7978abda3ef",
    "2frag-drop-partition": "14456aab318ff9dd449aae4aa16856c47520a8e9d8c414a01c42a4b1d7b4a007",
    "2frag-drop-partition-frozen": "96fa62a5b53e9bf5cbbd50905dc2bd2185c97f1ba40cfd1dc126d90441fbacbf",
    "2frag-drop-down": "d9aace94ec19743e9a48ca78ace1ad8e652a24df5de4f2a418865da900a0788e",
    "2frag-drop-down-frozen": "571a8d114b0ce5b33da433cb0ba83af3bf85c924bec4ab963160f339f32a86f2",
    "2frag-hold-none": "22dcab81aaf633bf57ec53446c9f8d8e8d83ce097df0c925c8e9d108b26e5509",
    "2frag-hold-none-frozen": "30044095ab4203f6297665d4f3a85a390e7eca48221095319368256479603b88",
    "2frag-hold-loss": "0dc0af3605af3fbe7bc2d1e51c5a469484f682643612341dd0ad813fbc5ec50b",
    "2frag-hold-loss-frozen": "22c7b2f5d2b57452656fc61bf53cbc2a3c8c66d73ea472be6c938a94ec5642a5",
    "2frag-hold-corrupt": "1758ca89a7dd07edfaaf5ddd516a2916641d7b5e8d32290e7dee2e8377fc733e",
    "2frag-hold-corrupt-frozen": "e7af076e17be5cc979f0f528f0324764a6453cd06f939974b803267b45b4ac58",
    "2frag-hold-partition": "d2be3a5da615e9b7f1b68f46d595689001aefc5adbcc89ede6363473658db725",
    "2frag-hold-partition-frozen": "51fffd6c58b3d838067937d2f22199e152822b610ddd0d5dfae00cd8ae8a9487",
    "2frag-hold-down": "8b4c0c44717d2c9835ab18ab29b999b4719f5897c440077b598ba4edd2029df9",
    "2frag-hold-down-frozen": "2fc7e338dec114575ea3bd2687cc249d02e4a34042e4a39bf992a743453bd58d",
    "2frag-rewrite-none": "6f04e1ce488b7f6bb1238448ef09d845c11b101890569ceb44d2a027ad6f644c",
    "2frag-rewrite-none-frozen": "48e931369beae843409d32e9e533ea6d061b79327f559b919f584d7d5daa1e6a",
    "2frag-rewrite-loss": "61926366e7352c2e8fe137eb9c088606167389d1d04cb945f5ae5f289210ab6e",
    "2frag-rewrite-loss-frozen": "6a6d32f72b8ef1227e9e67de8b1f54b37e86fe14d94f28f55c59847c83e1317b",
    "2frag-rewrite-corrupt": "4de69bdb49255f57c0555ab89a021b5521de02cd212019c46dcb87f8987a2e5f",
    "2frag-rewrite-corrupt-frozen": "7df7e965d1896f92476578f7ad06680cfdfa87e796798847d677bd0427a0635d",
    "2frag-rewrite-partition": "af1b6218597f238bd865f1f0141cdf4886bfbd84bb0af5b21b7f822db006da3e",
    "2frag-rewrite-partition-frozen": "82445a91b53d1224dcff08106412c526a0d8c94ced8d00a0cc2b23c0774641a7",
    "2frag-rewrite-down": "e78fc37f76669f51da3e823d7be629717725bc02dfed0477628f4cd620dd1d09",
    "2frag-rewrite-down-frozen": "4ae0edbb5604d7943b968085e0610d26e77156c0d1306a43401db37e982128e3",
    "3frag-pass-none": "770039ff6fc2f15339ee58ce8bdab5e0321165aa297befc42424b1ccd1ea5273",
    "3frag-pass-none-frozen": "3e237624c21f50781434a94d8b7bca2443a19ab340cc0404ba818882ab862b90",
    "3frag-pass-loss": "b3d6afb4ee51c0f05b8c7821688c50f8854b6f4b526f2a855459f078aca889f4",
    "3frag-pass-loss-frozen": "9ac599cb1a91d6a9707d99b6dd91f80d4b01a97670e2af357b4da2b930f3d66b",
    "3frag-pass-corrupt": "2141f8b9a3fc966f36982aeca7faa5b311e79e2aff382a81f290e8b89ead357d",
    "3frag-pass-corrupt-frozen": "4a927014127676f0b28f6c1c411a1cd3f4e756a8a412405dc7f99a28945d276c",
    "3frag-pass-partition": "57c38b113ebdfe1bba930c0c26be8dc364572b21652f5e9c21ec18b1ebce15f5",
    "3frag-pass-partition-frozen": "b47f079353a99ce2c23d747600b955be7c075eec4620cf6910cd99c8f51e78a4",
    "3frag-pass-down": "f702b174e070c0654da289a17edf13466f75c454998c1f651f788926ce5ecd14",
    "3frag-pass-down-frozen": "950e3b3ea4c316a11f4e61cf5adf3d85435e9b584cbd4d6f7b20aed5e1abb075",
    "3frag-drop-none": "b5244b78974f7a8ef50d7f30797604bb6cfef45ef2c06cf907e2c5ede4534069",
    "3frag-drop-none-frozen": "62ee96f72caa0e19483f671fef59f83b5385b41c634c4f93fbf457a31e4299c2",
    "3frag-drop-loss": "fc24f6a1a3e959736ca7e0ea185b1d11593898aceaf7e39581f3c658558b322a",
    "3frag-drop-loss-frozen": "66fa3480a01d5bfbee76dd718de3d8edc13e6ff71c187b9535c793d6f14655b6",
    "3frag-drop-corrupt": "34c60d7026bb63d82c59b07e0e8356459dd46d07b31e873c01a59a6d1c07091d",
    "3frag-drop-corrupt-frozen": "b73082e153ad635c92528297e96f5fc4ccdc9d900eca58fbfacf6be079738203",
    "3frag-drop-partition": "4a95be83ce2c6f09338b50243588d3c9733ac9d91725bffe541072f45953bc98",
    "3frag-drop-partition-frozen": "3f1463df421533caf5b81729be017a740d659c75fc6d89cc40ad6257be624750",
    "3frag-drop-down": "90b03a7df1fcde36131ad240930c91c5482f64dbed1a92d2869bffcaa586b770",
    "3frag-drop-down-frozen": "5af6efd186b28d81e8a120da6d3e7c28ed23f2e7608d158129fb61d95fb23c59",
    "3frag-hold-none": "3cf55dd8bbcd328bbfc15402f9b597d5bcdb50c53f9a374fc3ea2c529b70ce5b",
    "3frag-hold-none-frozen": "2bdf1e5327a135e59c9f4a40c445e735c0d702cb4f0c87ca9ccc8bcd4a437d72",
    "3frag-hold-loss": "f22a334c8c9caa46eda5f156cc6cf665c88fa8e77ffe7fa3a3c017363c369f75",
    "3frag-hold-loss-frozen": "c227e20371a9b0b3348da8c8c599b5690f710a0a0f2b605606a2b1151235485e",
    "3frag-hold-corrupt": "be316e5dd509f5ef595278699667edea3a43da9df55c5769ac04ba2966536b11",
    "3frag-hold-corrupt-frozen": "d17b999cdd162b3365489aed37f68c8bc8aa84b7ab985f9f7f35f16dcd55484e",
    "3frag-hold-partition": "8116fd68b51d9690deeb5e57bab1666dcba552f9d93ef32f17c6d6e459b597f2",
    "3frag-hold-partition-frozen": "de39acdd3b308f6225e83b2c1c46fd4bd74973deec3a9a732fa52b85ea5ad57a",
    "3frag-hold-down": "f7d5e6c1d0d4c88f1e07ba46deba8e1d5542b6c05af14424c2ef823b2e41bfcf",
    "3frag-hold-down-frozen": "7b84cd93fa023ce3e818fae6e93a4e865ef9c0830417d4624c1f207336d1d4d0",
    "3frag-rewrite-none": "e6e43e951a05cc0fec69d91abf78e7223dae182789d3bc2094a453ab8e0f4aa4",
    "3frag-rewrite-none-frozen": "3add63e83357c1807abbba1398b7b78288a3ead2e504a1e0694d642d6862b677",
    "3frag-rewrite-loss": "40aae238501a00de5c06363740d6f0885220a5598df8c6248b93ceae66cc8009",
    "3frag-rewrite-loss-frozen": "30c9614fe4697a601f9fe94df1b6c0c47dc0e80ec2410f95f4d4b242d0934469",
    "3frag-rewrite-corrupt": "c2b576a006acba5131227497949862987ffcb1fdebf6345302227f46fb3cc372",
    "3frag-rewrite-corrupt-frozen": "416d2648569491b0e95dac327fdbeb73bcae95047126535acdf19dca09df90ea",
    "3frag-rewrite-partition": "954601cd44d982501cb999952cf39f302344380a9820a83256d71211a5b97889",
    "3frag-rewrite-partition-frozen": "6779f104d8e3b2c6a635a3bb55063e7d4527fc417bbb51132b6545f7bea3734d",
    "3frag-rewrite-down": "246174ee5e4985636290ae8973d18faa5284462d29c94917f4bbbf602b51648f",
    "3frag-rewrite-down-frozen": "1c249c3cbfcb3409a94754ab8297935e455546497465822e7cf3910da256ab25",
}
TCP_FLOW = (
    "cfa1e3d33cda56283899a24dab651b33a16d2f6c5bfbb99129ceabf3cc74348a")


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_hop_case_is_pinned(case):
    assert digest(run_case(*case)) == PINNED[case_id(case)]


def test_tcp_flow_is_pinned():
    assert digest(run_tcp_flow()) == TCP_FLOW


def test_cases_cover_every_branch():
    """The table is not vacuous: across it, every verdict, fault and
    fragment count shows up in the observed counters."""
    seen = {case_id(c): run_case(*c) for c in CASES
            if c[0] in (1, 3) and not c[3]}
    stats = {name: record[1][0] for name, record in seen.items()}
    assert stats["1frag-drop-none"][2] > 0            # proxy drops
    assert stats["3frag-pass-loss"][6] > 0            # bursty loss
    assert stats["3frag-pass-corrupt"][7] > 0         # corruption
    assert stats["1frag-pass-down"][8] > 0            # link down
    assert stats["1frag-pass-partition"][9] > 0       # partition
    assert not seen["1frag-hold-none"][3]             # holds all released
    assert any(entry[2] == "replica0" for entry
               in seen["3frag-rewrite-none"][0])      # rewrites delivered
    mids = [record[2] for record in seen.values()]
    assert any(m["reassembly"]["replica1"] for m in mids)   # mid-reassembly


class TestDuplicatedLargeMessage:
    """A rewrite that duplicates a message larger than one MTU: the copies
    share a ``msg_seq``, and both must reassemble and arrive."""

    @staticmethod
    def duplicating_emulator():
        kernel = SimKernel()
        emulator = NetworkEmulator(kernel, LanTopology())
        got = []
        for host in (A, B):
            emulator.register_host(host)
            emulator.set_receiver(host, lambda env: got.append(
                (env.msg_seq, env.payload)))
        emulator.set_interceptor(lambda env: Verdict.rewrite(
            [Delivery(env.dst, env.payload),
             Delivery(env.dst, env.payload, extra_delay=0.00002)]))
        return kernel, emulator, got

    def test_both_copies_are_delivered(self):
        kernel, emulator, got = self.duplicating_emulator()
        payload = bytes(range(200)) * 20          # 4,000 bytes: 3 fragments
        seq = emulator.transmit(A, B, "udp", payload)
        kernel.run_until(1.0)
        assert got == [(seq, payload), (seq, payload)]
        assert emulator.port_stats(B).reassembly.pending_messages() == 0

    def test_save_load_mid_reassembly_round_trips(self):
        kernel, emulator, got = self.duplicating_emulator()
        payload = b"d" * 4000
        seq = emulator.transmit(A, B, "udp", payload)
        kernel.run_until(0.00111)    # the last fragment of each
        reassembly = emulator.port_stats(B).reassembly
        assert reassembly.pending_messages() == 2
        state = emulator.save_state()
        assert [entry[0] for entry in state["reassembly"]["replica1"]] == [
            seq, seq]
        other_kernel, other, other_got = self.duplicating_emulator()
        other_kernel.load_state(kernel.save_state())
        other.load_state(state)
        assert repr(other.save_state()) == repr(state)
        kernel.run_until(1.0)
        other_kernel.run_until(1.0)
        assert other_got == got == [(seq, payload), (seq, payload)]
