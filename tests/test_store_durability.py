"""Kill -9 durability: SIGKILLed hunts resume to byte-identical reports.

Each test runs the real CLI in a subprocess with ``REPRO_CHAOS`` armed at
a journal append or a checkpoint write, verifies the process dies by SIGKILL mid-hunt, then re-runs with
the same ``--store`` directory and asserts the resumed run's ``--json``
output is byte-for-byte equal to an uninterrupted reference run.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HUNT_ARGS = ["hunt", "pbft", "--types", "PrePrepare", "--seed", "3",
             "--fast", "--no-lying", "--warmup", "1", "--window", "2",
             "--passes", "2", "--max-wait", "5", "--allow-empty"]


def hunt_env(chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    return env


class HuntProc:
    def __init__(self, returncode, stdout, stderr):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def run_hunt(extra, chaos=None, timeout=240):
    """Run the CLI in its own process group, capturing output to files.

    Files never block on a writer that outlives the hunt, and killing the
    process group afterwards reaps whatever is left of it.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + HUNT_ARGS + extra,
            stdout=out, stderr=err, env=hunt_env(chaos), cwd=REPO,
            start_new_session=True)
        try:
            returncode = proc.wait(timeout=timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        out.seek(0)
        err.seek(0)
        return HuntProc(returncode, out.read().decode(),
                        err.read().decode())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run; its JSON bytes are the identity oracle."""
    path = tmp_path_factory.mktemp("reference") / "ref.json"
    proc = run_hunt(["--json", str(path)])
    assert proc.returncode == 0, proc.stderr
    return path.read_bytes()


def assert_sigkilled(proc, flag):
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got rc={proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    assert os.path.exists(flag), "chaos hook never fired"


class TestKillResume:
    def test_crash_mid_hunt_resumes_byte_identical(self, tmp_path,
                                                   reference):
        store, flag = str(tmp_path / "store"), str(tmp_path / "fired")
        killed = run_hunt(["--store", store], chaos=f"journal.append:crash:3:{flag}")
        assert_sigkilled(killed, flag)
        assert os.path.exists(os.path.join(store, "journal.jsonl"))

        out = tmp_path / "out.json"
        resumed = run_hunt(["--store", store, "--json", str(out)])
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == reference
        assert "store:" in resumed.stdout  # side channel, not in the JSON

    def test_torn_journal_tail_truncated_and_resumed(self, tmp_path,
                                                     reference):
        store, flag = str(tmp_path / "store"), str(tmp_path / "fired")
        killed = run_hunt(["--store", store], chaos=f"journal.append:torn:3:{flag}")
        assert_sigkilled(killed, flag)

        out = tmp_path / "out.json"
        resumed = run_hunt(["--store", store, "--json", str(out)])
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == reference
        assert "torn bytes dropped" in resumed.stdout

    def test_corrupt_checkpoint_falls_back_a_generation(self, tmp_path,
                                                        reference):
        store, flag = str(tmp_path / "store"), str(tmp_path / "fired")
        killed = run_hunt(["--store", store], chaos=f"checkpoint.write:torn:2:{flag}")
        assert_sigkilled(killed, flag)

        out = tmp_path / "out.json"
        resumed = run_hunt(["--store", store, "--json", str(out)])
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == reference
        assert "checkpoint fallbacks" in resumed.stdout

    def test_crash_resume_with_workers(self, tmp_path, reference):
        store, flag = str(tmp_path / "store"), str(tmp_path / "fired")
        killed = run_hunt(["--store", store, "--workers", "2"],
                          chaos=f"journal.append:crash:4:{flag}")
        assert_sigkilled(killed, flag)

        out = tmp_path / "out.json"
        resumed = run_hunt(["--store", store, "--workers", "2",
                            "--json", str(out)])
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == reference

    def test_resumed_store_json_is_valid(self, tmp_path, reference):
        # The journal itself stays parseable after recovery: every line
        # decodes, and the resumed store dir keeps at most two checkpoint
        # generations.
        from repro.store.journal import decode_line
        from repro.store.runstore import KEPT_GENERATIONS

        store, flag = str(tmp_path / "store"), str(tmp_path / "fired")
        run_hunt(["--store", store], chaos=f"journal.append:torn:4:{flag}")
        resumed = run_hunt(["--store", store])
        assert resumed.returncode == 0, resumed.stderr

        with open(os.path.join(store, "journal.jsonl"), "rb") as fh:
            lines = fh.read().splitlines()
        assert lines and all(decode_line(line) is not None
                             for line in lines)
        generations = [name for name in os.listdir(store)
                       if name.startswith("checkpoint-")]
        assert 1 <= len(generations) <= KEPT_GENERATIONS
        newest = sorted(generations)[-1]
        with open(os.path.join(store, newest)) as fh:
            envelope = json.load(fh)
        assert envelope["checkpoint"]["written_at_pass"] == 2


def live_members(session):
    """Pids in process session ``session`` that are not zombies."""
    members = set()
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # a process that just exited
        if fields[0] != "Z" and int(fields[3]) == session:
            members.add(int(name))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_killed_pool_leaves_no_workers(tmp_path):
    """A ``--workers 2 --store`` hunt SIGKILLed at a journal append takes its
    forked workers with it: each closed the parent ends of the pool's pipes
    that fork copied in, so the parent's death is EOF on every pipe a
    worker reads."""
    flag = str(tmp_path / "fired")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + HUNT_ARGS
        + ["--workers", "2", "--store", str(tmp_path / "store")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=hunt_env(f"journal.append:crash:4:{flag}"), cwd=REPO,
        start_new_session=True)
    workers = set()
    try:
        deadline = time.monotonic() + 240
        # (the second worker lives only ~30 ms before the 4th append kills
        # the hunt, so the poll must be much finer than that)
        while proc.poll() is None and time.monotonic() < deadline:
            workers |= live_members(proc.pid) - {proc.pid}
            time.sleep(0.002)
        assert proc.wait(timeout=1) == -signal.SIGKILL
        assert len(workers) == 2, workers
        deadline = time.monotonic() + 10
        while workers & live_members(proc.pid) \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not workers & live_members(proc.pid), "orphaned workers"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
