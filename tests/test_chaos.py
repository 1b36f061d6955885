"""The one ``REPRO_CHAOS`` spec: site matching, fire-once flags, validation.

The faults themselves (real SIGKILLs, hangs, torn appends) are exercised
end to end by ``tests/test_parallel_health.py`` and
``tests/test_store_durability.py``; this pins the parser they share.
"""

import pytest

from repro.common import chaos
from repro.common.errors import ConfigError


def test_a_fault_fires_at_its_site_and_target_once(tmp_path, monkeypatch):
    flag = tmp_path / "fired"
    monkeypatch.setenv("REPRO_CHAOS", f"journal.append:crash:3:{flag}")
    assert chaos.fault("worker.step", 3) is None  # another site
    assert chaos.fault("journal.append", 2) is None  # another hit
    fault = chaos.fault("journal.append", 3)
    assert (fault.mode, flag.exists()) == ("crash", True)
    assert chaos.fault("journal.append", 3) is None  # disarmed


def test_any_worker_and_every_time(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "worker.step:hang:*::2.5")
    for worker in (0, 1, 0):
        fault = chaos.fault("worker.step", worker)
        assert (fault.mode, fault.seconds) == ("hang", 2.5)


def test_no_spec_no_fault(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert chaos.fault("checkpoint.write", 1) is None


@pytest.mark.parametrize("spec", [
    "crash:3:flag",                      # the retired per-layer spelling
    "journal.append:kill:3:flag",        # a mode of another site
    "disk.write:torn:1:flag",            # no such site
    "worker.step:hang:1:flag:soon",      # seconds not a number
])
def test_malformed_spec_is_a_config_error(spec, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", spec)
    with pytest.raises(ConfigError, match="REPRO_CHAOS"):
        chaos.fault("journal.append", 1)
