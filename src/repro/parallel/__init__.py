"""Parallel hunt execution: split into steps, record, replay the serial
walk."""

from repro.parallel.executor import ScenarioExecutor
from repro.parallel.health import (HealthMonitor, HealthPolicy, WorkerHealth,
                                   WorkerHealthReport)
from repro.parallel.recording import (RecordingLedger, RecordingSupervisor,
                                      StepRecorder, StepTrace)
from repro.parallel.worker import WorkerProber

__all__ = [
    "ScenarioExecutor",
    "HealthMonitor",
    "HealthPolicy",
    "WorkerHealth",
    "WorkerHealthReport",
    "WorkerProber",
    "RecordingLedger",
    "RecordingSupervisor",
    "StepRecorder",
    "StepTrace",
]
