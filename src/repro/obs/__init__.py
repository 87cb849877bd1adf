"""Observability layer: traces, metrics history, profiling, SLOs, logs.

The explainability half (PR 7): :mod:`repro.obs.trace` threads a
per-request trace context from the HTTP edge down to worker processes and
back, :mod:`repro.obs.prometheus` renders ``Telemetry.snapshot()`` as text
exposition, and :mod:`repro.obs.logging` emits the opt-in structured log
stream correlated by trace id.

The monitoring half (continuous): :mod:`repro.obs.timeseries` keeps
fixed-memory windowed history of every serving signal,
:mod:`repro.obs.sysmon` samples CPU/RSS/loop-lag on a cadence,
:mod:`repro.obs.slo` evaluates declarative objectives as multi-window burn
rates (and owns :func:`~repro.obs.slo.fire_contained`, the one containment
idiom for user callbacks), and :mod:`repro.obs.profiler` answers "where
does the time go" with collapsed-stack flame graphs on demand.
"""

from repro.obs.logging import (
    JsonFormatter,
    disable_json_logging,
    enable_json_logging,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    parse_exposition_line,
    render_prometheus,
)
from repro.obs.slo import Objective, SloMonitor, fire_contained
from repro.obs.sysmon import SystemMonitor, attach_monitor
from repro.obs.timeseries import RingSeries, TimeSeriesStore
from repro.obs.trace import (
    STAGE_ADMISSION_WAIT,
    STAGE_COLLECT,
    STAGE_EDGE_PARSE,
    STAGE_ERROR,
    STAGE_IPC_BACK,
    STAGE_IPC_OUT,
    STAGE_QUEUE_WAIT,
    STAGE_WORKER_LOAD,
    STAGE_WORKER_PREDICT,
    STAGES,
    Span,
    Trace,
    WorkerStamps,
    apply_worker_stamps,
    new_trace_id,
)

__all__ = [
    "JsonFormatter",
    "disable_json_logging",
    "enable_json_logging",
    "SamplingProfiler",
    "PROMETHEUS_CONTENT_TYPE",
    "parse_exposition_line",
    "render_prometheus",
    "Objective",
    "SloMonitor",
    "fire_contained",
    "SystemMonitor",
    "attach_monitor",
    "RingSeries",
    "TimeSeriesStore",
    "STAGE_ADMISSION_WAIT",
    "STAGE_COLLECT",
    "STAGE_EDGE_PARSE",
    "STAGE_ERROR",
    "STAGE_IPC_BACK",
    "STAGE_IPC_OUT",
    "STAGE_QUEUE_WAIT",
    "STAGE_WORKER_LOAD",
    "STAGE_WORKER_PREDICT",
    "STAGES",
    "Span",
    "Trace",
    "WorkerStamps",
    "apply_worker_stamps",
    "new_trace_id",
]
