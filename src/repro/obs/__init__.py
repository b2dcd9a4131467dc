"""repro.obs — unified observability: span tracing, metrics, Perfetto
export, critical-path profiling, dependence provenance, and the
analysis-state census.

One subsystem replaces three silos (`CostMeter`, `PhaseProfile`,
`RecoveryReport` keep their APIs but publish into the shared
:class:`MetricsRegistry`), adds the event timeline they lacked, answers
"what was the critical path of this run?" offline from a trace file
alone, and — via :mod:`repro.obs.provenance` / :mod:`repro.obs.census` —
explains *why* every dependence edge exists and censuses the live
analysis structures behind the paper's evaluation figures.
"""

# note: the ``census`` *function* is aliased ``take_census`` here so the
# ``repro.obs.census`` submodule attribute is not shadowed
from repro.obs.census import (CENSUS_SCHEMA, census_diff, publish_census,
                              render_census, validate_census)
from repro.obs.census import census as take_census
from repro.obs.critpath import CritPathReport, critical_path, deps_from_spans
from repro.obs.export import (load_trace, telemetry_counter_events,
                              telemetry_trace, to_chrome_trace,
                              trace_events, validate_trace, write_trace)
from repro.obs.flight import (BLACKBOX_SCHEMA, FlightRecorder,
                              active_recorder, blackbox_spans,
                              load_blackbox, render_blackbox,
                              set_recorder, validate_blackbox)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               DEFAULT_BUCKETS)
from repro.obs.provenance import (AccessRecord, EdgeWitness, PruneRecord,
                                  ProvenanceLedger, active_ledger,
                                  explain_task, set_ledger)
from repro.obs.slo import (SloEvaluator, SloSpec, SloStatus,
                           default_service_slos)
from repro.obs.telemetry import (TELEMETRY_SCHEMA, QuantileDigest,
                                 TelemetryHub, TelemetrySample,
                                 TelemetrySink, load_telemetry,
                                 parse_full_name, validate_telemetry)
from repro.obs.top import render_top, run_top
from repro.obs.tracer import (DRIVER_PID, CounterSample, Instant, Span,
                              TraceBuffer, Tracer, active_tracer, counter,
                              instant, set_tracer, span, traced)

__all__ = [
    "CENSUS_SCHEMA", "take_census", "census_diff", "publish_census",
    "render_census", "validate_census",
    "CritPathReport", "critical_path", "deps_from_spans",
    "load_trace", "telemetry_counter_events", "telemetry_trace",
    "to_chrome_trace", "trace_events", "validate_trace", "write_trace",
    "BLACKBOX_SCHEMA", "FlightRecorder", "active_recorder",
    "blackbox_spans", "load_blackbox", "render_blackbox", "set_recorder",
    "validate_blackbox",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "AccessRecord", "EdgeWitness", "PruneRecord", "ProvenanceLedger",
    "active_ledger", "explain_task", "set_ledger",
    "SloEvaluator", "SloSpec", "SloStatus", "default_service_slos",
    "TELEMETRY_SCHEMA", "QuantileDigest", "TelemetryHub",
    "TelemetrySample", "TelemetrySink", "load_telemetry",
    "parse_full_name", "validate_telemetry",
    "render_top", "run_top",
    "DRIVER_PID", "CounterSample", "Instant", "Span", "TraceBuffer",
    "Tracer", "active_tracer", "counter", "instant", "set_tracer", "span",
    "traced",
]
