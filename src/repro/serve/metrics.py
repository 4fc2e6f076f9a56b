"""Service-level metrics of the verification daemon.

Mirrors the counter/gauge discipline of :mod:`repro.obs.sinks`: one
plain in-memory accumulator, rendered to the Prometheus text format
under the ``repro_serve_*`` prefix by the one renderer there, from the
family declarations below.  The daemon exposes the text
form at ``GET /metrics`` and the raw dict in ``/readyz`` payloads and
the smoke-test artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.sinks import Family, render_prometheus


@dataclass
class ServeMetrics:
    """Counters and gauges of one daemon process (monotonic unless noted)."""

    submissions_total: int = 0
    #: Accepted jobs by terminal/queued state transition.
    jobs_queued_total: int = 0
    jobs_started_total: int = 0
    jobs_done_total: int = 0
    jobs_failed_total: int = 0
    #: Explicit load-shed rejections by machine-readable reason.
    rejections: dict[str, int] = field(default_factory=dict)
    #: Crash retries re-enqueued by the supervisor loop.
    retries_total: int = 0
    #: Jobs re-enqueued from the journal after a daemon restart.
    recovered_jobs_total: int = 0
    breaker_trips_total: int = 0
    classes_checked_total: int = 0
    job_seconds_total: float = 0.0
    #: Completed (done or failed) jobs per tenant — the fairness signal.
    tenant_completed: dict[str, int] = field(default_factory=dict)
    journal_write_failures: int = 0
    journal_corrupt_entries: int = 0

    # Gauges (sampled at render time, not monotonic).
    queue_depth: int = 0
    inflight: int = 0
    draining: bool = False
    breaker_state: str = "closed"
    uptime_seconds: float = 0.0

    def reject(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def tenant_done(self, tenant: str) -> None:
        self.tenant_completed[tenant] = self.tenant_completed.get(tenant, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "submissions_total": self.submissions_total,
            "jobs_queued_total": self.jobs_queued_total,
            "jobs_started_total": self.jobs_started_total,
            "jobs_done_total": self.jobs_done_total,
            "jobs_failed_total": self.jobs_failed_total,
            "rejections_total": dict(sorted(self.rejections.items())),
            "retries_total": self.retries_total,
            "recovered_jobs_total": self.recovered_jobs_total,
            "breaker_trips_total": self.breaker_trips_total,
            "classes_checked_total": self.classes_checked_total,
            "job_seconds_total": round(self.job_seconds_total, 6),
            "tenant_completed_total": dict(sorted(self.tenant_completed.items())),
            "journal_write_failures": self.journal_write_failures,
            "journal_corrupt_entries": self.journal_corrupt_entries,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "draining": self.draining,
            "breaker_state": self.breaker_state,
            "uptime_seconds": round(self.uptime_seconds, 3),
        }


_BREAKER_STATES = ("closed", "open", "half-open")

#: The daemon's families, read from :meth:`ServeMetrics.to_dict` as
#: :func:`serve_prometheus_text` prepares it.
SERVE_FAMILIES = (
    Family(
        "jobs_total", "counter", "Job lifecycle transitions by state.",
        section=(), label="state",
        keys={state: f"jobs_{state}_total" for state in ("queued", "started", "done", "failed")},
    ),
    Family("submissions_total", "counter", "Submission attempts, accepted or shed."),
    Family(
        "rejections_total", "counter", "Explicitly shed submissions by reason.",
        label="reason",
    ),
    Family("retries_total", "counter", "Jobs re-enqueued after a worker crash."),
    Family(
        "recovered_jobs_total", "counter",
        "Jobs re-enqueued from the journal after a restart.",
    ),
    Family("breaker_trips_total", "counter", "Circuit-breaker open transitions."),
    Family(
        "classes_checked_total", "counter",
        "Classes verified across all completed jobs.",
    ),
    Family(
        "job_seconds_total", "counter",
        "Execution wall time across all completed jobs.",
    ),
    Family(
        "tenant_completed_total", "counter",
        "Completed (done or failed) jobs per tenant.",
        label="tenant",
    ),
    Family(
        "journal_events_total", "counter", "Journal degradation events by kind.",
        section=(), label="kind",
        keys={kind: f"journal_{kind}" for kind in ("write_failures", "corrupt_entries")},
    ),
    Family("queue_depth", "gauge", "Jobs currently queued for dispatch."),
    Family("inflight", "gauge", "Jobs currently executing."),
    Family("draining", "gauge", "1 while the daemon is draining for shutdown."),
    Family(
        "breaker_state", "gauge",
        "Circuit-breaker state (1 on the active state's label).",
        label="state", keys={state: state for state in _BREAKER_STATES},
    ),
    Family("uptime_seconds", "gauge", "Seconds since the daemon started."),
)


def serve_prometheus_text(metrics: ServeMetrics, prefix: str = "repro_serve") -> str:
    """Render the daemon metrics in Prometheus text format (0.0.4)."""
    payload = metrics.to_dict()
    # Prometheus samples are numbers: the draining flag becomes 0/1 and
    # the breaker state one 0/1 sample per state.  A labelled family with
    # nothing counted yet still shows one "none" row.
    payload.update(
        draining=int(metrics.draining),
        breaker_state={
            state: int(metrics.breaker_state == state) for state in _BREAKER_STATES
        },
        rejections_total=payload["rejections_total"] or {"none": 0},
        tenant_completed_total=payload["tenant_completed_total"] or {"none": 0},
    )
    return render_prometheus(SERVE_FAMILIES, payload, prefix)
