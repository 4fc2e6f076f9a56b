"""Golden outputs of every run-metric renderer, pinned byte for byte.

Each counter group (cache, supervisor, incremental, store, remote) is
set to a distinct nonzero value, so a counter that a renderer drops,
duplicates or reads from the wrong field changes the bytes.  The same
for the daemon's exposition, once populated and once empty, and for the
shard wire format's round trip through a merge.
"""

import json

from repro.engine import (
    merge_shard_results,
    plan_shards,
    run_shard,
    shard_result_from_dict,
    shard_result_to_dict,
)
from repro.engine.metrics import ClassTiming, EngineMetrics
from repro.frontend.parse import parse_module
from repro.obs import Tracer, metrics_payload, prometheus_text
from repro.serve.metrics import ServeMetrics, serve_prometheus_text
from repro.workloads.hierarchy import HierarchyShape, project_source


def _engine_metrics(**overrides) -> EngineMetrics:
    fields = dict(
        classes=4, waves=2, jobs=3, executor="process", wall_seconds=1.5,
        class_hits=1, class_misses=2, method_hits=3, method_misses=4,
        cache_writes=5,
        timings=(
            ClassTiming("Alpha", 0.25, False, 0),
            ClassTiming("Beta", 0.5, True, 0),
            ClassTiming("Gamma", 0.125, False, 1, quarantined=True),
            ClassTiming("Delta", 0.0, False, 1, from_state=True),
        ),
        corrupt_entries=6, retries=7, quarantines=8, budget_trips=9,
        timeouts=10, pool_restarts=11,
        incremental=True, reused_verdicts=1, dirty_classes=3,
        checksum_failures=12, write_failures=13, lock_waits=14,
        lock_wait_seconds=0.375, lock_timeouts=15, orphans_removed=16,
        state_save_failures=17, state_merged_entries=18, state_generation=19,
        remote_hits=20, remote_misses=21, remote_puts=22, remote_errors=23,
        remote_degraded=24,
    )
    fields.update(overrides)
    return EngineMetrics(**fields)


def _phase_tracer() -> Tracer:
    tracer = Tracer(clock=iter(range(100)).__next__)
    with tracer.span("run", "run") as run:
        span = run.child("class", "Alpha", seconds=0.5)
        span.child("phase", "infer", seconds=0.25)
        span.child("phase", "claims", seconds=0.125)
        span.child("phase", 'odd"phase\\', seconds=0.0625, status="skipped")
    return tracer


ENGINE_PROMETHEUS = r"""# HELP repro_classes Classes in the verified module.
# TYPE repro_classes gauge
repro_classes 4
# HELP repro_waves Topological waves in the schedule.
# TYPE repro_waves gauge
repro_waves 2
# HELP repro_jobs Configured worker count.
# TYPE repro_jobs gauge
repro_jobs 3
# HELP repro_wall_seconds Wall time of the run in seconds.
# TYPE repro_wall_seconds gauge
repro_wall_seconds 1.5
# HELP repro_cache_events_total Cache events by kind.
# TYPE repro_cache_events_total counter
repro_cache_events_total{kind="class_hits"} 1
repro_cache_events_total{kind="class_misses"} 2
repro_cache_events_total{kind="method_hits"} 3
repro_cache_events_total{kind="method_misses"} 4
repro_cache_events_total{kind="writes"} 5
repro_cache_events_total{kind="corrupt_entries"} 6
# HELP repro_incremental_classes_total Incremental run outcome per class, by kind.
# TYPE repro_incremental_classes_total counter
repro_incremental_classes_total{kind="reused"} 1
repro_incremental_classes_total{kind="dirty"} 3
# HELP repro_incremental_reuse_ratio Fraction of class verdicts spliced from the project state.
# TYPE repro_incremental_reuse_ratio gauge
repro_incremental_reuse_ratio 0.25
# HELP repro_store_events_total Crash-safe store events by kind.
# TYPE repro_store_events_total counter
repro_store_events_total{kind="checksum_failures"} 12
repro_store_events_total{kind="write_failures"} 13
repro_store_events_total{kind="lock_waits"} 14
repro_store_events_total{kind="lock_timeouts"} 15
repro_store_events_total{kind="orphans_removed"} 16
repro_store_events_total{kind="state_save_failures"} 17
repro_store_events_total{kind="state_merged_entries"} 18
# HELP repro_store_lock_wait_seconds_total Total time spent waiting on store write locks.
# TYPE repro_store_lock_wait_seconds_total counter
repro_store_lock_wait_seconds_total 0.375
# HELP repro_store_state_generation Generation counter of the persisted project state.
# TYPE repro_store_state_generation gauge
repro_store_state_generation 19
# HELP repro_cache_remote_events_total Remote cache tier events by kind.
# TYPE repro_cache_remote_events_total counter
repro_cache_remote_events_total{kind="hits"} 20
repro_cache_remote_events_total{kind="misses"} 21
repro_cache_remote_events_total{kind="puts"} 22
repro_cache_remote_events_total{kind="errors"} 23
repro_cache_remote_events_total{kind="degraded"} 24
# HELP repro_supervisor_events_total Supervisor recovery events by kind.
# TYPE repro_supervisor_events_total counter
repro_supervisor_events_total{kind="retries"} 7
repro_supervisor_events_total{kind="quarantines"} 8
repro_supervisor_events_total{kind="budget_trips"} 9
repro_supervisor_events_total{kind="timeouts"} 10
repro_supervisor_events_total{kind="pool_restarts"} 11
# HELP repro_phase_seconds_total Wall time per pipeline phase in seconds.
# TYPE repro_phase_seconds_total counter
repro_phase_seconds_total{phase="claims"} 0.125
repro_phase_seconds_total{phase="infer"} 0.25
repro_phase_seconds_total{phase="odd\"phase\\"} 0.0625
# HELP repro_phase_calls_total Phase executions (including cached/skipped records).
# TYPE repro_phase_calls_total counter
repro_phase_calls_total{phase="claims"} 1
repro_phase_calls_total{phase="infer"} 1
repro_phase_calls_total{phase="odd\"phase\\"} 1
"""

ENGINE_DICT = {
    "classes": 4,
    "waves": 2,
    "jobs": 3,
    "executor": "process",
    "wall_seconds": 1.5,
    "cache": {
        "class_hits": 1,
        "class_misses": 2,
        "method_hits": 3,
        "method_misses": 4,
        "writes": 5,
        "corrupt_entries": 6,
    },
    "supervisor": {
        "retries": 7,
        "quarantines": 8,
        "budget_trips": 9,
        "timeouts": 10,
        "pool_restarts": 11,
    },
    "incremental": {"enabled": True, "reused": 1, "dirty": 3, "reuse_ratio": 0.25},
    "store": {
        "checksum_failures": 12,
        "write_failures": 13,
        "lock_waits": 14,
        "lock_wait_seconds": 0.375,
        "lock_timeouts": 15,
        "orphans_removed": 16,
        "state_save_failures": 17,
        "state_merged_entries": 18,
        "state_generation": 19,
    },
    "remote": {"hits": 20, "misses": 21, "puts": 22, "errors": 23, "degraded": 24},
    "per_class": [
        {"class": "Alpha", "seconds": 0.25, "from_cache": False, "wave": 0,
         "quarantined": False, "from_state": False},
        {"class": "Beta", "seconds": 0.5, "from_cache": True, "wave": 0,
         "quarantined": False, "from_state": False},
        {"class": "Delta", "seconds": 0.0, "from_cache": False, "wave": 1,
         "quarantined": False, "from_state": True},
        {"class": "Gamma", "seconds": 0.125, "from_cache": False, "wave": 1,
         "quarantined": True, "from_state": False},
    ],
}

ENGINE_FORMAT = """engine metrics:
  classes               4 in 2 wave(s)
  workers               3 (process)
  wall time             1500.0 ms
  verdict cache         1 hit(s), 2 miss(es) (33% hit rate)
  inference cache       3 hit(s), 4 miss(es)
  cache writes          5
  incremental           1 reused, 3 re-checked (25% reuse)
  cache healed          6 corrupt entries deleted (12 checksum mismatch(es))
  store                 13 failed write(s), 14 lock wait(s) (375.0 ms), \
15 lock timeout(s), 16 orphan(s) swept, 17 state save failure(s), \
18 merged state entries
  remote cache          20 hit(s), 21 miss(es), 22 upload(s), 23 error(s) \
— degraded to local-only
  supervisor            7 retries, 8 quarantine(s), 9 budget trip(s), \
10 timeout(s), 11 pool restart(s)
  class Alpha           wave 0    250.00 ms  [checked]
  class Beta            wave 0    500.00 ms  [cache]
  class Gamma           wave 1    125.00 ms  [quarantined]
  class Delta           wave 1      0.00 ms  [state]"""


class TestEngineGolden:
    def test_prometheus_exposition(self):
        payload = metrics_payload(_engine_metrics().to_dict(), _phase_tracer())
        assert prometheus_text(payload) == ENGINE_PROMETHEUS

    def test_to_dict(self):
        assert _engine_metrics().to_dict() == ENGINE_DICT

    def test_format(self):
        assert _engine_metrics().format() == ENGINE_FORMAT


SERVE_POPULATED = r"""# HELP repro_serve_jobs_total Job lifecycle transitions by state.
# TYPE repro_serve_jobs_total counter
repro_serve_jobs_total{state="queued"} 7
repro_serve_jobs_total{state="started"} 6
repro_serve_jobs_total{state="done"} 4
repro_serve_jobs_total{state="failed"} 1
# HELP repro_serve_submissions_total Submission attempts, accepted or shed.
# TYPE repro_serve_submissions_total counter
repro_serve_submissions_total 9
# HELP repro_serve_rejections_total Explicitly shed submissions by reason.
# TYPE repro_serve_rejections_total counter
repro_serve_rejections_total{reason="queue-full"} 2
repro_serve_rejections_total{reason="tenant-limit"} 1
# HELP repro_serve_retries_total Jobs re-enqueued after a worker crash.
# TYPE repro_serve_retries_total counter
repro_serve_retries_total 3
# HELP repro_serve_recovered_jobs_total Jobs re-enqueued from the journal after a restart.
# TYPE repro_serve_recovered_jobs_total counter
repro_serve_recovered_jobs_total 2
# HELP repro_serve_breaker_trips_total Circuit-breaker open transitions.
# TYPE repro_serve_breaker_trips_total counter
repro_serve_breaker_trips_total 1
# HELP repro_serve_classes_checked_total Classes verified across all completed jobs.
# TYPE repro_serve_classes_checked_total counter
repro_serve_classes_checked_total 17
# HELP repro_serve_job_seconds_total Execution wall time across all completed jobs.
# TYPE repro_serve_job_seconds_total counter
repro_serve_job_seconds_total 1.234568
# HELP repro_serve_tenant_completed_total Completed (done or failed) jobs per tenant.
# TYPE repro_serve_tenant_completed_total counter
repro_serve_tenant_completed_total{tenant="al\"ice"} 4
repro_serve_tenant_completed_total{tenant="bob"} 1
# HELP repro_serve_journal_events_total Journal degradation events by kind.
# TYPE repro_serve_journal_events_total counter
repro_serve_journal_events_total{kind="write_failures"} 5
repro_serve_journal_events_total{kind="corrupt_entries"} 6
# HELP repro_serve_queue_depth Jobs currently queued for dispatch.
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 2
# HELP repro_serve_inflight Jobs currently executing.
# TYPE repro_serve_inflight gauge
repro_serve_inflight 1
# HELP repro_serve_draining 1 while the daemon is draining for shutdown.
# TYPE repro_serve_draining gauge
repro_serve_draining 1
# HELP repro_serve_breaker_state Circuit-breaker state (1 on the active state's label).
# TYPE repro_serve_breaker_state gauge
repro_serve_breaker_state{state="closed"} 0
repro_serve_breaker_state{state="open"} 0
repro_serve_breaker_state{state="half-open"} 1
# HELP repro_serve_uptime_seconds Seconds since the daemon started.
# TYPE repro_serve_uptime_seconds gauge
repro_serve_uptime_seconds 12.346
"""

SERVE_EMPTY = """# HELP repro_serve_jobs_total Job lifecycle transitions by state.
# TYPE repro_serve_jobs_total counter
repro_serve_jobs_total{state="queued"} 0
repro_serve_jobs_total{state="started"} 0
repro_serve_jobs_total{state="done"} 0
repro_serve_jobs_total{state="failed"} 0
# HELP repro_serve_submissions_total Submission attempts, accepted or shed.
# TYPE repro_serve_submissions_total counter
repro_serve_submissions_total 0
# HELP repro_serve_rejections_total Explicitly shed submissions by reason.
# TYPE repro_serve_rejections_total counter
repro_serve_rejections_total{reason="none"} 0
# HELP repro_serve_retries_total Jobs re-enqueued after a worker crash.
# TYPE repro_serve_retries_total counter
repro_serve_retries_total 0
# HELP repro_serve_recovered_jobs_total Jobs re-enqueued from the journal after a restart.
# TYPE repro_serve_recovered_jobs_total counter
repro_serve_recovered_jobs_total 0
# HELP repro_serve_breaker_trips_total Circuit-breaker open transitions.
# TYPE repro_serve_breaker_trips_total counter
repro_serve_breaker_trips_total 0
# HELP repro_serve_classes_checked_total Classes verified across all completed jobs.
# TYPE repro_serve_classes_checked_total counter
repro_serve_classes_checked_total 0
# HELP repro_serve_job_seconds_total Execution wall time across all completed jobs.
# TYPE repro_serve_job_seconds_total counter
repro_serve_job_seconds_total 0.0
# HELP repro_serve_tenant_completed_total Completed (done or failed) jobs per tenant.
# TYPE repro_serve_tenant_completed_total counter
repro_serve_tenant_completed_total{tenant="none"} 0
# HELP repro_serve_journal_events_total Journal degradation events by kind.
# TYPE repro_serve_journal_events_total counter
repro_serve_journal_events_total{kind="write_failures"} 0
repro_serve_journal_events_total{kind="corrupt_entries"} 0
# HELP repro_serve_queue_depth Jobs currently queued for dispatch.
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 0
# HELP repro_serve_inflight Jobs currently executing.
# TYPE repro_serve_inflight gauge
repro_serve_inflight 0
# HELP repro_serve_draining 1 while the daemon is draining for shutdown.
# TYPE repro_serve_draining gauge
repro_serve_draining 0
# HELP repro_serve_breaker_state Circuit-breaker state (1 on the active state's label).
# TYPE repro_serve_breaker_state gauge
repro_serve_breaker_state{state="closed"} 1
repro_serve_breaker_state{state="open"} 0
repro_serve_breaker_state{state="half-open"} 0
# HELP repro_serve_uptime_seconds Seconds since the daemon started.
# TYPE repro_serve_uptime_seconds gauge
repro_serve_uptime_seconds 0.0
"""


class TestServeGolden:
    def test_populated(self):
        metrics = ServeMetrics(
            submissions_total=9,
            jobs_queued_total=7,
            jobs_started_total=6,
            jobs_done_total=4,
            jobs_failed_total=1,
            rejections={"tenant-limit": 1, "queue-full": 2},
            retries_total=3,
            recovered_jobs_total=2,
            breaker_trips_total=1,
            classes_checked_total=17,
            job_seconds_total=1.23456789,
            tenant_completed={"bob": 1, 'al"ice': 4},
            journal_write_failures=5,
            journal_corrupt_entries=6,
            queue_depth=2,
            inflight=1,
            draining=True,
            breaker_state="half-open",
            uptime_seconds=12.34567,
        )
        assert serve_prometheus_text(metrics) == SERVE_POPULATED

    def test_empty_shows_the_none_rows(self):
        assert serve_prometheus_text(ServeMetrics()) == SERVE_EMPTY


#: Every integer counter the shard wire format carries; a merge sums them.
SHARD_SUMMED = (
    "class_hits", "class_misses", "method_hits", "method_misses",
    "cache_writes", "corrupt_entries", "retries", "quarantines",
    "budget_trips", "timeouts", "pool_restarts", "checksum_failures",
    "write_failures", "lock_waits", "lock_timeouts", "orphans_removed",
    "remote_hits", "remote_misses", "remote_puts", "remote_errors",
    "remote_degraded",
)


class TestShardGolden:
    def test_round_trip_keeps_every_summed_counter(self):
        module, violations = parse_module(
            project_source(HierarchyShape(base_operations=3, seed=5), pairs=2)
        )
        plans = plan_shards(module, 2)
        results = []
        for index, plan in enumerate(plans):
            batch = run_shard(module, violations, plan)
            counters = {
                name: 100 * (index + 1) + position
                for position, name in enumerate(SHARD_SUMMED)
            }
            metrics = _engine_metrics(
                timings=batch.metrics.timings,
                lock_wait_seconds=0.25 * (index + 1),
                **counters,
            )
            batch = type(batch)(
                module=batch.module,
                module_result=batch.module_result,
                class_results=batch.class_results,
                metrics=metrics,
            )
            payload = shard_result_to_dict(plan, batch)
            assert set(payload["metrics"]) == {
                "jobs", "executor", "wall_seconds", "lock_wait_seconds",
                *SHARD_SUMMED,
            }
            results.append(
                shard_result_from_dict(json.loads(json.dumps(payload)))
            )
        merged = merge_shard_results(module, violations, results).metrics
        for position, name in enumerate(SHARD_SUMMED):
            assert getattr(merged, name) == 300 + 2 * position, name
        assert merged.lock_wait_seconds == 0.75
