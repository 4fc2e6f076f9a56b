"""Engine observability: cache counters and per-class wall time.

Mirrors the style of :mod:`repro.core.metrics` (a frozen summary with a
``format`` method), but measures the *run*, not the model: how the wave
schedule shaped up, how the worker pool was configured, and how the
content-addressed cache performed per namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


def _same(*kinds: str, prefix: str = "") -> dict[str, str]:
    return {kind: prefix + kind for kind in kinds}


# The run's counter groups, each declared once: kind -> the
# :class:`EngineMetrics` field holding it.  The kind is the key under the
# group's ``to_dict`` section and the ``kind`` label of its Prometheus
# family; the shard wire format and the copy from the cache's stats read
# the same tables.
CACHE_KINDS = {
    **_same("class_hits", "class_misses", "method_hits", "method_misses"),
    "writes": "cache_writes",
    "corrupt_entries": "corrupt_entries",
}
SUPERVISOR_KINDS = _same(
    "retries", "quarantines", "budget_trips", "timeouts", "pool_restarts"
)
STORE_KINDS = _same(
    "checksum_failures", "write_failures", "lock_waits", "lock_timeouts",
    "orphans_removed", "state_save_failures", "state_merged_entries",
)
REMOTE_KINDS = _same("hits", "misses", "puts", "errors", "degraded", prefix="remote_")

#: The store kinds only an incremental run's state save fills; the
#: cache's own stats carry the rest.
STATE_KINDS = tuple(kind for kind in STORE_KINDS if kind.startswith("state_"))


@dataclass(frozen=True)
class ClassTiming:
    """Wall time of one class's check and where the verdict came from.

    ``quarantined`` marks classes the supervisor gave up on — their
    "verdict" is an ``ENGINE ...`` diagnostic, not a real check result.
    ``from_state`` marks verdicts an incremental run spliced out of the
    persistent project state without scheduling the class at all
    (docs/incremental.md) — distinct from ``from_cache``, which means
    the class *was* scheduled and hit the verdict cache.
    """

    class_name: str
    seconds: float
    from_cache: bool
    wave: int
    quarantined: bool = False
    from_state: bool = False


@dataclass(frozen=True)
class EngineMetrics:
    """Quantitative summary of one batch-verification run."""

    classes: int
    waves: int
    jobs: int
    executor: str
    wall_seconds: float
    class_hits: int
    class_misses: int
    method_hits: int
    method_misses: int
    cache_writes: int
    timings: tuple[ClassTiming, ...]
    #: Corrupt cache entries found — and deleted — during this run.
    corrupt_entries: int = 0
    # Supervisor counters (docs/robustness.md): how much fault handling
    # the run needed.  All zero on a healthy run.
    retries: int = 0
    quarantines: int = 0
    budget_trips: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    # Incremental re-verification counters (docs/incremental.md): how
    # much of the run was served from the persistent project state.
    incremental: bool = False
    reused_verdicts: int = 0
    dirty_classes: int = 0
    # Crash-safe store counters (docs/robustness.md): checksum-detected
    # corruption, cross-process lock contention, failed persists, and
    # swept crash debris.  All zero on a healthy single-process run.
    checksum_failures: int = 0
    write_failures: int = 0
    lock_waits: int = 0
    lock_wait_seconds: float = 0.0
    lock_timeouts: int = 0
    orphans_removed: int = 0
    state_save_failures: int = 0
    state_merged_entries: int = 0
    state_generation: int = 0
    # Remote cache tier counters (docs/distributed.md).  All zero when
    # the run used a purely local backend.
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    remote_errors: int = 0
    remote_degraded: int = 0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of classes whose verdict came from the state file."""
        return self.reused_verdicts / self.classes if self.classes else 0.0

    @property
    def class_hit_rate(self) -> float:
        total = self.class_hits + self.class_misses
        return self.class_hits / total if total else 0.0

    @property
    def fully_cached(self) -> bool:
        """Did every class verdict come out of the cache (a warm run)?"""
        return self.classes > 0 and self.class_misses == 0

    def _counts(self, group: dict[str, str]) -> dict[str, int]:
        return {kind: getattr(self, field) for kind, field in group.items()}

    def to_dict(self) -> dict[str, Any]:
        return {
            "classes": self.classes,
            "waves": self.waves,
            "jobs": self.jobs,
            "executor": self.executor,
            "wall_seconds": self.wall_seconds,
            "cache": self._counts(CACHE_KINDS),
            "supervisor": self._counts(SUPERVISOR_KINDS),
            "incremental": {
                "enabled": self.incremental,
                "reused": self.reused_verdicts,
                "dirty": self.dirty_classes,
                "reuse_ratio": self.reuse_ratio,
            },
            "store": {
                **self._counts(STORE_KINDS),
                "lock_wait_seconds": self.lock_wait_seconds,
                "state_generation": self.state_generation,
            },
            "remote": self._counts(REMOTE_KINDS),
            # Sorted here as well as at construction: the export is the
            # byte-stability contract (same project + cache temperature
            # => identical file regardless of jobs/completion order), so
            # it must hold even for hand-built metrics.
            "per_class": [
                {
                    "class": timing.class_name,
                    "seconds": timing.seconds,
                    "from_cache": timing.from_cache,
                    "wave": timing.wave,
                    "quarantined": timing.quarantined,
                    "from_state": timing.from_state,
                }
                for timing in sorted(
                    self.timings, key=lambda t: (t.wave, t.class_name)
                )
            ],
        }

    def format(self) -> str:
        lines = [
            "engine metrics:",
            f"  classes               {self.classes} in {self.waves} wave(s)",
            f"  workers               {self.jobs} ({self.executor})",
            f"  wall time             {self.wall_seconds * 1000.0:.1f} ms",
            f"  verdict cache         {self.class_hits} hit(s), "
            f"{self.class_misses} miss(es) "
            f"({self.class_hit_rate * 100.0:.0f}% hit rate)",
            f"  inference cache       {self.method_hits} hit(s), "
            f"{self.method_misses} miss(es)",
            f"  cache writes          {self.cache_writes}",
        ]
        if self.incremental:
            lines.append(
                f"  incremental           {self.reused_verdicts} reused, "
                f"{self.dirty_classes} re-checked "
                f"({self.reuse_ratio * 100.0:.0f}% reuse)"
            )
        if self.corrupt_entries:
            lines.append(
                f"  cache healed          {self.corrupt_entries} corrupt "
                f"entr{'y' if self.corrupt_entries == 1 else 'ies'} deleted"
                + (
                    f" ({self.checksum_failures} checksum mismatch(es))"
                    if self.checksum_failures
                    else ""
                )
            )
        # Checksum failures show on the healed line above.
        store = self._counts(STORE_KINDS)
        if any(count for kind, count in store.items() if kind != "checksum_failures"):
            lines.append(
                f"  store                 {self.write_failures} failed "
                f"write(s), {self.lock_waits} lock wait(s) "
                f"({self.lock_wait_seconds * 1000.0:.1f} ms), "
                f"{self.lock_timeouts} lock timeout(s), "
                f"{self.orphans_removed} orphan(s) swept, "
                f"{self.state_save_failures} state save failure(s), "
                f"{self.state_merged_entries} merged state entr"
                f"{'y' if self.state_merged_entries == 1 else 'ies'}"
            )
        if any(self._counts(REMOTE_KINDS).values()):
            lines.append(
                f"  remote cache          {self.remote_hits} hit(s), "
                f"{self.remote_misses} miss(es), "
                f"{self.remote_puts} upload(s), "
                f"{self.remote_errors} error(s)"
                + (" — degraded to local-only" if self.remote_degraded else "")
            )
        if any(self._counts(SUPERVISOR_KINDS).values()):
            lines.append(
                f"  supervisor            {self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
                f"{self.quarantines} quarantine(s), "
                f"{self.budget_trips} budget trip(s), "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_restarts} pool restart(s)"
            )
        for timing in self.timings:
            if timing.quarantined:
                origin = "quarantined"
            elif timing.from_state:
                origin = "state"
            elif timing.from_cache:
                origin = "cache"
            else:
                origin = "checked"
            lines.append(
                f"  class {timing.class_name:<15} wave {timing.wave}  "
                f"{timing.seconds * 1000.0:8.2f} ms  [{origin}]"
            )
        return "\n".join(lines)
