"""Per-verification telemetry aggregator.

:class:`CampaignTelemetry` is owned by one
:meth:`~repro.dampi.verifier.DampiVerifier.verify` call.  It holds the
campaign-level tracer (run-lifecycle spans, scheduler events), the
:class:`~repro.obs.metrics.MetricsRegistry` every component writes into,
and the optional stderr heartbeat.  Per-run event streams — collected by
the runtime's tracer during the run, possibly in a replay worker process —
arrive inside ``RunResult.artifacts["obs"]`` and are merged onto the
campaign timeline here, relabelled with the run index and rebased onto
the consume window (for pool runs the *worker* wall is unknowable on the
campaign axis; the consume window is where the serial walk observed the
run, which is what the Chrome lanes should show).

Determinism: everything recorded under ``engine.*`` / ``pb.*`` /
``campaign.*`` / ``run.*`` derives from consumed runs only, and consumed
runs are bit-identical across ``--jobs`` settings — so those totals are
too.  Environment-dependent numbers go to ``exec.*`` / ``wall.*``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.trace import DEFAULT_BUFFER, Tracer

#: run.wildcard_count boundaries — wildcard ops per run
WILDCARD_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
#: run.vtime_seconds boundaries — virtual makespan per run (log-ish scale)
VTIME_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

#: engine stat fields folded into ``engine.*`` counters per consumed run
ENGINE_STAT_KEYS = (
    "envelopes", "bytes", "collectives", "matches", "wildcard_matches",
)

#: executor stats() key -> the registry counter ReplayExecutor backs it
#: with; record_executor skips these when the counter is already present
#: (shared registry) and only gauges the rest
_EXEC_COUNTER_NAMES = {
    "submitted": "exec.submitted",
    "hits": "exec.cache_hits",
    "misses": "exec.cache_misses",
    "failures": "exec.failures",
    "wasted": "exec.wasted",
    "abandoned_workers": "exec.abandoned_workers",
}


class CampaignTelemetry:
    """Aggregates one verification campaign's events and metrics."""

    def __init__(self, config, stream=None, clock=time.perf_counter):
        trace_enabled = bool(getattr(config, "trace_events", False))
        buffer = int(getattr(config, "trace_buffer", DEFAULT_BUFFER))
        self.tracer: Optional[Tracer] = (
            Tracer(buffer=buffer, clock=clock) if trace_enabled else None
        )
        self.metrics = MetricsRegistry()
        interval = getattr(config, "progress_interval_seconds", None)
        self.progress: Optional[ProgressReporter] = (
            ProgressReporter(interval, stream=stream)
            if interval is not None
            else None
        )
        self._clock = clock
        m = self.metrics
        self._runs = m.counter("campaign.runs")
        self._errors = m.counter("campaign.errors")
        self._divergent = m.counter("campaign.divergent_runs")
        self._failures = m.counter("campaign.replay_failures")
        self._wc_hist = m.histogram("run.wildcard_count", WILDCARD_BUCKETS)
        self._vtime_hist = m.histogram("run.vtime_seconds", VTIME_BUCKETS)
        #: recent consume walls, for the heartbeat's ETA
        self._recent_walls: list[float] = []
        #: ring overflow in per-run tracers, summed across consumed runs
        #: (campaign-tracer drops are accounted separately in finalize)
        self._run_dropped = 0
        #: runs whose full payload stream was recorded (sampling)
        self._sampled_runs = 0
        self._sample_every = int(getattr(config, "trace_sample_every", 1) or 1)

    # -- run lifecycle --------------------------------------------------------

    def run_started(self) -> tuple:
        """Sample the clocks before executing/consuming a run; pass the
        token to :meth:`record_run`."""
        return (
            self.tracer.now() if self.tracer is not None else 0.0,
            self._clock(),
        )

    def record_run(self, index: int, result, trace, flip=None,
                   error_kinds=(), started=None) -> None:
        """Fold one consumed run into the campaign: counters, histograms,
        and (when tracing) its event stream merged onto the timeline."""
        self._runs.inc()
        if error_kinds:
            self._errors.inc(len(error_kinds))
        if trace.diverged:
            self._divergent.inc()
        self._wc_hist.observe(trace.wildcard_count)
        self._vtime_hist.observe(result.makespan)
        stats = getattr(result, "stats", None) or {}
        for key in ENGINE_STAT_KEYS:
            value = stats.get(key)
            if value:
                self.metrics.counter(f"engine.{key}").inc(value)
        pb = result.artifacts.get("piggyback")
        if pb:
            self.metrics.counter("pb.messages").inc(pb.get("pb_messages", 0))
            self.metrics.counter("pb.deferred_wildcard_recvs").inc(
                pb.get("deferred_pb_recvs", 0)
            )
        phases = getattr(result, "phases", None)
        if phases:
            # real-seconds per run phase, accumulated campaign-wide; the
            # wall.* prefix keeps it out of the deterministic view
            for pname, seconds in phases.items():
                self.metrics.counter(f"wall.phase.{pname}").inc(seconds)
        wall = 0.0
        if started is not None:
            wall = self._clock() - started[1]
            self._recent_walls.append(wall)
            if len(self._recent_walls) > 64:
                del self._recent_walls[:-64]
        # the run's raw event payload (pop: the campaign stream owns it
        # now).  Exact per-name emit counts fold into events.* counters
        # whether or not this run's payloads were sampled in, so totals
        # are invariant under the sampling rate.
        obs = result.artifacts.pop("obs", None)
        if obs:
            for name, n in (obs.get("counts") or {}).items():
                self.metrics.counter(f"events.{name}").inc(n)
            self._run_dropped += obs.get("dropped", 0)
            if obs.get("captured"):
                self._sampled_runs += 1
        if self.tracer is not None:
            t0 = started[0] if started is not None else self.tracer.now()
            if obs and obs.get("records"):
                # merge the run's records onto the campaign axis — raw
                # tuples straight into the campaign ring, no Event
                # round-trip (rendering waits for the first reader)
                self.tracer.emit_raw(obs["records"], run=index, ts_offset=t0)
            span_args = {"wildcards": trace.wildcard_count}
            if flip is not None:
                span_args["flip"] = tuple(flip)
            if error_kinds:
                span_args["errors"] = ",".join(error_kinds)
            self.tracer.complete("run", "campaign", t0, run=index, **span_args)

    def record_failure(self, index: int, reason: str) -> None:
        self._failures.inc()
        if self.tracer is not None:
            self.tracer.instant(
                "replay_failure", "campaign", run=index, reason=reason
            )

    # -- executor / heartbeat -------------------------------------------------

    def record_executor(self, stats: dict) -> None:
        """Gauge the replay executor's final accounting under ``exec.*``.
        Counter-backed keys are skipped when the executor shared this
        registry (they are already present as ``exec.`` counters).  The
        nested ``checkpoint`` dict (prefix-checkpoint cache accounting)
        is flattened to ``exec.checkpoint_*`` gauges."""
        have = set(self.metrics.snapshot()["counters"])
        for key, value in (stats or {}).items():
            if key == "checkpoint" and isinstance(value, dict):
                for ck, cv in value.items():
                    if isinstance(cv, dict):
                        # per-depth breakdowns stay in the stats dict;
                        # gauges hold scalars only
                        continue
                    self.metrics.gauge(f"exec.checkpoint_{ck}").set(cv)
                continue
            counter_name = _EXEC_COUNTER_NAMES.get(key)
            if counter_name is not None and counter_name in have:
                continue
            self.metrics.gauge(f"exec.{key}").set(value)

    def heartbeat(self, completed: int, generator, executor,
                  force: bool = False) -> None:
        if self.progress is None:
            return
        gstats = generator.stats()
        hits = getattr(executor, "hits", 0)
        misses = getattr(executor, "misses", 0)
        rate = hits / (hits + misses) if (hits + misses) else None
        queued = gstats.get("open_alternatives", 0)
        eta = None
        if self._recent_walls and queued:
            recent = self._recent_walls[-20:]
            eta = queued * (sum(recent) / len(recent))
        checkpoint = None
        ckpt_fn = getattr(executor, "checkpoint_stats", None)
        if ckpt_fn is not None:
            try:
                ckpt = ckpt_fn()
            except Exception:  # pragma: no cover - heartbeat must not raise
                ckpt = None
            if ckpt and ckpt.get("enabled"):
                checkpoint = (ckpt.get("hits", 0), ckpt.get("misses", 0))
        self.progress.tick(
            completed=completed,
            queued=queued,
            frontier_depth=gstats.get("path_length", 0),
            cache_hit_rate=rate,
            eta_seconds=eta,
            checkpoint=checkpoint,
            force=force,
        )

    # -- report integration ---------------------------------------------------

    def finalize(self, report) -> None:
        """Close out the campaign: stamp wall-clock, hand the merged event
        stream (raw records: the report renders them on first read of
        ``report.events``) and the metrics snapshot to the report (its
        ``telemetry`` block, report JSON v3)."""
        self.metrics.gauge("wall.seconds").set(report.wall_seconds)
        dropped = self._run_dropped
        records = []
        if self.tracer is not None:
            dropped += self.tracer.dropped
            records = self.tracer.drain_records()
        report.event_records = records
        events_block = {
            "enabled": self.tracer is not None,
            "captured": len(records),
            "dropped": dropped,
        }
        if self.tracer is not None:
            # sampling accounting only means something with tracing on;
            # the disabled block keeps its minimal v3 shape
            events_block["sample_every"] = self._sample_every
            events_block["sampled_runs"] = self._sampled_runs
        report.telemetry = {
            "metrics": self.metrics.snapshot(),
            "events": events_block,
        }
        if self.progress is not None:
            self.progress.final(
                report.interleavings, len(report.errors), report.wall_seconds
            )
