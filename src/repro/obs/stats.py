"""``repro stats`` rendering: campaign summary tables from telemetry.

Accepts any artifact ``repro verify`` writes:

- a report JSON v3 (``--json-out``) — renders the headline numbers, a
  per-phase wall-time breakdown (``wall.phase.*``), and the full metrics
  registry (counters, gauges, histograms);
- a JSONL event log (``--events-out``) or a binary ``.revt`` stream
  (``--revt-out``) — renders per-category event counts and total span
  time per event name;
- a ``--journal-dir`` directory — renders the journal's progress
  (``repro stats --follow`` tails it live while the campaign runs).
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from pathlib import Path
from typing import List

from repro.obs.trace import Event


def _rule(width: int = 64) -> str:
    return "-" * width


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _histogram_line(name: str, h: dict) -> List[str]:
    buckets = []
    for edge, count in zip(h["boundaries"], h["counts"]):
        if count:
            buckets.append(f"<={_fmt_value(edge)}:{count}")
    overflow = h["counts"][len(h["boundaries"])]
    if overflow:
        buckets.append(f">{_fmt_value(h['boundaries'][-1])}:{overflow}")
    mean = h["sum"] / h["count"] if h["count"] else 0.0
    lines = [
        f"  {name:<28} count={h['count']} mean={_fmt_value(mean)}",
    ]
    if buckets:
        lines.append(f"  {'':<28} {' '.join(buckets)}")
    return lines


def _phase_lines(counters: dict) -> List[str]:
    """Per-phase wall-time breakdown from the ``wall.phase.*`` counters
    (spawn_reset / execute / finish / restore real-seconds, accumulated
    per consumed run)."""
    phases = {
        name[len("wall.phase."):]: value
        for name, value in counters.items()
        if name.startswith("wall.phase.") and value
    }
    if not phases:
        return []
    total = sum(phases.values())
    lines = [f"  phase wall-time   : {total:.3f} s inside runs"]
    for pname, seconds in sorted(
        phases.items(), key=lambda kv: kv[1], reverse=True
    ):
        share = seconds / total * 100 if total else 0.0
        lines.append(f"    {pname:<16} {seconds:>10.3f} s  ({share:4.1f}%)")
    return lines


def _dist_lines(counters: dict, gauges: dict) -> List[str]:
    """Fleet summary from the ``dist.*`` namespace (empty on serial
    campaigns)."""
    if not any(n.startswith("dist.") for n in (*counters, *gauges)):
        return []
    workers = gauges.get("dist.workers") or 0
    records = counters.get("dist.records") or 0
    deaths = counters.get("dist.worker_deaths") or 0
    lines = [
        f"  distributed       : {workers:g} worker(s), {records:g} "
        f"record(s) streamed, {deaths:g} death(s)"
    ]
    steals = counters.get("dist.steals") or 0
    if steals:
        lines.append(
            f"    work stealing    : {steals:g} donation(s), "
            f"{counters.get('dist.stolen_leases') or 0:g} lease(s) moved"
        )
    wev = counters.get("dist.worker_events") or 0
    if wev:
        lines.append(f"    worker events    : {wev:g} (binary bye-frames)")
    return lines


def _prune_lines(payload: dict) -> List[str]:
    """Pruning / adaptive-clock summary from ``prune_stats`` (absent
    unless the campaign ran with either feature on)."""
    ps = payload.get("prune_stats") or {}
    if not ps:
        return []
    lines = []
    if ps.get("enabled"):
        lines.append(
            f"  pruning           : {ps.get('subtrees_pruned', 0)} "
            f"subtree(s) pruned, {ps.get('replays_saved', 0)} "
            f"replay(s) saved"
        )
    if ps.get("adaptive_clocks"):
        lines.append(
            f"  adaptive clocks   : {ps.get('escalations', 0)} "
            f"escalation(s), {ps.get('extra_alternatives', 0)} "
            f"vector-only alternative(s)"
        )
    return lines


def render_report_summary(payload: dict) -> str:
    """Campaign summary table from a report JSON (v3) payload."""
    lines = [
        f"DAMPI campaign: {payload.get('nprocs', '?')} procs, "
        f"{payload.get('interleavings', 0)} interleavings"
        + (" (truncated)" if payload.get("truncated") else ""),
        f"  distinct outcomes : {payload.get('distinct_outcomes', 0)}",
        f"  errors            : {len(payload.get('errors') or [])}",
        f"  wall-clock        : {payload.get('wall_seconds', 0.0):.2f} s",
    ]
    lines += _prune_lines(payload)
    telemetry = payload.get("telemetry") or {}
    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    lines += _phase_lines(counters)
    lines += _dist_lines(counters, gauges)
    if gauges.get("exec.checkpoint_enabled"):
        hits = gauges.get("exec.checkpoint_hits") or 0
        misses = gauges.get("exec.checkpoint_misses") or 0
        rate = hits / (hits + misses) if (hits + misses) else 0.0
        held = gauges.get("exec.checkpoint_bytes_held") or 0
        entries = gauges.get("exec.checkpoint_entries") or 0
        evictions = gauges.get("exec.checkpoint_evictions") or 0
        lines.append(
            f"  prefix checkpoints: {hits} hits / {misses} misses "
            f"({rate * 100:.0f}% hit), {entries} entries / "
            f"{held / 1024:.0f} KiB held, {evictions} evicted"
        )
    elif gauges.get("exec.checkpoint_demote_reason"):
        lines.append(
            "  prefix checkpoints: demoted "
            f"({gauges['exec.checkpoint_demote_reason']})"
        )
    if counters:
        lines += ["", "counters", _rule()]
        for name, value in counters.items():
            lines.append(f"  {name:<36} {_fmt_value(value):>12}")
    if gauges:
        lines += ["", "gauges", _rule()]
        for name, value in gauges.items():
            lines.append(f"  {name:<36} {_fmt_value(value):>12}")
    if histograms:
        lines += ["", "histograms", _rule()]
        for name, h in histograms.items():
            lines.extend(_histogram_line(name, h))
    ev = telemetry.get("events") or {}
    if ev:
        line = (
            f"events: enabled={ev.get('enabled')} "
            f"captured={ev.get('captured', 0)} dropped={ev.get('dropped', 0)}"
        )
        if ev.get("sample_every", 1) != 1:
            line += (
                f" sample_every={ev['sample_every']} "
                f"sampled_runs={ev.get('sampled_runs', 0)}"
            )
        if ev.get("worker_captured"):
            line += f" worker_captured={ev['worker_captured']}"
        lines += ["", line]
    return "\n".join(lines)


def render_events_summary(header: dict, events: List[Event]) -> str:
    """Event-stream summary from a JSONL log."""
    lines = [
        f"event log: {len(events)} events"
        + (f" (format v{header.get('version')})" if header else ""),
    ]
    by_cat: _TallyCounter = _TallyCounter(e.cat for e in events)
    if by_cat:
        lines += ["", "by category", _rule()]
        for cat, count in sorted(by_cat.items()):
            lines.append(f"  {cat:<20} {count:>8}")
    by_name: _TallyCounter = _TallyCounter(e.name for e in events)
    span_time: dict = {}
    for e in events:
        if e.ph == "X":
            span_time[e.name] = span_time.get(e.name, 0.0) + e.dur
    lines += ["", "by event", _rule()]
    for name, count in sorted(by_name.items()):
        extra = (
            f"  total {span_time[name]:.6f}s" if name in span_time else ""
        )
        lines.append(f"  {name:<20} {count:>8}{extra}")
    runs = {e.run for e in events if e.run is not None}
    ranks = {e.rank for e in events if e.rank is not None}
    lines += [
        "",
        f"runs covered: {len(runs)}; ranks covered: {len(ranks)}",
    ]
    return "\n".join(lines)


# -- journal directories -------------------------------------------------------


class JournalStatsError(ValueError):
    """A directory ``repro stats`` cannot summarize as a journal."""


def journal_progress(path) -> dict:
    """One read-only pass over a campaign journal directory, reduced to
    the numbers a progress line needs.  Works on live (incomplete)
    journals — this is what ``repro stats --follow`` polls.  Raises
    :class:`JournalStatsError` for directories that are not campaign
    journals."""
    from repro.dampi.journal import CampaignJournal, JournalError

    root = Path(path)
    if not any(root.glob("segment-[0-9]*.jsonl")):
        raise JournalStatsError(
            f"{root} has no journal segments (segment-NNN.jsonl) — not a "
            f"campaign journal directory"
        )
    try:
        journal = CampaignJournal(root, fsync=False)
    except JournalError as e:
        raise JournalStatsError(f"{root}: {e}") from e
    meta = journal.meta or {}
    mode = (meta.get("signature") or {}).get("journal_mode", "campaign")
    progress: dict = {
        "dir": str(root),
        "mode": mode,
        "program": meta.get("program"),
        "nprocs": meta.get("nprocs"),
        "complete": journal.complete,
    }
    if mode == "dist":
        leases: dict = {}
        records = 0
        have_self = False
        for e in journal.entries:
            t = e.get("t")
            if t == "dself":
                have_self = True
            elif t == "lease":
                leases.setdefault(e["id"], "open")
            elif t == "lease_done":
                leases[e["id"]] = "done"
            elif t == "rec":
                records += 1
        progress.update(
            self_run=have_self,
            records=records,
            leases=len(leases),
            leases_done=sum(1 for s in leases.values() if s == "done"),
        )
    elif mode == "shard":
        progress["runs"] = sum(
            1 for e in journal.entries if e.get("t") == "srun"
        )
    else:  # serial campaign
        from repro.dampi.journal import result_from_entry
        from repro.dampi.verifier import error_findings

        runs = failures = checkpoints = prunes = 0
        errors: set = set()  # distinct (kind, dedup key), as the report counts
        for e in journal.entries:
            t = e.get("t")
            if t == "run":
                runs += 1
                errors.update(
                    (kind, key)
                    for kind, key, _ in error_findings(result_from_entry(e))
                )
            elif t == "failure":
                failures += 1
            elif t == "checkpoint":
                checkpoints += 1
            elif t == "prune":
                prunes += 1
        progress.update(
            runs=runs, failures=failures, checkpoints=checkpoints,
            errors=len(errors), prunes=prunes,
        )
    return progress


#: tightest supported ``--follow`` poll cadence: a full journal re-read
#: every 50 ms is already aggressive, and ``--interval 0`` would pin a
#: core busy-spinning the reader
MIN_FOLLOW_INTERVAL = 0.05


def follow_interval(interval: float) -> float:
    """Clamp a ``--follow`` polling interval to the supported floor.
    Negative intervals are a caller error — the CLI rejects them with a
    pointed message before ever polling."""
    if interval < 0:
        raise ValueError(
            f"--interval must be >= 0 (got {interval}); polling backwards "
            f"in time is not a thing"
        )
    return max(MIN_FOLLOW_INTERVAL, float(interval))


def journal_follow_line(progress: dict) -> str:
    """The compact one-line form ``repro stats --follow`` prints per
    poll."""
    state = "complete" if progress["complete"] else "running"
    if progress["mode"] == "dist":
        return (
            f"dist {state}: {progress['records']} record(s), "
            f"{progress['leases_done']}/{progress['leases']} lease(s) done"
        )
    return (
        f"{state}: {progress.get('runs', 0)} run(s), "
        f"{progress.get('errors', 0)} error(s), "
        f"{progress.get('failures', 0)} failure(s)"
    )


def render_journal_summary(progress: dict) -> str:
    """Multi-line summary of a journal directory (any mode)."""
    mode = progress["mode"]
    state = "complete" if progress["complete"] else "in progress"
    head = f"{mode} journal {progress['dir']} ({state})"
    if progress.get("program"):
        head += f"\n  program           : {progress['program']}"
    if progress.get("nprocs") is not None:
        head += f"\n  nprocs            : {progress['nprocs']}"
    lines = [head]
    if mode == "dist":
        lines += [
            f"  self run recorded : {progress['self_run']}",
            f"  leases            : {progress['leases']} "
            f"({progress['leases_done']} done)",
            f"  run records       : {progress['records']}",
            "",
            "(per-run detail lives in the assembled report: "
            "'repro dist resume' this directory, then 'repro stats' the "
            "--json-out)",
        ]
    elif mode == "shard":
        lines += [
            f"  memoized runs     : {progress.get('runs', 0)}",
            "",
            "(a worker shard journal covers one leased subtree of a "
            "distributed campaign — summarize the coordinator's "
            "--journal-dir instead)",
        ]
    else:
        lines += [
            f"  runs journaled    : {progress.get('runs', 0)}",
            f"  errors found      : {progress.get('errors', 0)}",
            f"  replay failures   : {progress.get('failures', 0)}",
            f"  checkpoints       : {progress.get('checkpoints', 0)}",
        ]
        if progress.get("prunes"):
            lines.append(f"  subtrees pruned   : {progress['prunes']}")
    return "\n".join(lines)
