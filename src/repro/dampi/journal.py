"""Durable campaign journal: checkpoint/resume for verification sessions.

A verification campaign is a long depth-first search over epoch decisions
— thousands of guided replays on real clusters where workers hang, nodes
die, and jobs hit wall-clock limits.  This module makes that search
*resumable*: :meth:`DampiVerifier.verify(journal=...)
<repro.dampi.verifier.DampiVerifier.verify>` appends every consumed run
to an append-only JSONL journal, and a later invocation against the same
directory replays the journal instead of re-executing the covered
interleavings, then continues the walk live.  Because guided replays are
deterministic functions of their decision files, the resumed session's
DFS state, run order, and final report are bit-identical to an
uninterrupted run (modulo wall-clock).

On-disk format
--------------
A journal directory holds numbered segments::

    <dir>/
      segment-00000.jsonl
      segment-00001.jsonl      # each resume attempt starts a new segment
      ...

Each line is one JSON record with a ``t`` discriminator:

``meta``
    Written once, first: journal version, ``nprocs``, the full config,
    the *semantic* config signature (resume refuses a journal recorded
    under different search semantics), and optionally the CLI program
    spec so ``repro resume <dir>`` is self-contained.
``run``
    One consumed interleaving, in the same format a distributed worker
    streams to its coordinator (:func:`run_entry`) plus ``t`` and the
    walk ``index``: its schedule key, the full
    :class:`~repro.dampi.epoch.RunTrace` (epochs + potential matches),
    the makespan, engine stats and piggyback counters, and the run's raw
    checker facts — the deadlock's blocked map, the crash rows, the leak
    report (run 0 also carries the monitor report).  Resume rebuilds a
    result from the entry (:func:`result_from_entry`) and folds it
    through the same report bookkeeping as a live run, so error dedup is
    recomputed rather than stored.  ``osig`` and ``esc`` ride along
    under pruning / adaptive clocks.
``failure``
    A replay lost to a worker crash/timeout: its schedule and the
    failure reason (resume replays the ``abandon()`` transition).
``checkpoint``
    A full :class:`~repro.dampi.explorer.ScheduleGenerator` snapshot
    (path nodes with ``tried``/``alternatives``/``frozen``, counters),
    written every ``DampiConfig.journal_checkpoint_interval`` entries —
    resume fast-forwards the generator from the latest one and
    transition-replays only the entries after it.
``end``
    Campaign completion marker with final counts (tooling/CI aid; a
    journal without one is simply an interrupted campaign).

Durability: every append is one ``write()`` of ``json + "\\n"`` followed
by ``flush`` + ``fsync``.  A crash mid-append leaves a torn final line
with no trailing newline; the loader drops anything after the last
newline of each segment, so a torn tail costs exactly the record being
written — which was by definition not yet acknowledged.  Segments rotate
at ``DampiConfig.journal_segment_bytes``, and every resume attempt opens
a fresh segment (old segments are never reopened for writing).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.dampi.artifacts import (
    epoch_from_jsonable,
    epoch_to_jsonable,
    match_from_jsonable,
    match_to_jsonable,
)
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochRecord, RunTrace
from repro.dampi.explorer import DecisionNode, ScheduleGenerator
from repro.dampi.leaks import CommLeak, LeakReport, RequestLeak
from repro.dampi.monitor import MonitorReport, OmissionAlert
from repro.errors import DeadlockError

JOURNAL_VERSION = 2

#: default segment rotation threshold (bytes)
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: config fields that change what the walk *means* — a journal recorded
#: under one set cannot be resumed under another.  Execution knobs
#: (``jobs``, ``persistent_session``, ``indexed_matching``, telemetry,
#: ``fault_plan``) are bit-identity-preserving and deliberately excluded.
SEMANTIC_CONFIG_FIELDS = (
    "clock_impl",
    "piggyback",
    "bound_k",
    "auto_loop_threshold",
    "max_interleavings",
    "max_seconds",
    "policy",
    "mode",
    "enable_leak_check",
    "enable_monitor",
    "trace_ops",
    "prune",
    "adaptive_clocks",
)


class JournalError(RuntimeError):
    """A journal that cannot be written, read, or resumed."""


# -- payload (de)serialisation -------------------------------------------------


def decisions_to_jsonable(decisions: EpochDecisions) -> dict:
    return {
        "flip": list(decisions.flip) if decisions.flip else None,
        "forced": [[r, lc, src] for (r, lc), src in sorted(decisions.forced.items())],
    }


def decisions_from_jsonable(payload: dict) -> EpochDecisions:
    return EpochDecisions(
        forced={(r, lc): src for r, lc, src in payload["forced"]},
        flip=tuple(payload["flip"]) if payload.get("flip") else None,
    )


def trace_to_jsonable(trace: RunTrace) -> dict:
    return {
        "nprocs": trace.nprocs,
        "epochs": [epoch_to_jsonable(e) for e in trace.all_epochs()],
        "matches": [match_to_jsonable(m) for m in trace.potential_matches],
        "unconsumed": [list(k) for k in trace.unconsumed_decisions],
        "mismatches": [list(k) for k in trace.forced_mismatches],
        "scalar_risk": [list(k) for k in trace.scalar_risk],
    }


def trace_from_jsonable(payload: dict) -> RunTrace:
    # every rank keyed, as in a live trace: the prune fingerprint hashes
    # the per-rank rows, empty ones included
    epochs: dict[int, list[EpochRecord]] = {
        r: [] for r in range(payload["nprocs"])
    }
    for raw in payload["epochs"]:
        e = epoch_from_jsonable(raw)
        epochs[e.rank].append(e)
    for rank_epochs in epochs.values():
        rank_epochs.sort(key=lambda e: e.index)
    return RunTrace(
        nprocs=payload["nprocs"],
        epochs=epochs,
        potential_matches=[match_from_jsonable(m) for m in payload["matches"]],
        unconsumed_decisions=[tuple(k) for k in payload["unconsumed"]],
        forced_mismatches=[tuple(k) for k in payload["mismatches"]],
        scalar_risk=[tuple(k) for k in payload.get("scalar_risk", ())],
    )


def leaks_to_jsonable(report: Optional[LeakReport]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "comm": [[l.rank, l.ctx, l.label] for l in report.comm_leaks],
        "request": [
            [l.rank, l.req_uid, l.kind, l.detail] for l in report.request_leaks
        ],
    }


def leaks_from_jsonable(payload: Optional[dict]) -> Optional[LeakReport]:
    if payload is None:
        return None
    return LeakReport(
        comm_leaks=[CommLeak(r, ctx, label) for r, ctx, label in payload["comm"]],
        request_leaks=[
            RequestLeak(r, uid, kind, detail)
            for r, uid, kind, detail in payload["request"]
        ],
    )


def monitor_to_jsonable(report: Optional[MonitorReport]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "alerts": [
            [a.rank, a.operation, list(a.outstanding_wildcards)]
            for a in report.alerts
        ]
    }


def monitor_from_jsonable(payload: Optional[dict]) -> Optional[MonitorReport]:
    if payload is None:
        return None
    return MonitorReport(
        alerts=[
            OmissionAlert(rank, op, tuple(uids))
            for rank, op, uids in payload["alerts"]
        ]
    )


def outcome_to_jsonable(outcome: frozenset) -> list:
    return sorted([list(key), src] for key, src in outcome)


def outcome_from_jsonable(payload: list) -> frozenset:
    return frozenset((tuple(key), src) for key, src in payload)


# -- run entries ---------------------------------------------------------------


def run_entry(
    decisions: Optional[EpochDecisions],
    result,
    trace: RunTrace,
    osig: Optional[str] = None,
    esc: Optional[int] = None,
) -> dict:
    """Serialize one executed run: the journal's ``run`` entry (with
    ``t``/``index`` added) and a distributed worker's streamed record.

    Error dedup and ``error_kinds`` are global-order-dependent (an error
    is reported only the first time its key is seen), so the entry ships
    raw facts — the deadlock's blocked map, the primary errors as
    ``(rank, type-name, message)`` rows, the leak report — and whoever
    folds it recomputes dedup in walk order.  The self run (no
    ``decisions``) also carries the monitor report, which only it feeds.
    ``osig`` (the run's checker-outcome digest) and ``esc``
    (alternatives injected by a clock escalation) ride along when
    pruning/adaptive clocks are on, so the fold can rebuild run
    signatures and escalation stats without the live result."""
    pb = result.artifacts.get("piggyback")
    entry = {
        "key": decisions_to_jsonable(decisions) if decisions is not None else None,
        "trace": trace_to_jsonable(trace),
        "makespan": result.makespan,
        "stats": dict(result.stats or {}),
        "pb": dict(pb) if pb else None,
        "leaks": leaks_to_jsonable(result.artifacts.get("leaks")),
        "deadlock": (
            [[r, op] for r, op in sorted(result.deadlock.blocked.items())]
            if result.deadlocked
            else None
        ),
        # primary_errors iterates rank-sorted; preserve that order so the
        # fold's dedup sees errors exactly as the live loop does.
        # DeadlockError rows are omitted (the report recorder skips them;
        # the deadlock travels in its own field).
        "errors": [
            [rank, type(exc).__name__, str(exc)]
            for rank, exc in result.primary_errors.items()
            if not isinstance(exc, DeadlockError)
        ],
    }
    if osig is not None:
        entry["osig"] = osig
    if esc is not None:
        entry["esc"] = esc
    if decisions is None:
        entry["monitor"] = monitor_to_jsonable(result.artifacts.get("monitor"))
    return entry


#: dynamically rebuilt exception classes for remote crash rows, cached so
#: equal type names compare equal across entries
_EXC_CACHE: dict[str, type] = {}


def _remote_exception(type_name: str, message: str) -> Exception:
    cls = _EXC_CACHE.get(type_name)
    if cls is None:
        cls = _EXC_CACHE[type_name] = type(
            type_name, (Exception,), {"__module__": "repro.dist.remote"}
        )
    return cls(message)


@dataclass
class ShardResult:
    """Duck-typed :class:`~repro.mpi.runtime.RunResult` rebuilt from a
    run entry — exactly the fields report bookkeeping
    (:meth:`DampiVerifier._record_run`) and telemetry
    (:meth:`CampaignTelemetry.record_run`) read."""

    makespan: float = 0.0
    stats: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    deadlock: Optional[DeadlockError] = None
    primary_errors: dict = field(default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None


def result_from_entry(entry: dict) -> ShardResult:
    """Rebuild the duck-typed result from a run entry.  The rebuilt
    pieces reproduce the live report byte-for-byte: ``DeadlockError``
    reconstructs from its blocked map (its message is derived from it),
    and crash rows rebuild as dynamic exception types whose ``__name__``
    and ``str()`` match the originals — the two things the error-dedup
    keys and detail strings are made of."""
    artifacts: dict = {}
    if entry.get("pb"):
        artifacts["piggyback"] = dict(entry["pb"])
    leaks = leaks_from_jsonable(entry.get("leaks"))
    if leaks is not None:
        artifacts["leaks"] = leaks
    if entry.get("monitor") is not None:
        artifacts["monitor"] = monitor_from_jsonable(entry["monitor"])
    deadlock = None
    if entry.get("deadlock") is not None:
        deadlock = DeadlockError({int(r): op for r, op in entry["deadlock"]})
    primary = {
        int(rank): _remote_exception(name, msg)
        for rank, name, msg in entry.get("errors") or ()
    }
    return ShardResult(
        makespan=entry["makespan"],
        stats=dict(entry.get("stats") or {}),
        artifacts=artifacts,
        deadlock=deadlock,
        primary_errors=primary,
    )


# -- generator snapshots -------------------------------------------------------


def snapshot_generator(gen: ScheduleGenerator) -> dict:
    """Serialize the full DFS state.  Only valid between runs (no flip
    pending) — which is the only time checkpoints are taken."""
    if gen._flip_index is not None:
        raise JournalError("cannot snapshot a generator with a pending flip")
    snap = {
        "bound_k": gen.bound_k,
        "auto_loop_threshold": gen.auto_loop_threshold,
        "seeded": gen._seeded,
        "divergences": gen.divergences,
        "frozen_created": gen.frozen_created,
        "auto_frozen_total": gen.auto_frozen_total,
        "distance_frozen": gen.distance_frozen,
        "path": [
            {
                "key": list(n.key),
                "order": list(n.order),
                "chosen": n.chosen,
                "tried": sorted(n.tried),
                "alternatives": sorted(n.alternatives),
                "frozen": n.frozen,
                "pinned": n.pinned,
            }
            for n in gen.path
        ],
    }
    if gen.prune:
        snap["prune"] = True
        snap["prunes"] = gen.prunes
        snap["replays_saved"] = gen.replays_saved
        for raw, n in zip(snap["path"], gen.path):
            raw["sigs"] = sorted([fp, osig, src] for (fp, osig), src in n.sigs.items())
            raw["vcost"] = sorted([src, c] for src, c in n.vcost.items())
            raw["vfrozen"] = sorted([src, c] for src, c in n.vfrozen.items())
    return snap


def restore_generator(snap: dict) -> ScheduleGenerator:
    gen = ScheduleGenerator(
        bound_k=snap["bound_k"],
        auto_loop_threshold=snap["auto_loop_threshold"],
        prune=snap.get("prune", False),
    )
    gen._seeded = snap["seeded"]
    gen.divergences = snap["divergences"]
    gen.frozen_created = snap["frozen_created"]
    gen.auto_frozen_total = snap["auto_frozen_total"]
    gen.distance_frozen = snap["distance_frozen"]
    gen.prunes = snap.get("prunes", 0)
    gen.replays_saved = snap.get("replays_saved", 0)
    gen.path = [
        DecisionNode(
            key=tuple(n["key"]),
            order=tuple(n["order"]),
            chosen=n["chosen"],
            tried=set(n["tried"]),
            alternatives=set(n["alternatives"]),
            frozen=n["frozen"],
            pinned=n.get("pinned", False),
            sigs={(fp, osig): src for fp, osig, src in n.get("sigs", ())},
            vcost={src: c for src, c in n.get("vcost", ())},
            vfrozen={src: c for src, c in n.get("vfrozen", ())},
        )
        for n in snap["path"]
    ]
    return gen


# -- config identity -----------------------------------------------------------


def _jsonable_or_repr(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def config_signature(
    nprocs: int,
    config,
    kwargs: Optional[dict] = None,
    prog_args: tuple = (),
    mode: str = "campaign",
    shard_prefix=None,
) -> dict:
    """The semantic identity of a verification: resuming a journal under a
    different signature would silently mix two different searches.
    Program arguments are part of it — they change what executes.

    ``mode`` distinguishes the three journal kinds a distributed campaign
    produces: ``"campaign"`` (a whole serial verification), ``"dist"``
    (a coordinator journal holding leases and streamed records), and
    ``"shard"`` (one worker's journal of one leased subtree, whose
    ``shard_prefix`` — the forced prefix it was leased — is part of the
    identity).  A journal of one mode can never be resumed as another:
    a shard covers one subtree, not the tree.
    """
    # NB: "journal_mode", not "mode" — DampiConfig has a semantic field
    # named ``mode`` (run_to_block/...) that also lands in this dict
    sig = {"nprocs": nprocs, "journal_mode": mode}
    if shard_prefix is not None:
        sig["shard_prefix"] = _jsonable_or_repr(shard_prefix)
    for name in SEMANTIC_CONFIG_FIELDS:
        value = getattr(config, name, None)
        if name == "policy" and not isinstance(value, str):
            value = f"<instance:{type(value).__name__}>"
        sig[name] = value
    cm = getattr(config, "cost_model", None)
    sig["cost_model"] = (
        dataclasses.asdict(cm) if dataclasses.is_dataclass(cm) else repr(cm)
    )
    sig["kwargs"] = _jsonable_or_repr(dict(kwargs) if kwargs else {})
    sig["args"] = _jsonable_or_repr(list(prog_args))
    return sig


def config_to_jsonable(config) -> Optional[dict]:
    """Full config dump for ``repro resume`` (None when not JSON-able,
    e.g. a policy instance — in-process resume still works; only the
    self-contained CLI path needs this)."""
    try:
        payload = dataclasses.asdict(config)
        json.dumps(payload)
        return payload
    except (TypeError, ValueError):
        return None


# -- the journal ---------------------------------------------------------------


class CampaignJournal:
    """Append-only, fsync'd, segment-rotated campaign journal.

    One instance serves one :meth:`~repro.dampi.verifier.DampiVerifier
    .verify` call: construct it on a directory (existing segments are
    loaded eagerly), hand it to ``verify(journal=...)``, and the verifier
    does the rest — validates the meta record, replays prior entries, and
    appends the live remainder.
    """

    def __init__(
        self,
        root,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
        program_label: Optional[str] = None,
    ):
        self.root = Path(root)
        self.segment_bytes = int(segment_bytes)
        self.fsync = fsync
        self.program_label = program_label
        self.meta: Optional[dict] = None
        self.entries: list[dict] = []
        self._tracer = None
        self._metrics = None
        self._fh = None
        self._segment_index = 0
        self._segment_written = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self._load()

    @classmethod
    def open(
        cls, journal, config, program_label: Optional[str] = None
    ) -> "CampaignJournal":
        """Coerce a path or an existing journal into a journal; a path
        opens with ``config``'s segment size and fsync policy."""
        if isinstance(journal, CampaignJournal):
            return journal
        return cls(
            journal,
            segment_bytes=config.journal_segment_bytes,
            fsync=config.journal_fsync,
            program_label=program_label,
        )

    def bind(self, tracer=None, metrics=None) -> None:
        """Attach the campaign's telemetry sinks (journal events land in
        the ``journal.*`` namespace / ``journal_*`` trace events)."""
        self._tracer = tracer
        self._metrics = metrics

    # -- reading ---------------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(self.root.glob("segment-[0-9]*.jsonl"))

    def _load(self) -> None:
        segments = self._segments()
        next_index = 0
        for path in segments:
            try:
                next_index = max(next_index, int(path.stem.split("-")[1]) + 1)
            except ValueError:
                raise JournalError(f"unrecognized segment name {path.name}")
            raw = path.read_bytes()
            # drop a torn tail: a complete append always ends in "\n"
            cut = raw.rfind(b"\n")
            raw = b"" if cut < 0 else raw[: cut + 1]
            for lineno, line in enumerate(raw.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as e:
                    raise JournalError(
                        f"{path.name}:{lineno}: corrupt journal record: {e}"
                    ) from None
                if record.get("t") == "meta":
                    if self.meta is None:
                        self.meta = record
                    continue
                self.entries.append(record)
        self._segment_index = next_index

    def run_entries(self) -> list[dict]:
        """The replayable history: run and failure records, in order."""
        return [e for e in self.entries if e.get("t") in ("run", "failure")]

    def latest_checkpoint(self) -> Optional[dict]:
        ckpt = None
        for e in self.entries:
            if e.get("t") == "checkpoint":
                ckpt = e
        return ckpt

    @property
    def complete(self) -> bool:
        return any(e.get("t") == "end" for e in self.entries)

    # -- meta ------------------------------------------------------------------

    def ensure_meta(
        self,
        nprocs: int,
        config,
        kwargs: Optional[dict] = None,
        prog_args: tuple = (),
        mode: str = "campaign",
        shard_prefix=None,
        extra: Optional[dict] = None,
    ) -> None:
        """First call of a fresh journal writes the meta record; on a
        journal with history, validate that the semantics match."""
        sig = config_signature(
            nprocs,
            config,
            kwargs=kwargs,
            prog_args=prog_args,
            mode=mode,
            shard_prefix=shard_prefix,
        )
        if self.meta is not None:
            if self.meta.get("version") != JOURNAL_VERSION:
                raise JournalError(
                    f"journal {self.root} has version "
                    f"{self.meta.get('version')!r}, expected {JOURNAL_VERSION}"
                )
            old = dict(self.meta.get("signature") or {})
            # journals written before the distributed subsystem carry no
            # mode field; they are whole-campaign journals
            old.setdefault("journal_mode", "campaign")
            if old.get("journal_mode") != mode:
                raise JournalError(self._mode_mismatch_message(old, mode))
            if old != sig:
                raise JournalError(
                    f"journal {self.root} was recorded under different "
                    f"verification semantics; refusing to resume "
                    f"(journal: {old!r}, now: {sig!r})"
                )
            return
        self.meta = {
            "t": "meta",
            "version": JOURNAL_VERSION,
            "nprocs": nprocs,
            "signature": sig,
            "config": config_to_jsonable(config),
            "kwargs": _jsonable_or_repr(dict(kwargs) if kwargs else {}),
            "program": self.program_label,
        }
        if extra:
            self.meta.update(extra)
        self.append(self.meta)

    def _mode_mismatch_message(self, old_sig: dict, wanted_mode: str) -> str:
        have = old_sig.get("journal_mode", "campaign")
        what = {
            "shard": (
                "a worker *shard* journal of a distributed campaign — it "
                "records one leased subtree (forced prefix "
                f"{old_sig.get('shard_prefix')!r}), not the whole decision "
                "tree, so resuming it as a campaign would silently re-walk "
                "everything outside the shard.  Resume the campaign's "
                "coordinator journal with 'repro dist resume' instead"
            ),
            "dist": (
                "a distributed *coordinator* journal (leases and streamed "
                "worker records, not a serial run history).  Use "
                "'repro dist resume' on it"
            ),
            "campaign": (
                "a whole-campaign journal from a serial verification.  Use "
                "'repro resume' on it"
            ),
        }[have]
        return (
            f"journal {self.root} is {what}; refusing to open it as a "
            f"{wanted_mode!r} journal"
        )

    # -- writing ---------------------------------------------------------------

    def _open_segment(self) -> None:
        path = self.root / f"segment-{self._segment_index:05d}.jsonl"
        self._segment_index += 1
        self._segment_written = 0
        self._fh = open(path, "ab")

    def append(self, record: dict) -> None:
        """Durably append one record: single write, flush, fsync."""
        if self._fh is None or self._segment_written >= self.segment_bytes:
            rotated = self._fh is not None
            self.close()
            self._open_segment()
            if rotated:
                if self._metrics is not None:
                    self._metrics.counter("journal.rotations").inc()
                if self._tracer is not None:
                    self._tracer.instant(
                        "journal_rotate", "journal", segment=self._segment_index - 1
                    )
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        self._fh.write(data)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._segment_written += len(data)
        if record is not self.meta:
            self.entries.append(record)
        if self._metrics is not None:
            self._metrics.counter("journal.appends").inc()
            self._metrics.counter("journal.bytes").inc(len(data))

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
            fh.close()

    def __del__(self):  # appends are individually durable; this is hygiene
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"CampaignJournal({self.root}, {len(self.entries)} entries"
            f"{', complete' if self.complete else ''})"
        )
