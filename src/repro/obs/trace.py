"""Ring-buffered structured event tracer.

Design constraints, in priority order:

1. **Cheap when on.**  The hot path (:meth:`Tracer.instant`) allocates no
   :class:`Event` — it packs a raw tuple into a preallocated ring slot.
   Records stay raw through :meth:`collect`, the campaign merge and
   prefix checkpoints; *all* rendering (arg sorting, dataclass
   construction) is deferred to :func:`render`, which runs only when a
   consumer first reads the events (``VerificationReport.events``, an
   exporter).  ``benchmarks/bench_obs_overhead.py`` gates the enabled
   cost on a whole ``repro verify`` campaign.
2. **Cheap when off.**  Emitter sites hold a ``tracer`` that is either a
   :class:`Tracer` or ``None``; the disabled path is one attribute load
   plus an ``is not None`` test (the :data:`NULL_TRACER` singleton exists
   for callers that prefer unconditional calls — its methods are no-ops).
   The disabled-tracer cost is bounded at <3% by the same benchmark.
3. **Exact counters, sampled payloads.**  The ring always records, but
   when ``capture`` is off (a sampled-out run) :meth:`drain`/:meth:`collect`
   collapse the payloads into per-name counters instead of handing them
   out, so campaign-level ``events.*`` totals are exact at any payload
   sampling rate.  Recording unconditionally keeps prefix checkpoints
   honest: a snapshot cut during a sampled-out run still carries the
   prefix payloads a *captured* descendant run needs.
4. **Bounded memory.**  The ring has a fixed capacity; overflow evicts
   the oldest record (still counting it — eviction folds the record into
   the counters) and bumps ``dropped`` rather than growing without limit.
5. **Deterministic modulo timestamps.**  Everything except ``ts``/``dur``
   is derived from the verified execution, so two serial runs of the same
   workload produce identical streams under :func:`event_signature`
   (which strips the clock fields).  ``args`` is rendered as a sorted
   tuple of pairs — hashable, picklable, and order-stable.

Raw records cross process boundaries (replay workers pickle the
:meth:`collect` payload back inside ``RunResult.artifacts["obs"]``), so
they stay plain tuples/dicts of primitives.  A record is immutable once
recorded — the tuple by type, its args dict by convention (nothing writes
to it after :meth:`instant`/:meth:`complete`) — so prefix checkpoints
hold :meth:`snapshot_state` by reference instead of pickling it, and the
campaign ring shares args dicts with the per-run rings it merges.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

#: Default ring capacity; ~100 bytes/record keeps the worst case ~6 MiB.
DEFAULT_BUFFER = 65536

#: raw-record field order (ring slots are plain tuples, not Events)
_NAME, _CAT, _TS, _PH, _DUR, _RANK, _RUN, _ARGS = range(8)

#: deep size of one typical raw record: its 8-slot tuple, timestamp float
#: and small args dict (names, categories and small ints are shared)
_RECORD_BYTES = (
    sys.getsizeof((None,) * 8) + sys.getsizeof(0.0)
    + sys.getsizeof({"a": 0, "b": 0, "c": 0})
)


@dataclass(frozen=True)
class Event:
    """One structured trace record.

    ``ph`` follows the Chrome trace_event phase vocabulary for the two
    shapes we emit: ``"i"`` (instant) and ``"X"`` (complete span with
    ``dur``).  ``ts``/``dur`` are seconds relative to the owning tracer's
    epoch; exporters convert units.
    """

    name: str
    cat: str
    ts: float
    ph: str = "i"
    dur: float = 0.0
    rank: Optional[int] = None
    run: Optional[int] = None
    args: Tuple[Tuple[str, object], ...] = ()

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default

    def with_run(self, run: int, ts_offset: float = 0.0) -> "Event":
        """Relabel onto a campaign lane: assign a run index and rebase
        the timestamp (used when merging per-run streams)."""
        return Event(
            name=self.name, cat=self.cat, ts=self.ts + ts_offset,
            ph=self.ph, dur=self.dur, rank=self.rank, run=run,
            args=self.args,
        )


def event_signature(events: Iterable[Event]) -> Tuple:
    """The deterministic identity of a stream: everything but the clock.

    Two runs of the same schedule must produce equal signatures; the
    telemetry determinism tests compare these.
    """
    return tuple(
        (e.name, e.cat, e.ph, e.rank, e.run, e.args) for e in events
    )


def _freeze_args(args) -> Tuple[Tuple[str, object], ...]:
    """Render a raw arg payload (kwargs dict, or an already-frozen tuple
    of pairs) into the sorted-tuple form Events carry."""
    if type(args) is tuple:
        return args
    return tuple(sorted(args.items()))


def _materialize(rec) -> Event:
    """Build the Event for one raw ring record (the deferred rendering)."""
    return Event(
        name=rec[0], cat=rec[1], ts=rec[2], ph=rec[3], dur=rec[4],
        rank=rec[5], run=rec[6], args=_freeze_args(rec[7]),
    )


def render(records: Iterable[tuple]) -> list:
    """Materialize raw ring records into Events, in order."""
    return [_materialize(rec) for rec in records]


def state_nbytes(state: Optional[tuple]) -> int:
    """Estimated memory a :meth:`Tracer.snapshot_state` value keeps
    alive (checkpoint-cache budgeting): every record counted in full,
    although records on a shared prefix are shared between snapshots."""
    if state is None:
        return 0
    records, counts, _dropped = state
    return (
        sys.getsizeof(records) + len(records) * _RECORD_BYTES
        + sys.getsizeof(counts)
    )


class Tracer:
    """Collects raw event records into a preallocated ring buffer.

    The ring is a fixed-size list whose slots are reused across runs
    (:meth:`reset` just rewinds the indices); records are materialized
    into :class:`Event` objects only on :meth:`drain`.
    """

    __slots__ = (
        "_ring", "_next", "_count", "_counts", "_clock", "_t0",
        "dropped", "buffer", "capture",
    )

    enabled = True

    def __init__(self, buffer: int = DEFAULT_BUFFER, clock=time.perf_counter):
        self.buffer = int(buffer)
        self._clock = clock
        self._t0 = clock()
        self.dropped = 0
        #: payload output switch: when False (a sampled-out run) the ring
        #: still records — checkpoint snapshots need the payloads — but
        #: drain/collect fold them into the counters instead of handing
        #: them out (exact counters, no payloads leave the tracer)
        self.capture = True
        self._ring: list = [None] * self.buffer
        self._next = 0
        self._count = 0
        #: per-name exact counters for records no longer in the ring
        #: (evicted, or emitted while capture was off); ring contents are
        #: tallied on demand so the hot path pays no dict write
        self._counts: dict = {}

    def __len__(self) -> int:
        return self._count

    def now(self) -> float:
        """Seconds since this tracer's epoch (last :meth:`reset`)."""
        return self._clock() - self._t0

    # -- hot path -----------------------------------------------------------

    def instant(self, name: str, cat: str, rank: Optional[int] = None,
                run: Optional[int] = None, **args) -> None:
        """Record a point-in-time event."""
        i = self._next
        ring = self._ring
        if self._count == self.buffer:
            old = ring[i][0]
            counts = self._counts
            counts[old] = counts.get(old, 0) + 1
            self.dropped += 1
        else:
            self._count += 1
        ring[i] = (name, cat, self._clock() - self._t0, "i", 0.0,
                   rank, run, args)
        i += 1
        self._next = 0 if i == self.buffer else i

    def complete(self, name: str, cat: str, start: float,
                 rank: Optional[int] = None, run: Optional[int] = None,
                 **args) -> None:
        """Record a span that began at ``start`` (a :meth:`now` sample)
        and ends now."""
        dur = self._clock() - self._t0 - start
        self._push((name, cat, start, "X", dur if dur > 0.0 else 0.0,
                    rank, run, args))

    @contextmanager
    def span(self, name: str, cat: str, rank: Optional[int] = None,
             run: Optional[int] = None, **args):
        start = self.now()
        try:
            yield
        finally:
            self.complete(name, cat, start, rank=rank, run=run, **args)

    # -- cold paths ---------------------------------------------------------

    def _push(self, rec: tuple) -> None:
        i = self._next
        ring = self._ring
        if self._count == self.buffer:
            old = ring[i][0]
            counts = self._counts
            counts[old] = counts.get(old, 0) + 1
            self.dropped += 1
        else:
            self._count += 1
        ring[i] = rec
        i += 1
        self._next = 0 if i == self.buffer else i

    def emit(self, event: Event) -> None:
        """Append a pre-built event (merging another tracer's stream)."""
        self._push((event.name, event.cat, event.ts, event.ph, event.dur,
                    event.rank, event.run, event.args))

    def emit_raw(self, records: Iterable[tuple], run: Optional[int] = None,
                 ts_offset: float = 0.0) -> None:
        """Merge raw records from another tracer's :meth:`collect`
        payload, relabelling each with ``run`` and rebasing timestamps
        (the campaign merge path — no Event round-trip)."""
        push = self._push
        for rec in records:
            push((rec[0], rec[1], rec[2] + ts_offset, rec[3], rec[4],
                  rec[5], run, rec[7]))

    def _records(self) -> list:
        """Ring contents, oldest first (records stay raw)."""
        if self._count < self.buffer:
            return self._ring[:self._count]
        i = self._next
        return self._ring[i:] + self._ring[:i]

    def counts(self) -> dict:
        """Exact per-name emit totals since the last :meth:`reset`:
        evicted + sampled-out records plus whatever is still buffered."""
        totals = dict(self._counts)
        for rec in self._records():
            name = rec[0]
            totals[name] = totals.get(name, 0) + 1
        return totals

    def drain_records(self) -> list:
        """Return and clear the buffered records, oldest first, still
        raw.  Counters are *not* cleared — they keep the exact totals
        until :meth:`reset`.  A ``capture``-off tracer folds the payloads
        into the counters and returns nothing."""
        records = self._records()
        counts = self._counts
        for rec in records:
            name = rec[0]
            counts[name] = counts.get(name, 0) + 1
        self._next = 0
        self._count = 0
        return records if self.capture else []

    def drain(self) -> list:
        """:meth:`drain_records`, rendered into Events."""
        return render(self.drain_records())

    def collect(self) -> dict:
        """Drain into the raw transport payload a run hands back through
        ``RunResult.artifacts["obs"]``: records stay unrendered (cheap to
        pickle, rendered only at export), counters are exact totals.  A
        ``capture``-off (sampled-out) run ships counts only."""
        records = self._records()
        self._next = 0
        self._count = 0
        counts = dict(self._counts)
        for rec in records:
            name = rec[0]
            counts[name] = counts.get(name, 0) + 1
        self._counts = {}
        return {
            "records": records if self.capture else [],
            "counts": counts,
            "dropped": self.dropped,
            "captured": self.capture,
        }

    def reset(self) -> None:
        """Rewind the ring and rebase the epoch; per-run tracers reset at
        the top of every run so timestamps are run-relative.  Slots are
        reused, not reallocated; the ``capture`` flag is preserved (it is
        per-run sampling state owned by the verifier)."""
        self._next = 0
        self._count = 0
        self._counts = {}
        self.dropped = 0
        self._t0 = self._clock()

    # -- checkpoint integration ---------------------------------------------

    def snapshot_state(self) -> tuple:
        """Freeze the stream state at a prefix-checkpoint cut: buffered
        records, off-ring counters, and the drop count.  Restoring this
        into a consumer run makes its stream (and exact totals) identical
        to a full re-execution of the shared prefix.  The containers are
        fresh copies and the records immutable, so the state can be held
        by reference: neither this tracer nor :meth:`restore_state`
        writes to it."""
        return (self._records(), dict(self._counts), self.dropped)

    def restore_state(self, state: Optional[tuple]) -> None:
        """Reinstate :meth:`snapshot_state` output (checkpoint restore).

        The ring is restored regardless of ``capture`` — a snapshot cut
        inside a sampled-out run must still hand the prefix payloads to
        any captured run that restores it; :meth:`drain`/:meth:`collect`
        decide at output time whether payloads leave the tracer."""
        self.reset()
        if state is None:
            return
        records, counts, dropped = state
        self._counts = dict(counts)
        n = len(records)
        if n > self.buffer:  # pragma: no cover - ring shrank mid-session
            records = records[n - self.buffer:]
            n = self.buffer
        self._ring[:n] = records
        self._count = n
        self._next = 0 if n == self.buffer else n
        self.dropped = dropped


class _NullTracer:
    """Module-level no-op stand-in for a disabled tracer.

    Shares the :class:`Tracer` surface; every method returns immediately.
    """

    __slots__ = ()

    enabled = False
    dropped = 0
    buffer = 0
    capture = False

    def __len__(self) -> int:
        return 0

    def now(self) -> float:
        return 0.0

    def instant(self, name, cat, rank=None, run=None, **args) -> None:
        return None

    def complete(self, name, cat, start, rank=None, run=None, **args) -> None:
        return None

    def emit(self, event) -> None:
        return None

    def emit_raw(self, records, run=None, ts_offset=0.0) -> None:
        return None

    @contextmanager
    def span(self, name, cat, rank=None, run=None, **args):
        yield

    def counts(self) -> dict:
        return {}

    def drain_records(self) -> list:
        return []

    def drain(self) -> list:
        return []

    def collect(self) -> dict:
        return {"records": [], "counts": {}, "dropped": 0, "captured": False}

    def reset(self) -> None:
        return None

    def snapshot_state(self) -> tuple:
        return ([], {}, 0)

    def restore_state(self, state) -> None:
        return None


#: The shared disabled tracer; safe to pass anywhere a Tracer is accepted.
NULL_TRACER = _NullTracer()
