"""Coordinator: partition the decision tree, lease it out, assemble.

Architecture (paper §IV, "distributed DAMPI"): the coordinator executes
the self run, seeds a master :class:`ScheduleGenerator`, and converts its
open frontier into *leases* — disjoint subtree roots
(:meth:`~repro.dampi.explorer.ScheduleGenerator.take_subtree_leases`)
each of which one worker explores independently.  Workers stream back one
``record`` per completed run; candidate leases they *discover* (pinned-
prefix alternatives, work-steal donations) flow through the coordinator,
which dedups them against everything already issued
(:class:`~repro.dist.leases.LeaseTable`) and leases them onward.

Bit-identity
------------
The report is **assembled**, not accumulated.  Every global quantity in
a serial report — run indices, error dedup, ``error_kinds`` order,
subtree pruning, budget truncation — depends on the serial walk's total
order, which concurrent workers cannot reproduce.  So the coordinator
collects records keyed by their canonical schedule
(:func:`~repro.dist.protocol.entry_schedule_key`) and, once exploration
is done, *re-runs the serial verify loop without executing anything*:
it feeds the records, in walk order, to the same
:class:`~repro.dampi.verifier.CampaignFold` that serial ``verify()`` and
journal resume feed — ``next_decisions()``, look the schedule up in the
record map, fold it.  Records use the campaign journal's ``run`` entry
format.  The walk is a deterministic function of the traces, so the
assembled report is bit-identical to serial ``verify()`` by
construction; a missing schedule is a hard :class:`DistError` (coverage
hole), never a silent gap.

Budgets: ``max_interleavings`` is enforced during assembly (a global
prefix-of-the-walk property).  ``max_seconds`` is a wall-clock budget
with no serial-equivalent meaning across N machines and is not applied.

Durability
----------
With ``journal=``, every state transition is durably appended *before*
the action it permits (lease journaled before first dispatch, record
journaled before it is acknowledged by assembly):

``dself``       the self run's entry (trace + result facts + monitor)
``lease``       a lease's id and spec, once, at first offer
``rec``         one streamed record entry
``lease_done``  a subtree fully explored
``end``         exploration finished (assembly is a pure function)

``resume`` = rebuild the :class:`LeaseTable` and record map from the
journal, re-enqueue every non-done lease, and continue; workers memoize
finished runs in per-lease shard journals (``shards/lease-<id>``), so a
re-issued lease replays from disk instead of re-executing.

Failure handling
----------------
Worker death is detected two ways: socket EOF (fast path) and *progress*
expiry — a worker holding a lease whose last progress (record, donate,
lease_done, or a heartbeat showing an advanced run counter) is older
than ``config.dist_lease_timeout_seconds`` is killed and replaced.
Heartbeats alone are deliberately not progress: a replay wedged by a
``hang`` fault keeps heartbeating but stops advancing.  Either way the
worker's leases return to the queue and a replacement process is
spawned; a lease re-issued more than :data:`MAX_LEASE_ISSUES` times
aborts the campaign (a deterministic crash would loop forever).
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.dampi.config import DampiConfig
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.journal import CampaignJournal, run_entry, trace_from_jsonable
from repro.dampi.parallel import schedule_key
from repro.dampi.verifier import (
    CampaignFold,
    CampaignTelemetry,
    DampiVerifier,
    VerificationReport,
)
from repro.dist.leases import Lease, LeaseTable
from repro.dist.protocol import (
    DistError,
    entry_schedule_key,
    send_frame,
    start_reader,
    unpack_events,
)
from repro.dist.worker import worker_main
from repro.obs.metrics import NONDETERMINISTIC_PREFIXES, MetricsRegistry
from repro.obs.progress import ProgressReporter

#: a lease assigned this many times without completing aborts the campaign
MAX_LEASE_ISSUES = 5


def _filtered_snapshot(snap: dict) -> dict:
    """Keep only environment (``exec.``/``dist.``/...) instruments of a
    worker's metrics snapshot: everything deterministic is recomputed by
    assembly, and merging it twice would double-count."""
    return {
        kind: {
            name: value
            for name, value in (snap.get(kind) or {}).items()
            if name.startswith(NONDETERMINISTIC_PREFIXES)
        }
        for kind in ("counters", "gauges", "histograms")
    }


@dataclass
class _WorkerState:
    """Coordinator-side view of one worker process."""

    id: int
    proc: object = None
    tag: Optional[int] = None  # reader tag == connection id
    sock: Optional[socket.socket] = None
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = True
    idle: bool = False
    runs: int = 0
    frame: Optional[dict] = None  # latest hb payload (+ "seen" stamp)
    last_progress: float = 0.0
    last_steal_at: float = float("-inf")
    steal_outstanding: bool = False


class DistCoordinator:
    """One distributed verification campaign."""

    def __init__(
        self,
        program,
        nprocs: int,
        config: Optional[DampiConfig] = None,
        workers: int = 2,
        journal=None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        stream=None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.program = program
        self.nprocs = nprocs
        self.config = config or DampiConfig()
        self.workers = int(workers)
        self.args = args
        self.kwargs = kwargs or {}
        self._stream = stream
        #: executes the self run and owns report-assembly bookkeeping
        #: (_record_run) plus the shared one-shot fault plan
        self.verifier = DampiVerifier(
            program, nprocs, self.config, args=args, kwargs=self.kwargs
        )
        self.metrics = MetricsRegistry()
        self.table = LeaseTable()
        #: schedule_key -> record entry (the assembly's input)
        self.recs: dict = {}
        self.self_entry: Optional[dict] = None
        self.journal: Optional[CampaignJournal] = None
        if journal is not None:
            self.journal = CampaignJournal.open(journal, self.config)
            self.journal.ensure_meta(
                nprocs,
                self.config,
                kwargs=self.kwargs,
                prog_args=args,
                mode="dist",
                extra={"dist": {"workers": self.workers}},
            )
        self._replayed = 0  # records preloaded from the journal
        self._executed = 0  # fresh records received live
        #: worker lifecycle events (lease spans, memo hits) shipped
        #: binary-packed in bye frames, run-relabelled by worker id
        self._worker_events: list = []
        self._record_count = 0  # every streamed record frame (fault site)
        self._states: dict[int, _WorkerState] = {}  # worker id -> state
        self._by_tag: dict[int, _WorkerState] = {}
        self._pending_socks: dict[int, socket.socket] = {}  # tag -> accepted conn
        self._next_worker_id = 0
        self._events: queue.Queue = queue.Queue()
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        interval = self.config.progress_interval_seconds
        self.progress = (
            ProgressReporter(interval, stream=stream)
            if interval is not None
            else None
        )

    # -- journal ---------------------------------------------------------------

    def _journal_append(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _reload(self) -> None:
        """Rebuild coordinator state from a prior attempt's journal."""
        if self.journal is None:
            return
        for e in self.journal.entries:
            t = e.get("t")
            if t == "dself":
                self.self_entry = e["entry"]
            elif t == "lease":
                self.table.offer(e["spec"])
            elif t == "rec":
                key = entry_schedule_key(e["entry"])
                if key is not None and key not in self.recs:
                    self.recs[key] = e["entry"]
                    self._replayed += 1
            elif t == "lease_done":
                self.table.mark_done(e["id"])

    def _offer(self, spec: dict) -> Optional[Lease]:
        """Admit a candidate lease; journal it exactly once, *before* it
        can ever be dispatched."""
        lease = self.table.offer(spec)
        if lease is not None:
            self._journal_append({"t": "lease", "id": lease.id, "spec": spec})
        return lease

    # -- campaign --------------------------------------------------------------

    def run(self) -> VerificationReport:
        cfg = self.config
        started = time.perf_counter()
        faults = self.verifier._faults
        self._reload()
        if self.self_entry is None:
            if faults:
                faults.fire("self", metrics=self.metrics)
            result, trace = self.verifier.run_once()
            osig, esc = self.verifier._entry_facts(None, result, trace)
            self.verifier.close()
            self.self_entry = run_entry(None, result, trace, osig=osig, esc=esc)
            self._journal_append({"t": "dself", "entry": self.self_entry})
        self_trace = trace_from_jsonable(self.self_entry["trace"])
        # Enumerate the initial frontier.  On resume this re-derives the
        # same specs (deterministic function of the self trace) and the
        # table dedups them against the journaled ones.
        master = ScheduleGenerator(
            bound_k=cfg.bound_k, auto_loop_threshold=cfg.auto_loop_threshold
        )
        master.seed(self_trace)
        for spec in master.take_subtree_leases():
            self._offer(spec)
        complete = self.journal is not None and self.journal.complete
        if not complete and not self.table.all_done:
            self._distribute(faults)
        if not complete:
            self._journal_append({"t": "end"})
        return self._assemble(started)

    # -- distribution ----------------------------------------------------------

    def _distribute(self, faults) -> None:
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(self.workers + 4)
        host, port = self._server.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        self._accept_thread.start()
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        shards_dir = (
            str(self.journal.root / "shards") if self.journal is not None else None
        )
        self.metrics.gauge("dist.workers").set(self.workers)
        try:
            for _ in range(self.workers):
                self._spawn(ctx, host, port, shards_dir)
            tick = max(0.05, self.config.dist_heartbeat_seconds / 2)
            while not self.table.all_done:
                try:
                    tag, frame = self._events.get(timeout=tick)
                except queue.Empty:
                    pass
                else:
                    self._handle(tag, frame, faults)
                self._tick(ctx, host, port, shards_dir)
            self._shutdown_workers()
        finally:
            self._teardown()

    def _accept_loop(self) -> None:
        tag = 0
        try:
            while True:
                server = self._server
                if server is None:
                    return  # teardown already ran
                conn, _addr = server.accept()
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    pass
                tag += 1
                self._events.put((-tag, {"t": "_conn", "sock": conn}))
                start_reader(conn, tag, self._events)
        except OSError:
            return  # server socket closed: campaign over

    def _spawn(self, ctx, host: str, port: int, shards_dir) -> None:
        self._next_worker_id += 1
        wid = self._next_worker_id
        proc = ctx.Process(
            target=worker_main,
            args=(
                wid,
                host,
                port,
                self.program,
                self.nprocs,
                self.config,
                self.args,
                self.kwargs,
                shards_dir,
            ),
            name=f"dist-worker-{wid}",
            daemon=True,
        )
        proc.start()
        state = _WorkerState(id=wid, proc=proc)
        state.last_progress = time.monotonic()
        self._states[wid] = state

    # -- event handling --------------------------------------------------------

    def _handle(self, tag: int, frame: Optional[dict], faults) -> None:
        if tag < 0:  # connection bookkeeping from the accept loop
            self._pending_socks[-tag] = frame["sock"]
            return
        if frame is None:
            state = self._by_tag.pop(tag, None)
            if state is not None and state.alive:
                self._worker_died(state)
            return
        t = frame.get("t")
        if t == "hello":
            state = self._states.get(frame.get("worker"))
            if state is None:
                return
            state.tag = tag
            state.sock = self._pending_socks.pop(tag, None)
            self._by_tag[tag] = state
            state.last_progress = time.monotonic()
            return
        state = self._by_tag.get(tag)
        if state is None or not state.alive:
            return
        now = time.monotonic()
        if t == "hb":
            if int(frame.get("runs") or 0) > state.runs:
                state.runs = int(frame["runs"])
                state.last_progress = now
            state.frame = dict(frame, seen=now, worker=state.id)
        elif t == "need_lease":
            state.idle = True
        elif t == "record":
            self._record_count += 1
            if faults:
                faults.fire("coord", (self._record_count,), metrics=self.metrics)
            state.last_progress = now
            key = entry_schedule_key(frame["entry"])
            if key is None or key in self.recs:
                self.metrics.inc("dist.duplicate_records")
            else:
                self._journal_append(
                    {"t": "rec", "id": frame.get("lease"), "entry": frame["entry"]}
                )
                self.recs[key] = frame["entry"]
                self._executed += 1
                self.metrics.inc("dist.records")
        elif t == "discovered":
            state.last_progress = now
            for spec in frame.get("leases") or ():
                if self._offer(spec) is not None:
                    self.metrics.inc("dist.discovered_leases")
        elif t == "donate":
            state.steal_outstanding = False
            state.last_progress = now
            donated = 0
            for spec in frame.get("leases") or ():
                if self._offer(spec) is not None:
                    donated += 1
            if donated:
                self.metrics.inc("dist.steals")
                self.metrics.inc("dist.stolen_leases", donated)
        elif t == "lease_done":
            state.last_progress = now
            if self.table.complete(frame["id"]) is not None:
                self._journal_append({"t": "lease_done", "id": frame["id"]})
        elif t == "bye":
            snap = frame.get("metrics")
            if snap:
                self.metrics.merge_snapshot(_filtered_snapshot(snap))
            blob = frame.get("events")
            if blob:
                try:
                    _header, events = unpack_events(blob)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    self.metrics.inc("dist.worker_event_decode_errors")
                else:
                    self.metrics.inc("dist.worker_events", len(events))
                    self._worker_events.extend(
                        ev.with_run(state.id) for ev in events
                    )
            state.alive = False

    def _worker_died(self, state: _WorkerState) -> None:
        state.alive = False
        state.idle = False
        self.metrics.inc("dist.worker_deaths")
        released = self.table.release_worker(state.id)
        if released:
            self.metrics.inc("dist.leases_released", len(released))
        proc = state.proc
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)

    # -- periodic work ---------------------------------------------------------

    def _tick(self, ctx, host: str, port: int, shards_dir) -> None:
        now = time.monotonic()
        timeout = self.config.dist_lease_timeout_seconds
        # progress-based expiry: kill and replace wedged workers
        for state in list(self._states.values()):
            if not state.alive:
                continue
            holding = self.table.active_for(state.id)
            dead_proc = state.proc is not None and not state.proc.is_alive()
            expired = holding and now - state.last_progress > timeout
            if dead_proc or expired:
                if expired:
                    self.metrics.inc("dist.leases_expired", len(holding))
                if state.tag is not None:
                    self._by_tag.pop(state.tag, None)
                self._worker_died(state)
        # keep the fleet at strength while work remains
        if not self.table.all_done:
            alive = sum(1 for s in self._states.values() if s.alive)
            for _ in range(self.workers - alive):
                self._spawn(ctx, host, port, shards_dir)
        # hand pending leases to idle workers
        for state in self._states.values():
            if not (state.alive and state.idle and state.sock is not None):
                continue
            lease = self.table.next_pending()
            if lease is None:
                break
            if lease.issues >= MAX_LEASE_ISSUES:
                raise DistError(
                    f"lease {lease.id} failed {lease.issues} assignments "
                    f"(root flip {lease.spec['flip_key']} alt "
                    f"{lease.spec['alt']}); a worker dies deterministically "
                    f"inside this subtree — giving up"
                )
            self.table.assign(lease, state.id)
            state.idle = False
            state.last_progress = time.monotonic()
            self.metrics.inc("dist.leases_issued")
            if lease.issues > 1:
                self.metrics.inc("dist.leases_reissued")
            self._send(state, {"t": "lease", "id": lease.id, "spec": lease.spec})
        # work stealing: idle capacity + empty queue -> split the busiest
        if (
            self.table.pending_count == 0
            and self.table.active_count > 0
            and any(
                s.alive and s.idle and s.sock is not None
                for s in self._states.values()
            )
        ):
            victims = [
                s
                for s in self._states.values()
                if s.alive
                and s.sock is not None
                and not s.steal_outstanding
                and self.table.active_for(s.id)
                and now - s.last_steal_at > self.config.dist_heartbeat_seconds
            ]
            if victims:
                victim = max(
                    victims,
                    key=lambda s: (s.frame or {}).get("open") or 0,
                )
                victim.steal_outstanding = True
                victim.last_steal_at = now
                self.metrics.inc("dist.steal_requests")
                self._send(victim, {"t": "steal"})
        if self.progress is not None:
            frames = [
                s.frame for s in self._states.values() if s.alive and s.frame
            ]
            self.progress.merge_tick(
                frames,
                active_leases=self.table.active_count,
                pending_leases=self.table.pending_count,
            )

    def _send(self, state: _WorkerState, payload: dict) -> None:
        try:
            send_frame(state.sock, payload, state.send_lock)
        except OSError:
            pass  # EOF event will reap it

    # -- shutdown --------------------------------------------------------------

    def _shutdown_workers(self) -> None:
        waiting = []
        for state in self._states.values():
            if state.alive and state.sock is not None:
                self._send(state, {"t": "shutdown"})
                waiting.append(state)
        deadline = time.monotonic() + 10
        while any(s.alive for s in waiting) and time.monotonic() < deadline:
            try:
                tag, frame = self._events.get(timeout=0.1)
            except queue.Empty:
                continue
            self._handle(tag, frame, None)

    def _teardown(self) -> None:
        server = self._server
        self._server = None
        if server is not None:
            try:
                server.close()
            except OSError:
                pass
        for state in self._states.values():
            if state.sock is not None:
                try:
                    state.sock.close()
                except OSError:
                    pass
            proc = state.proc
            if proc is not None:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5)

    # -- assembly --------------------------------------------------------------

    def _assemble(self, started: float) -> VerificationReport:
        """The serial verify loop, re-run as a pure function of collected
        records through the same :class:`CampaignFold` (see module doc:
        bit-identity by construction)."""
        telemetry = CampaignTelemetry(
            replace(self.config, progress_interval_seconds=None, trace_events=False),
            stream=self._stream,
        )
        fold = CampaignFold(self.verifier, telemetry, started)
        fold.fold_entry(0, self.self_entry)
        run_index = 0
        while (decisions := fold.next_decisions()) is not None:
            run_index += 1
            entry = self.recs.get(schedule_key(decisions))
            if entry is None:
                raise DistError(
                    f"coverage hole: the deterministic walk asks for flip "
                    f"{decisions.flip} at run {run_index} but no worker "
                    f"record covers it ({len(self.recs)} records collected) "
                    f"— a lease finished without streaming all its runs"
                )
            fold.fold_entry(run_index, entry)
        journal_stats = None
        if self.journal is not None:
            self.journal.close()
            journal_stats = {
                "dir": str(self.journal.root),
                "replayed": self._replayed,
                "executed": self._executed,
            }
        # fleet/exec accounting rides in the nondeterministic namespaces
        telemetry.metrics.merge_snapshot(
            _filtered_snapshot(self.metrics.snapshot())
        )
        report = fold.finish(
            {
                "mode": "dist",
                "workers": self.workers,
                "leases": len(self.table.leases),
                "records": len(self.recs),
                "worker_deaths": self.metrics.counter("dist.worker_deaths").value,
            },
            journal_stats,
        )
        if self._worker_events:
            # worker lifecycle events (lease spans, memo hits) ride on
            # worker-local clocks; they join the report stream for export
            # but stay out of to_json (env-dependent timings)
            report.events.extend(sorted(
                self._worker_events, key=lambda e: (e.ts, e.name)
            ))
            report.telemetry["events"]["worker_captured"] = len(
                self._worker_events
            )
        return report


def distributed_verify(
    program,
    nprocs: int,
    config: Optional[DampiConfig] = None,
    workers: int = 2,
    journal=None,
    args: tuple = (),
    kwargs: Optional[dict] = None,
    stream=None,
) -> VerificationReport:
    """Verify ``program`` with the decision tree sharded across
    ``workers`` processes; returns a report bit-identical to the serial
    :meth:`DampiVerifier.verify` (modulo ``wall_seconds`` and the
    environment-dependent telemetry namespaces)."""
    coordinator = DistCoordinator(
        program,
        nprocs,
        config=config,
        workers=workers,
        journal=journal,
        args=args,
        kwargs=kwargs,
        stream=stream,
    )
    return coordinator.run()


def journal_status(path) -> dict:
    """Inspect a distributed coordinator journal without resuming it."""
    journal = CampaignJournal(path)
    leases: dict[str, str] = {}
    recs = 0
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
            recs += 1
    sig = (journal.meta or {}).get("signature") or {}
    return {
        "dir": str(journal.root),
        "mode": sig.get("journal_mode", "campaign"),
        "complete": journal.complete,
        "self_run": have_self,
        "records": recs,
        "leases": len(leases),
        "leases_done": sum(1 for s in leases.values() if s == "done"),
        "leases_open": sum(1 for s in leases.values() if s == "open"),
    }
