"""Shard worker: explore one leased subtree at a time.

A worker is an ordinary OS process (spawned by the coordinator today,
but connecting over TCP so it could equally run on another host).  Its
life is a loop: ask for a lease, seed a fresh
:class:`~repro.dampi.explorer.ScheduleGenerator` with the leased prefix
(:meth:`~repro.dampi.explorer.ScheduleGenerator.seed_prefix`), then walk
the subtree exactly like the serial verify loop — ``run_once`` →
``integrate`` → ``next_decisions`` — streaming one ``record`` frame per
completed run and finishing with ``lease_done``.

Two deliberate deviations from the serial loop:

* **Pinned prefix.**  Alternatives discovered at prefix nodes belong to
  other shards; they are reported upstream as ``discovered`` candidate
  leases (the coordinator dedups them against everything already
  issued) instead of being explored locally.
* **Durable shard journal.**  Each lease gets its own journal directory
  (``shards/lease-<id>``, mode ``"shard"`` with the forced prefix in
  the signature).  Completed runs are memoized there, so a lease
  re-issued after a worker death replays its finished work from disk
  instead of re-executing it.

Prefix checkpoints compose with sharding for free: the worker keeps one
:class:`~repro.dampi.verifier.DampiVerifier` (and thus one replay
session and one ``PrefixCheckpointCache``) for its whole life, so a
lease whose root is a *sibling* of an earlier lease's root — same flip
node, different alternative — restores from the checkpoint that earlier
lease recorded instead of re-executing the shared prefix from
``MPI_Init``.  Deep sharing widens this across leases: recording runs
snapshot at every eligible wildcard post, so a lease rooted anywhere
along a path an earlier lease recorded dict-hits its own flip point,
and the ancestor scan covers leases whose prefixes merely extend a
recorded one.  The coordinator dedups sibling leases from the same
discovery, so they frequently land on the same worker back-to-back.
Cache counters ship upstream in the ``bye`` frame as ``ckpt.*`` metrics
— their own nondeterministic namespace rather than ``exec.*``, because
``exec.*`` totals are worker-count-invariant while cache hits (and the
ancestor/suffix variants) depend on which worker a lease lands on.

Work stealing: when the coordinator sends ``steal``, the worker splits
the deepest open node of its current subtree
(:meth:`~repro.dampi.explorer.ScheduleGenerator.split_deepest`) and
donates the upper half as new lease specs; an idle worker donates
nothing.  Steal requests are checked between replays, never mid-run.

Death handling is symmetrical: the worker ``os._exit(0)``\\ s the moment
its socket to the coordinator drops (no orphan exploration), and the
coordinator expires a worker whose *progress* stalls past the lease
timeout — heartbeats alone do not count as progress, so a hung replay
(e.g. an injected ``hang`` fault) is detected even though the heartbeat
thread keeps beating.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.dampi import prune as prune_mod
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.journal import CampaignJournal, run_entry, trace_from_jsonable
from repro.dampi.verifier import DampiVerifier
from repro.dist.protocol import (
    decisions_key_str,
    pack_events,
    send_frame,
    start_reader,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def shard_config(config):
    """The config a worker verifies its subtree under.

    Semantic knobs (clock, piggyback, bound, policy, ...) pass through
    untouched — they define what a run *is*.  Execution knobs are
    normalized: one inline job per worker (the worker process *is* the
    parallelism), no budgets (budgets are global properties the
    coordinator's assembly enforces), no per-worker progress lines or
    event tracing (the coordinator owns observability).  The fault plan travels along so ``worker:*`` sites
    fire inside the right process.
    """
    return replace(
        config,
        jobs=1,
        force_jobs=False,
        trace_events=False,
        progress_interval_seconds=None,
        max_interleavings=None,
        max_seconds=None,
        artifacts_dir=None,
    )


class _ShardWorker:
    def __init__(
        self,
        worker_id: int,
        sock: socket.socket,
        program,
        nprocs: int,
        config,
        args: tuple,
        kwargs: Optional[dict],
        shards_dir,
    ):
        self.worker_id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.inbox: queue.Queue = queue.Queue()
        self.config = shard_config(config)
        self.verifier = DampiVerifier(
            program, nprocs, self.config, args=args, kwargs=kwargs
        )
        self.metrics = MetricsRegistry()
        #: worker-lifecycle events (lease start/done, memo hits) shipped
        #: upstream in the bye frame as a compact binary payload — the
        #: per-run tracer stays off in shards (see shard_config); these
        #: events are about the *worker's* walk, not the verified runs
        self.tracer = Tracer(buffer=4096)
        self.shards_dir = Path(shards_dir) if shards_dir else None
        #: lifetime replay counter — the ``worker:<id>.<seq>`` fault
        #: selector (1-based, memo hits included: "before consuming")
        self._seq = 0
        self._runs = 0
        #: adaptive-clock escalations run by this worker (fresh replays
        #: only — memoized entries were escalated when first executed)
        self._esc_stats = {
            "escalations": 0,
            "escalation_replays": 0,
            "extra_alternatives": 0,
        }
        #: subtree prunes across this worker's leases (worker-local walk
        #: shortcuts; the assembly recomputes the deterministic totals)
        self._prunes = 0
        self._replays_saved = 0
        self._lease_id: Optional[str] = None
        self._gen: Optional[ScheduleGenerator] = None
        self._alive = True

    # -- plumbing --------------------------------------------------------------

    def _send(self, payload: dict) -> None:
        try:
            send_frame(self.sock, payload, self.send_lock)
        except OSError:
            # Coordinator gone: nothing useful left to do.  Exit hard so
            # no half-finished exploration outlives the campaign.
            os._exit(0)

    def _next_frame(self) -> Optional[dict]:
        _tag, frame = self.inbox.get()
        return frame

    def _heartbeat_loop(self, interval: float) -> None:
        while self._alive:
            time.sleep(interval)
            if not self._alive:
                return
            gen = self._gen
            stats = gen.stats() if gen is not None else {}
            self._send(
                {
                    "t": "hb",
                    "runs": self._runs,
                    "open": stats.get("open_alternatives", 0),
                    "depth": stats.get("path_length", 0),
                    "lease": self._lease_id,
                }
            )

    def _drain_inbox(self, gen: Optional[ScheduleGenerator]) -> None:
        """Between replays: answer steal requests, die on coordinator EOF."""
        while True:
            try:
                _tag, frame = self.inbox.get_nowait()
            except queue.Empty:
                return
            if frame is None:
                os._exit(0)
            if frame.get("t") == "steal":
                leases = gen.split_deepest() if gen is not None else []
                self._send({"t": "donate", "leases": leases})

    @staticmethod
    def _discovery_specs(gen: ScheduleGenerator, discoveries) -> list:
        specs = []
        for idx, sources in discoveries:
            node = gen.path[idx]
            prefix = gen.prefix_rows(idx)
            # the discovered sources are already marked tried, so this
            # union covers them plus everything known before — exactly
            # what sibling subtrees must not re-discover
            covered = sorted(node.tried | node.alternatives)
            for src in sources:
                specs.append(
                    {
                        "prefix": prefix,
                        "flip_key": list(node.key),
                        "flip_order": list(node.order),
                        "alt": src,
                        "covered": covered,
                    }
                )
        return specs

    def _fold_checkpoint_metrics(self) -> None:
        """Fold the replay session's checkpoint-cache counters into the
        metrics snapshot shipped with ``bye``.  They ride the ``ckpt.``
        namespace — nondeterministic, so the coordinator's prefix filter
        keeps them and sums across workers, but deliberately *not*
        ``exec.``, whose totals stay worker-count-invariant."""
        ckpt = self.verifier.checkpoint_stats()
        if not ckpt:
            return
        for name in (
            "hits", "misses", "evictions", "skips",
            "ancestor_hits", "suffix_captures",
        ):
            n = int(ckpt.get(name) or 0)
            if n:
                self.metrics.inc(f"ckpt.{name}", n)
        for name in ("restore_ms", "capture_ms"):
            v = float(ckpt.get(name) or 0.0)
            if v:
                self.metrics.inc(f"ckpt.{name}", round(v, 3))

    def _fold_prune_metrics(self) -> None:
        """Fold prune/escalation counts into the ``bye`` snapshot.  They
        ride ``dist.worker_*`` — lease partitioning and steals decide
        which subtrees (and thus which prune opportunities) each worker
        sees, so the totals are worker-count-dependent; the deterministic
        ``prune.*`` numbers come from the coordinator's assembly."""
        for name, n in (
            ("worker_prunes", self._prunes),
            ("worker_replays_saved", self._replays_saved),
            ("worker_escalations", self._esc_stats["escalations"]),
            ("worker_escalation_replays", self._esc_stats["escalation_replays"]),
            ("worker_extra_alternatives", self._esc_stats["extra_alternatives"]),
        ):
            if n:
                self.metrics.inc(f"dist.{name}", n)

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        start_reader(self.sock, "coord", self.inbox)
        self._send({"t": "hello", "worker": self.worker_id, "pid": os.getpid()})
        threading.Thread(
            target=self._heartbeat_loop,
            args=(self.config.dist_heartbeat_seconds,),
            name=f"dist-hb-{self.worker_id}",
            daemon=True,
        ).start()
        while True:
            self._send({"t": "need_lease"})
            while True:
                frame = self._next_frame()
                if frame is None:
                    os._exit(0)
                if frame.get("t") == "steal":
                    self._send({"t": "donate", "leases": []})
                    continue
                break
            if frame.get("t") == "shutdown":
                self._alive = False
                self._fold_checkpoint_metrics()
                self._fold_prune_metrics()
                bye = {
                    "t": "bye",
                    "stats": {"runs": self._runs},
                    "metrics": self.metrics.snapshot(),
                }
                events = self.tracer.drain()
                if events:
                    bye["events"] = pack_events(
                        events, header={"worker": self.worker_id}
                    )
                self._send(bye)
                return
            if frame.get("t") == "lease":
                self._explore(frame["id"], frame["spec"])

    def _explore(self, lease_id_: str, spec: dict) -> None:
        # Pruning in a shard is a pure walk shortcut: the worker's
        # signature map at any unpinned subtree node is a subset of the
        # assembly generator's at the same node (stamped from the same
        # subtree runs, in the same DFS order), so every schedule the
        # worker prunes away is one the assembly walk provably never
        # requests — no coverage hole, just replays not executed.
        gen = ScheduleGenerator(
            bound_k=self.config.bound_k,
            auto_loop_threshold=self.config.auto_loop_threshold,
            prune=self.config.prune,
        )
        self._gen = gen
        self._lease_id = lease_id_
        lease_t0 = self.tracer.now()
        decisions = gen.seed_prefix(
            spec["prefix"],
            spec["flip_key"],
            spec["flip_order"],
            spec["alt"],
            covered=spec.get("covered", ()),
        )
        journal = None
        memo: dict = {}
        if self.shards_dir is not None:
            journal = CampaignJournal.open(
                self.shards_dir / f"lease-{lease_id_}", self.config
            )
            journal.ensure_meta(
                self.verifier.nprocs,
                self.config,
                kwargs=self.verifier.kwargs,
                prog_args=self.verifier.args,
                mode="shard",
                shard_prefix=spec,
            )
            for e in journal.entries:
                if e.get("t") == "srun":
                    memo[e["k"]] = e["entry"]
        try:
            while decisions is not None:
                self._seq += 1
                self.verifier._faults.fire("worker", (self.worker_id, self._seq))
                self._drain_inbox(gen)
                kstr = decisions_key_str(decisions)
                entry = memo.get(kstr)
                if entry is not None:
                    self.metrics.inc("exec.memo_hits")
                    self.tracer.instant(
                        "memo_hit", "dist", run=self._runs, lease=lease_id_
                    )
                    trace = trace_from_jsonable(entry["trace"])
                else:
                    result, trace = self.verifier.run_once(decisions)
                    osig, esc = self.verifier._entry_facts(
                        decisions, result, trace, self._esc_stats
                    )
                    entry = run_entry(
                        decisions, result, trace, osig=osig, esc=esc
                    )
                    if journal is not None:
                        journal.append({"t": "srun", "k": kstr, "entry": entry})
                    self.metrics.inc("exec.replays")
                self._runs += 1
                self._send({"t": "record", "lease": lease_id_, "entry": entry})
                signature = (
                    prune_mod.RunSignature(trace, entry["osig"])
                    if self.config.prune and entry.get("osig") is not None
                    else None
                )
                gen.integrate(trace, signature=signature)
                discoveries = gen.take_pinned_discoveries()
                if discoveries:
                    self._send(
                        {
                            "t": "discovered",
                            "leases": self._discovery_specs(gen, discoveries),
                        }
                    )
                decisions = gen.next_decisions()
        finally:
            self._gen = None
            self._lease_id = None
            self._prunes += gen.prunes
            self._replays_saved += gen.replays_saved
            self.tracer.complete(
                "lease", "dist", lease_t0, lease=lease_id_, runs=self._runs
            )
            if journal is not None:
                journal.close()
        self._send({"t": "lease_done", "id": lease_id_})


def worker_main(
    worker_id: int,
    host: str,
    port: int,
    program,
    nprocs: int,
    config,
    args: tuple = (),
    kwargs: Optional[dict] = None,
    shards_dir=None,
) -> None:
    """Process entry point (target of the coordinator's ``mp.Process``)."""
    sock = socket.create_connection((host, port))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    worker = _ShardWorker(
        worker_id, sock, program, nprocs, config, args, kwargs, shards_dir
    )
    try:
        worker.run()
    finally:
        worker.verifier.close()
        try:
            sock.close()
        except OSError:
            pass
