"""Prefix-sharing replay: checkpoint/restore at decision points.

The headline property mirrors the parallel one: with prefix checkpoints
enabled (the default) every report is *bit-identical* to the full
re-execute-from-``MPI_Init`` walk — across the whole bug zoo, across
``jobs`` settings, across distributed workers, and across injected
worker deaths mid-restore.  Checkpointing is purely an execution-time
optimization; it must never be observable in a report.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import threading

import pytest

from repro.dampi.checkpoint import (
    PrefixCheckpointCache,
    capture_key,
    checkpoint_key,
    snapshot_usable,
)
from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.faults import FAULT_EXIT_CODE
from repro.dampi.verifier import DampiVerifier
from repro.mpi.engine import MessageEngine
from repro.mpi.runtime import Runtime
from repro.mpi.snapshot import Snapshot
from repro.obs.trace import event_signature, render, state_nbytes
from repro.workloads.bugzoo import ZOO
from repro.workloads.matmult import matmult_program

#: the checkpoint-rich workload: every flip is a rank-0 wildcard receive
#: with all other ranks parked in plain waits (high capture eligibility)
MATMULT_KW = {"n": 4, "blocks_per_slave": 2}


def _canon(report) -> dict:
    """The bit-identity view of a report: its JSON minus the fields that
    are honest about wall-clock (and therefore never reproducible)."""
    d = json.loads(report.to_json())
    d.pop("wall_seconds", None)
    d.pop("telemetry", None)
    return d


def _verify(program, nprocs, kwargs=None, **cfg):
    return DampiVerifier(
        program, nprocs, DampiConfig(**cfg), kwargs=dict(kwargs or {})
    ).verify()


# --------------------------------------------------------------------- #
# the key / the cache                                                    #
# --------------------------------------------------------------------- #


class TestCheckpointKey:
    def test_siblings_share_a_key(self):
        a = EpochDecisions(forced={(0, 0): 1, (0, 1): 2}, flip=(0, 1))
        b = EpochDecisions(forced={(0, 0): 1, (0, 1): 3}, flip=(0, 1))
        assert checkpoint_key(a) == checkpoint_key(b)

    def test_children_do_not_share_with_parents(self):
        parent = EpochDecisions(forced={(0, 0): 1}, flip=(0, 0))
        child = EpochDecisions(forced={(0, 0): 1, (0, 1): 2}, flip=(0, 1))
        assert checkpoint_key(parent) != checkpoint_key(child)

    def test_different_prefix_different_key(self):
        a = EpochDecisions(forced={(0, 0): 1, (0, 1): 2}, flip=(0, 1))
        b = EpochDecisions(forced={(0, 0): 2, (0, 1): 2}, flip=(0, 1))
        assert checkpoint_key(a) != checkpoint_key(b)

    def test_self_run_has_no_key(self):
        assert checkpoint_key(EpochDecisions()) is None

    def test_expect_siblings_json_round_trip(self):
        d = EpochDecisions(forced={(0, 1): 2}, flip=(0, 1), expect_siblings=False)
        back = EpochDecisions.from_json(d.to_json())
        assert back.expect_siblings is False
        # default True, and absent from the JSON payload when True
        d2 = EpochDecisions(forced={(0, 1): 2}, flip=(0, 1))
        assert "expect_siblings" not in json.loads(d2.to_json())
        assert EpochDecisions.from_json(d2.to_json()).expect_siblings is True

    def test_expect_siblings_never_part_of_identity(self):
        a = EpochDecisions(forced={(0, 1): 2}, flip=(0, 1), expect_siblings=True)
        b = EpochDecisions(forced={(0, 1): 2}, flip=(0, 1), expect_siblings=False)
        assert a == b
        assert checkpoint_key(a) == checkpoint_key(b)


def _snap(n: int) -> Snapshot:
    return Snapshot(payload=b"x" * n, fingerprint="f", nbytes=n, capture_seconds=0.0)


class TestPrefixCheckpointCache:
    def test_put_get_and_bytes_held(self):
        cache = PrefixCheckpointCache(100)
        assert cache.put("a", _snap(40))
        assert cache.get("a") is not None
        assert cache.bytes_held == 40
        assert cache.get("missing") is None

    def test_lru_eviction_under_budget_pressure(self):
        cache = PrefixCheckpointCache(100)
        cache.put("a", _snap(40))
        cache.put("b", _snap(40))
        cache.get("a")  # refresh a; b is now least-recently-used
        cache.put("c", _snap(40))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1
        assert cache.bytes_held <= 100

    def test_oversized_snapshot_rejected_not_thrashed(self):
        cache = PrefixCheckpointCache(100)
        cache.put("a", _snap(40))
        assert not cache.put("big", _snap(101))
        assert "big" not in cache and "a" in cache
        assert cache.skips == 1

    def test_replacing_a_key_reclaims_its_bytes(self):
        cache = PrefixCheckpointCache(100)
        cache.put("a", _snap(60))
        cache.put("a", _snap(10))
        assert cache.bytes_held == 10

    def test_stats_shape(self):
        cache = PrefixCheckpointCache(100)
        cache.hits, cache.misses = 3, 1
        s = cache.stats()
        assert s["hit_rate"] == 0.75
        assert set(s) >= {
            "hits", "misses", "evictions", "skips", "entries",
            "bytes_held", "budget_bytes", "restore_ms", "capture_ms",
            "ancestor_hits", "suffix_captures", "depth_hits",
        }

    def test_depth_hits_bucketed_by_restore_depth(self):
        cache = PrefixCheckpointCache(100)
        deep, shallow = _snap(1), _snap(1)
        deep.depth, shallow.depth = 7, 2
        cache.record_hit(deep)
        cache.record_hit(deep)
        cache.record_hit(shallow)
        assert cache.stats()["depth_hits"] == {"2": 1, "7": 2}


def _meta_snap(n: int, at, decided: dict, natural=None, pending=()) -> Snapshot:
    """A synthetic deep-sharing snapshot: capture metadata attached the
    way the replay session attaches it."""
    s = _snap(n)
    s.key = capture_key(at, decided)
    s.depth = len(decided)
    s.meta = {
        "decided": dict(decided),
        "natural": dict(natural or {}),
        "pending": tuple(pending),
    }
    return s


class TestHierarchicalFind:
    """`find` resolves the deepest usable snapshot: exact key first, then
    the ancestor scan over capture metadata."""

    CONSUMER = EpochDecisions(
        forced={(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 3}, flip=(0, 3)
    )

    def test_exact_key_preferred_over_ancestors(self):
        cache = PrefixCheckpointCache(1000)
        exact = _meta_snap(10, (0, 3), {(0, 0): 1, (0, 1): 2, (0, 2): 2})
        anc = _meta_snap(10, (0, 2), {(0, 0): 1, (0, 1): 2})
        cache.put(anc.key, anc)
        cache.put(exact.key, exact)
        assert cache.find(self.CONSUMER) is exact
        assert cache.ancestor_hits == 0

    def test_deepest_usable_ancestor_wins(self):
        cache = PrefixCheckpointCache(1000)
        d1 = _meta_snap(10, (0, 1), {(0, 0): 1})
        d2 = _meta_snap(10, (0, 2), {(0, 0): 1, (0, 1): 2})
        cache.put(d1.key, d1)
        cache.put(d2.key, d2)
        assert cache.find(self.CONSUMER) is d2
        assert cache.ancestor_hits == 1

    def test_ancestor_with_wrong_forced_value_rejected(self):
        cache = PrefixCheckpointCache(1000)
        wrong = _meta_snap(10, (0, 2), {(0, 0): 1, (0, 1): 9})
        cache.put(wrong.key, wrong)
        assert cache.find(self.CONSUMER) is None

    def test_naturally_decided_epoch_forced_by_consumer_rejected(self):
        # A natural wildcard post and a forced (directed) post of the
        # same epoch are NOT observably equivalent through the piggyback
        # layer, even at the same matched value — the snapshot must not
        # serve a schedule that forces what it matched naturally.
        snap = _meta_snap(
            10, (0, 2), {(0, 0): 1, (0, 1): 2}, natural={(0, 1): "recv"}
        )
        assert not snapshot_usable(snap, self.CONSUMER)
        cache = PrefixCheckpointCache(1000)
        cache.put(snap.key, snap)
        assert cache.find(self.CONSUMER) is None

    def test_naturally_decided_epoch_left_natural_is_fine(self):
        consumer = EpochDecisions(forced={(0, 0): 1, (0, 3): 3}, flip=(0, 3))
        snap = _meta_snap(
            10, (0, 2), {(0, 0): 1, (1, 4): 2}, natural={(1, 4): "recv"}
        )
        assert snapshot_usable(snap, consumer)

    def test_pending_epoch_in_forced_map_rejected(self):
        snap = _meta_snap(
            10, (0, 2), {(0, 0): 1, (0, 1): 2}, pending=((0, 2),)
        )
        assert not snapshot_usable(snap, self.CONSUMER)

    def test_flip_already_decided_rejected(self):
        snap = _meta_snap(
            10, (0, 3), {(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 3}
        )
        assert not snapshot_usable(snap, self.CONSUMER)

    def test_meta_less_snapshot_keeps_exact_key_semantics(self):
        # pre-deep-sharing snapshots (no meta) serve their exact key but
        # never the ancestor scan
        cache = PrefixCheckpointCache(1000)
        legacy = _snap(10)
        key = checkpoint_key(self.CONSUMER)
        cache.put(key, legacy)
        assert cache.find(self.CONSUMER) is legacy
        deeper = EpochDecisions(
            forced={**self.CONSUMER.forced, (0, 4): 1}, flip=(0, 4)
        )
        assert cache.find(deeper) is None

    def test_find_touches_lru_position(self):
        cache = PrefixCheckpointCache(100)
        a = _meta_snap(40, (0, 3), {(0, 0): 1, (0, 1): 2, (0, 2): 2})
        b = _meta_snap(40, (9, 9), {(8, 8): 1, (7, 7): 1, (6, 6): 1})
        cache.put(a.key, a)
        cache.put(b.key, b)
        cache.find(self.CONSUMER)  # touches a; b is now LRU-oldest
        c = _meta_snap(40, (5, 5), {(4, 4): 1, (3, 3): 1, (2, 2): 1})
        cache.put(c.key, c)
        assert b.key not in cache
        assert a.key in cache and c.key in cache

    def test_eviction_prefers_keeping_deep_prefixes(self):
        cache = PrefixCheckpointCache(100)
        deep = _meta_snap(40, (0, 5), {(0, i): 1 for i in range(5)})
        shallow = _meta_snap(40, (9, 9), {(8, 8): 1})
        cache.put(deep.key, deep)
        cache.put(shallow.key, shallow)
        newer = _meta_snap(40, (5, 5), {(4, 4): 1, (3, 3): 1})
        cache.put(newer.key, newer)
        # deep is older than shallow, but the shallow one is evicted
        assert shallow.key not in cache
        assert deep.key in cache and newer.key in cache
        assert cache.evictions == 1

    def test_ineligible_memo_survives_key_scheme_migration(self):
        # sibling-scheme keys (flip, sorted-forced-minus-flip) and deep
        # capture keys (at, sorted-decided) are the same tuple shape, so
        # a key poisoned under either scheme stays poisoned for both
        d = EpochDecisions(forced={(0, 0): 1, (0, 1): 2}, flip=(0, 1))
        cache = PrefixCheckpointCache(1000)
        cache.ineligible.add(checkpoint_key(d))
        assert capture_key(d.flip, {(0, 0): 1}) in cache.ineligible


# --------------------------------------------------------------------- #
# bit-identity: checkpointed replay vs full re-execution                 #
# --------------------------------------------------------------------- #


class TestZooBitIdentity:
    """Satellite: with and without checkpoints, same report — zoo-wide."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reports_identical(self, entry):
        on = _verify(entry.program, entry.nprocs, max_interleavings=40)
        off = _verify(
            entry.program, entry.nprocs,
            max_interleavings=40, prefix_checkpoints=False,
        )
        assert _canon(on) == _canon(off)

    def test_matmult_identical_and_restores_actually_happen(self):
        v = DampiVerifier(
            matmult_program, 4, DampiConfig(), kwargs=dict(MATMULT_KW)
        )
        on = v.verify()
        stats = on.parallel_stats["checkpoint"]
        assert stats["enabled"]
        assert stats["hits"] > 0  # the speedup path was really exercised
        assert stats["restore_ms"] > 0
        off = _verify(matmult_program, 4, MATMULT_KW, prefix_checkpoints=False)
        off_ckpt = off.parallel_stats["checkpoint"]
        assert not off_ckpt["enabled"] and off_ckpt["hits"] == 0
        assert _canon(on) == _canon(off)

    def test_checkpoint_interval_thins_recordings_identically(self):
        on = _verify(matmult_program, 4, MATMULT_KW, checkpoint_interval=2)
        off = _verify(matmult_program, 4, MATMULT_KW, prefix_checkpoints=False)
        assert _canon(on) == _canon(off)

    def test_tiny_budget_still_identical(self):
        # a 1 MiB budget forces eviction churn; correctness must not care
        on = _verify(matmult_program, 4, MATMULT_KW, checkpoint_cache_mb=1)
        off = _verify(matmult_program, 4, MATMULT_KW, prefix_checkpoints=False)
        assert _canon(on) == _canon(off)


class TestJobsAndDistIdentity:
    def test_jobs2_checkpointed_matches_serial_full(self):
        on = _verify(
            matmult_program, 4, MATMULT_KW, jobs=2, force_jobs=True
        )
        off = _verify(matmult_program, 4, MATMULT_KW, prefix_checkpoints=False)
        assert _canon(on) == _canon(off)
        ckpt = on.parallel_stats["checkpoint"]
        assert ckpt["enabled"]
        # pool workers execute the replays; their caches report upstream
        assert ckpt["workers_reporting"] >= 1
        assert ckpt["hits"] > 0

    def test_two_worker_dist_matches_serial_full(self):
        from repro.dist import distributed_verify

        off = _verify(matmult_program, 4, MATMULT_KW, prefix_checkpoints=False)
        rep = distributed_verify(
            matmult_program, 4, DampiConfig(),
            workers=2, kwargs=dict(MATMULT_KW),
        )
        assert _canon(rep) == _canon(off)
        counters = rep.telemetry["metrics"]["counters"]
        # sibling leases landing on the same worker restored from cache
        assert counters.get("ckpt.hits", 0) > 0


class TestStealSplitHint:
    """Satellite: ``expect_siblings`` goes stale across dist
    steal-splits (the victim's sibling set is rewritten after leases are
    cut), so a ``False`` hint must never suppress a deep-sharing
    recording — every miss records, in-run captures amortize it."""

    def test_no_siblings_hint_still_records(self):
        from repro.dampi.explorer import ScheduleGenerator

        v = DampiVerifier(
            matmult_program, 4, DampiConfig(), kwargs=dict(MATMULT_KW)
        )
        try:
            _, trace = v.run_once(None)  # cold self run
            explorer = ScheduleGenerator()
            explorer.seed(trace)
            d = explorer.next_decisions()
            assert d is not None and d.flip is not None
            hinted = EpochDecisions(
                forced=dict(d.forced), flip=d.flip, expect_siblings=False
            )
            v.run_once(hinted)  # second run: persistent session records
            sess = v._session
            assert sess is not None
            assert sess.checkpoint_cache is not None
            assert checkpoint_key(hinted) in sess.checkpoint_cache
            assert sess.checkpoint_cache.misses == 1
        finally:
            v.close()


# --------------------------------------------------------------------- #
# determinism of the checkpoint path itself                              #
# --------------------------------------------------------------------- #


def _count_calls(monkeypatch) -> collections.Counter:
    """Count snapshot captures, restores and engine entries (every
    ``pmpi_*`` call plus ``begin_call``) across all rank threads."""
    calls: collections.Counter = collections.Counter()
    lock = threading.Lock()

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("snapshot", "restore"):
        monkeypatch.setattr(
            Runtime, name, counting(name, getattr(Runtime, name))
        )
    for name, fn in list(vars(MessageEngine).items()):
        if name.startswith("pmpi_") or name == "begin_call":
            monkeypatch.setattr(MessageEngine, name, counting("engine", fn))
    return calls


class TestStartupDeterminism:
    """A rank the OS has started but that has not yet held the token has
    executed nothing: capture eligibility and restores must not depend
    on whether its thread happened to run (thread start-up timing)."""

    def test_repeated_campaigns_count_identically(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        seen = []
        for _ in range(5):
            calls.clear()
            rep = _verify(
                matmult_program, 4, MATMULT_KW, trace_events=True
            )
            ckpt = rep.parallel_stats["checkpoint"]
            counters = rep.telemetry["metrics"]["counters"]
            seen.append((
                {k: ckpt[k] for k in (
                    "hits", "misses", "ancestor_hits", "suffix_captures",
                    "entries", "bytes_held",
                )},
                dict(calls),
                {k: v for k, v in counters.items() if k.startswith("engine.")},
            ))
        assert calls["restore"] > 0 and calls["snapshot"] > 0
        for other in seen[1:]:
            assert other == seen[0]


def _recorded_snapshot(v):
    """Self run, then one guided replay that records and captures at its
    own flip; returns the replay's decisions and the cached snapshot."""
    from repro.dampi.explorer import ScheduleGenerator

    _, trace = v.run_once(None)
    explorer = ScheduleGenerator()
    explorer.seed(trace)
    d = explorer.next_decisions()
    v.run_once(d)
    snap = v._session.checkpoint_cache.find(d)
    assert snap is not None and snap.obs is not None
    return d, snap


class TestTracerStateOutsidePickle:
    """The tracer's prefix stream rides on the Snapshot by reference."""

    def test_restoring_one_snapshot_twice_yields_identical_streams(self):
        v = DampiVerifier(
            matmult_program, 4, DampiConfig(trace_events=True),
            kwargs=dict(MATMULT_KW),
        )
        try:
            d, snap = _recorded_snapshot(v)
            records, counts, dropped = snap.obs
            assert records
            pristine = (list(records), dict(counts), dropped)
            streams = []
            for _ in range(2):
                result, _ = v.run_once(d)
                assert result.phases.get("restore", 0) > 0
                obs = result.artifacts["obs"]
                streams.append(
                    (obs["records"], obs["counts"], obs["dropped"])
                )
                # the held state is shared, never written through
                assert snap.obs == pristine
            (a, a_counts, a_drop), (b, b_counts, b_drop) = streams
            assert (a_counts, a_drop) == (b_counts, b_drop)
            # identical streams up to the suffix's own timestamps
            assert event_signature(render(a)) == event_signature(render(b))
            assert a[:len(records)] == records == b[:len(records)]
        finally:
            v.close()

    def test_nbytes_covers_the_held_tracer_state(self):
        v = DampiVerifier(
            matmult_program, 4, DampiConfig(trace_events=True),
            kwargs=dict(MATMULT_KW),
        )
        try:
            _, snap = _recorded_snapshot(v)
        finally:
            v.close()
        held = state_nbytes(snap.obs)
        assert held > 0
        assert snap.nbytes == len(snap.payload) + held


# --------------------------------------------------------------------- #
# demotion: non-snapshotable resources fall back to full replay          #
# --------------------------------------------------------------------- #


class TestDemotion:
    def test_trace_ops_demotes_with_reason_and_identical_report(self):
        v = DampiVerifier(
            matmult_program, 4,
            DampiConfig(trace_ops=True), kwargs=dict(MATMULT_KW),
        )
        on = v.verify()
        ckpt = on.parallel_stats["checkpoint"]
        assert not ckpt["enabled"]
        assert ckpt["demote_reason"]
        assert ckpt["hits"] == 0
        off = _verify(
            matmult_program, 4, MATMULT_KW,
            trace_ops=True, prefix_checkpoints=False,
        )
        assert _canon(on) == _canon(off)

    def test_disabled_by_config_reports_disabled_block(self):
        rep = _verify(
            matmult_program, 4, MATMULT_KW, prefix_checkpoints=False
        )
        ckpt = rep.parallel_stats["checkpoint"]
        assert not ckpt["enabled"]
        assert ckpt["hits"] == 0 and ckpt["misses"] == 0


# --------------------------------------------------------------------- #
# fault matrix: death mid-restore                                        #
# --------------------------------------------------------------------- #


def _journaled_child(journal_dir, fault_plan):
    DampiVerifier(
        matmult_program, 4,
        DampiConfig(fault_plan=fault_plan), kwargs=dict(MATMULT_KW),
    ).verify(journal=journal_dir)
    os._exit(0)  # reached only if the plan never killed us


class TestKillMidRestore:
    def test_serial_kill_at_restore_then_resume_identical(self, tmp_path):
        """The campaign dies *inside* a snapshot restore; the journal
        resume re-executes only uncovered runs and the report matches the
        uninterrupted oracle bit for bit."""
        oracle = _verify(matmult_program, 4, MATMULT_KW)
        journal_dir = tmp_path / "j"
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_journaled_child,
            args=(str(journal_dir), "kill@restore:0.1"),
        )
        proc.start()
        proc.join(120)
        assert proc.exitcode == FAULT_EXIT_CODE, proc.exitcode
        resumed = DampiVerifier(
            matmult_program, 4, DampiConfig(), kwargs=dict(MATMULT_KW)
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] > 0
        assert _canon(resumed) == _canon(oracle)

    def test_dist_worker_killed_mid_restore_identical(self, tmp_path):
        """A shard worker dies mid-restore; the coordinator re-issues the
        lease (the shard journal replays finished runs) and the assembled
        report still matches the serial oracle exactly."""
        from repro.dist import distributed_verify

        oracle = _verify(matmult_program, 4, MATMULT_KW)
        rep = distributed_verify(
            matmult_program, 4,
            DampiConfig(fault_plan="kill@restore:0.1"),
            workers=2, kwargs=dict(MATMULT_KW),
            journal=tmp_path / "j",
        )
        assert rep.parallel_stats["worker_deaths"] >= 1
        assert _canon(rep) == _canon(oracle)
