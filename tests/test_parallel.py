"""The parallel replay engine: frontier batches, the worker pool, and the
serial-vs-parallel determinism guarantee.

The headline property: for any program and any ``jobs`` setting the
verification report is *bit-identical* to the serial walk — the pool only
pre-computes schedules the serial DFS is going to request anyway.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import replace

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.campaign import run_campaign
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.parallel import (
    ReplaySpec,
    schedule_key,
    simulate_wave_schedule,
)
from repro.dampi.verifier import DampiVerifier
from repro.errors import AbortError, DeadlockError
from repro.mpi.constants import ANY_SOURCE
from repro.workloads.bugzoo import ZOO
from repro.workloads.patterns import wildcard_lattice

from tests.test_explorer import trace_with

#: workers fork from the test process; programs can tell where they run
_MAIN_PID = os.getpid()


def _report_fingerprint(report):
    """Everything the determinism property compares between jobs settings."""
    return {
        "interleavings": report.interleavings,
        "outcomes": report.outcomes,
        "errors": {(e.kind, e.detail) for e in report.errors},
        "error_indices": sorted((e.kind, e.run_index) for e in report.errors),
        "flips": [r.flip for r in report.runs],
        "run_outcomes": [r.outcome for r in report.runs],
        "run_errors": [r.error_kinds for r in report.runs],
        "divergences": report.divergences,
        "truncated": report.truncated,
    }


class TestSerialParallelDeterminism:
    """Satellite: jobs=1 and jobs=4 must produce identical reports."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reports_identical(self, entry):
        cfg = DampiConfig(max_interleavings=40)
        serial = DampiVerifier(entry.program, entry.nprocs, cfg).verify()
        parallel = DampiVerifier(
            entry.program, entry.nprocs, replace(cfg, jobs=4)
        ).verify()
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    @pytest.mark.parametrize("bound_k", [0, 1, None])
    def test_lattice_identical_across_bounds(self, bound_k):
        # force_jobs: actually exercise worker processes even on a
        # single-CPU host (where jobs>1 would auto-demote to inline)
        cfg = DampiConfig(bound_k=bound_k)
        kwargs = {"receives": 3, "senders": 3}
        serial = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        parallel = DampiVerifier(
            wildcard_lattice, 4, replace(cfg, jobs=4, force_jobs=True), kwargs=kwargs
        ).verify()
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)
        assert parallel.parallel_stats["mode"] == "pool"
        assert not parallel.parallel_stats["demoted"]

    def test_budget_truncation_identical(self):
        cfg = DampiConfig(max_interleavings=7)
        kwargs = {"receives": 3, "senders": 3}
        serial = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        parallel = DampiVerifier(
            wildcard_lattice, 4, replace(cfg, jobs=3), kwargs=kwargs
        ).verify()
        assert serial.truncated and parallel.truncated
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)


class TestFrontierBatch:
    """next_decision_batch(): pending schedules without state mutation."""

    def _seeded(self, bound_k=None):
        g = ScheduleGenerator(bound_k=bound_k)
        g.seed(
            trace_with(
                [(0, 0, 1), (0, 1, 1), (1, 2, 0)],
                [(0, 0, 2), (0, 0, 3), (0, 1, 2), (1, 2, 3)],
            )
        )
        return g

    def test_first_element_is_next_decisions(self):
        g = self._seeded()
        batch = g.next_decision_batch(8)
        d = g.next_decisions()
        assert schedule_key(batch[0]) == schedule_key(d)

    def test_batch_is_pure(self):
        g = self._seeded()
        a = [schedule_key(d) for d in g.next_decision_batch(8)]
        b = [schedule_key(d) for d in g.next_decision_batch(8)]
        assert a == b

    def test_unbounded_batch_stays_on_deepest_node(self):
        g = self._seeded(bound_k=None)
        batch = g.next_decision_batch(8)
        # deepest node (1,2) has exactly one alternative; with mixing
        # allowed the wave must not speculate across nodes
        assert [d.flip for d in batch] == [(1, 2)]

    def test_k0_batch_roams_all_open_nodes(self):
        g = self._seeded(bound_k=0)
        batch = g.next_decision_batch(8)
        # k=0: every open node's flips form one wave (4 alternatives total)
        assert [d.flip for d in batch] == [(1, 2), (0, 1), (0, 0), (0, 0)]

    def test_width_caps_the_wave(self):
        g = self._seeded(bound_k=0)
        assert len(g.next_decision_batch(2)) == 2

    def test_empty_iff_exhausted(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], []))
        assert g.next_decision_batch(4) == []
        assert g.next_decisions() is None

    def test_sibling_schedules_match_later_serial_requests(self):
        # the guarantee the executor's cache is built on: every schedule in
        # the wave is eventually requested verbatim by the serial walk
        g = self._seeded(bound_k=0)
        speculated = {schedule_key(d) for d in g.next_decision_batch(16)}
        requested = set()
        while True:
            d = g.next_decisions()
            if d is None:
                break
            requested.add(schedule_key(d))
            epochs = [
                (r, lc, d.forced.get((r, lc), 1))
                for (r, lc) in [(0, 0), (0, 1), (1, 2)]
            ]
            g.integrate(trace_with(epochs, []))
        assert speculated <= requested


def _lattice_body(p):
    if p.rank == 0:
        got = []
        for _ in range(p.size - 1):
            got.append(p.world.recv(source=ANY_SOURCE))
        return tuple(sorted(got))
    p.world.send(bytes([p.rank]), dest=0)
    return None


def crash_in_worker_program(p):
    """Dies instantly — but only inside a pool worker process."""
    if os.getpid() != _MAIN_PID:
        os._exit(17)
    return _lattice_body(p)


def sleep_in_worker_program(p):
    """Takes ~1s per rank 0 — but only inside a pool worker process."""
    if os.getpid() != _MAIN_PID and p.rank == 0:
        time.sleep(1.0)
    return _lattice_body(p)


class TestWorkerPoolDegradation:
    def test_unpicklable_program_falls_back_inline(self):
        captured = []  # a closure is unpicklable

        def program(p):
            captured.append(p.rank)
            return _lattice_body(p)

        report = DampiVerifier(program, 4, DampiConfig(jobs=4)).verify()
        assert report.parallel_stats["mode"] == "inline"
        serial = DampiVerifier(program, 4, DampiConfig(jobs=1)).verify()
        assert _report_fingerprint(report) == _report_fingerprint(serial)

    def test_single_cpu_hosts_auto_demote_with_reason(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(jobs=4), kwargs={"receives": 2, "senders": 2}
        ).verify()
        stats = report.parallel_stats
        assert stats["demoted"] and "single-CPU host" in stats["demote_reason"]
        assert stats["submitted"] == 0  # the pool never even started
        serial = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(jobs=1), kwargs={"receives": 2, "senders": 2}
        ).verify()
        assert _report_fingerprint(report) == _report_fingerprint(serial)

    def test_force_jobs_overrides_single_cpu_demotion(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = DampiVerifier(
            wildcard_lattice,
            4,
            DampiConfig(jobs=2, force_jobs=True),
            kwargs={"receives": 2, "senders": 2},
        ).verify()
        stats = report.parallel_stats
        assert not stats["demoted"] and stats["demote_reason"] is None
        assert stats["submitted"] > 0

    def test_dead_worker_reported_as_crash_and_session_survives(self):
        report = DampiVerifier(
            crash_in_worker_program, 4, DampiConfig(jobs=2, force_jobs=True)
        ).verify()
        stats = report.parallel_stats
        assert stats["demoted"] and stats["failures"] >= 1
        kinds = {e.kind for e in report.errors}
        assert "crash" in kinds
        lost = [e for e in report.errors if "worker died" in e.detail]
        assert lost and lost[0].decisions is not None  # witness survives
        # after demotion the rest of the space was walked in-process
        serial = DampiVerifier(
            crash_in_worker_program, 4, DampiConfig(jobs=1)
        ).verify()
        assert report.interleavings == serial.interleavings

    def test_timed_out_worker_reported_as_crash(self):
        report = DampiVerifier(
            sleep_in_worker_program,
            4,
            DampiConfig(
                jobs=2,
                force_jobs=True,
                job_timeout_seconds=0.15,
                max_interleavings=3,
            ),
        ).verify()
        timeouts = [e for e in report.errors if "exceeded" in e.detail]
        assert timeouts and all(e.kind == "crash" for e in timeouts)
        assert all(e.decisions is not None for e in timeouts)
        # each wedged worker was abandoned by recycling the pool — the
        # session stays in pool mode rather than demoting to inline
        stats = report.parallel_stats
        assert stats["abandoned_workers"] == len(timeouts)
        assert not stats["demoted"]


class TestParallelCampaign:
    def test_pooled_cells_match_serial_sweep(self):
        kwargs = {"receives": 2, "senders": 2}
        serial = run_campaign(wildcard_lattice, [3, 4], kwargs=kwargs, jobs=1)
        pooled = run_campaign(wildcard_lattice, [3, 4], kwargs=kwargs, jobs=2)
        assert [(c.nprocs, c.config_name) for c in pooled.cells] == [
            (c.nprocs, c.config_name) for c in serial.cells
        ]
        for a, b in zip(serial.cells, pooled.cells):
            assert _report_fingerprint(a.report) == _report_fingerprint(b.report)

    def test_unpicklable_campaign_falls_back_serial(self):
        box = []

        def program(p):
            box.append(0)
            return _lattice_body(p)

        result = run_campaign(program, [3], jobs=2)
        assert len(result.cells) == 2 and result.ok


class TestPicklingSupport:
    def test_deadlock_error_roundtrip(self):
        e = DeadlockError({0: "recv(src=1)", 1: "recv(src=0)"})
        e2 = pickle.loads(pickle.dumps(e))
        assert e2.blocked == e.blocked and str(e2) == str(e)

    def test_abort_error_roundtrip(self):
        e = AbortError(3, errorcode=9)
        e2 = pickle.loads(pickle.dumps(e))
        assert (e2.rank, e2.errorcode) == (3, 9) and str(e2) == str(e)

    def test_replay_spec_picklable_probe(self):
        good = ReplaySpec(DampiVerifier, wildcard_lattice, 3, DampiConfig())
        assert good.picklable()
        bad = ReplaySpec(DampiVerifier, lambda p: None, 3, DampiConfig())
        assert not bad.picklable()


class TestWaveSimulation:
    def test_serial_is_sum_and_wide_waves_scale(self):
        keys = [("k", i) for i in range(8)]
        durs = [1.0] * 8
        waves = [[keys[j] for j in range(i, min(i + 8, 8))] for i in range(8)]
        t1 = simulate_wave_schedule(keys, durs, waves, jobs=1)
        t4 = simulate_wave_schedule(keys, durs, waves, jobs=4)
        assert t1 == pytest.approx(8.0)
        assert t4 == pytest.approx(2.0)

    def test_dependent_chain_does_not_scale(self):
        # each wave reveals only the next schedule: span == work
        keys = [("k", i) for i in range(4)]
        waves = [[k] for k in keys]
        t1 = simulate_wave_schedule(keys, [1.0] * 4, waves, jobs=1)
        t4 = simulate_wave_schedule(keys, [1.0] * 4, waves, jobs=4)
        assert t1 == t4 == pytest.approx(4.0)


class TestTelemetryDeterminism:
    """Satellite: telemetry must not break the jobs-independence contract.

    Deterministic metric namespaces (engine.*, pb.*, campaign.*, run.*)
    derive from consumed runs only, and consumed runs are bit-identical
    across jobs settings — so the totals must be too.  Environment-
    dependent numbers (exec.*, wall.*) are excluded by design.
    """

    def _verify(self, jobs):
        cfg = DampiConfig(
            trace_events=True, jobs=jobs, force_jobs=jobs > 1
        )
        return DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs={"receives": 2, "senders": 3}
        ).verify()

    def test_jobs2_metrics_totals_match_serial(self):
        from repro.obs.metrics import deterministic_view

        serial = self._verify(1)
        pooled = self._verify(2)
        assert _report_fingerprint(serial) == _report_fingerprint(pooled)
        assert deterministic_view(
            serial.telemetry["metrics"]
        ) == deterministic_view(pooled.telemetry["metrics"])

    def test_jobs2_run_events_match_serial(self):
        from repro.obs.trace import event_signature

        def consumed_run_events(report):
            # sched-category events come from the pool itself and are
            # jobs-dependent by nature; everything else must match
            return event_signature(
                e for e in report.events if e.cat != "sched"
            )

        serial = self._verify(1)
        pooled = self._verify(2)
        assert consumed_run_events(serial) == consumed_run_events(pooled)

    def test_executor_shares_campaign_registry(self):
        report = self._verify(2)
        counters = report.telemetry["metrics"]["counters"]
        gauges = report.telemetry["metrics"]["gauges"]
        # pool accounting lands in exec.* counters, not duplicate gauges
        assert counters["exec.submitted"] > 0
        for key in ("submitted", "hits", "misses", "failures", "wasted"):
            assert f"exec.{key}" not in gauges
        assert gauges["exec.jobs"] == 2
