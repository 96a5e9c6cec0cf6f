"""The parallel paths: distributed verification against the serial walk,
and the campaign cell pool.

The headline property: ``repro dist run --workers N`` (the one parallel
walk driver) produces a report *bit-identical* to the serial DFS — under
budgets and bounded mixing too.  Campaign cells are independent
verifications; pooling them changes nothing but wall time.
"""

from __future__ import annotations

import pickle

import pytest

from repro.dampi.campaign import run_campaign
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.dist import distributed_verify
from repro.errors import AbortError, DeadlockError
from repro.mpi.constants import ANY_SOURCE
from repro.workloads.bugzoo import ZOO
from repro.workloads.patterns import wildcard_lattice

from tests.conftest import report_fingerprint


class TestSerialParallelDeterminism:
    """Serial and distributed walks of one campaign must agree exactly."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reports_identical(self, entry):
        cfg = DampiConfig(max_interleavings=40)
        serial = DampiVerifier(entry.program, entry.nprocs, cfg).verify()
        parallel = distributed_verify(
            entry.program, entry.nprocs, cfg, workers=2
        )
        assert report_fingerprint(serial) == report_fingerprint(parallel)

    @pytest.mark.parametrize("bound_k", [0, 1, None])
    def test_lattice_identical_across_bounds(self, bound_k):
        cfg = DampiConfig(bound_k=bound_k)
        kwargs = {"receives": 3, "senders": 3}
        serial = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        parallel = distributed_verify(
            wildcard_lattice, 4, cfg, workers=2, kwargs=kwargs
        )
        assert report_fingerprint(serial) == report_fingerprint(parallel)
        assert parallel.parallel_stats["mode"] == "dist"
        assert parallel.parallel_stats["worker_deaths"] == 0

    def test_budget_truncation_identical(self):
        cfg = DampiConfig(max_interleavings=7)
        kwargs = {"receives": 3, "senders": 3}
        serial = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        parallel = distributed_verify(
            wildcard_lattice, 4, cfg, workers=3, kwargs=kwargs
        )
        assert serial.truncated and parallel.truncated
        assert report_fingerprint(serial) == report_fingerprint(parallel)


def _lattice_body(p):
    if p.rank == 0:
        got = []
        for _ in range(p.size - 1):
            got.append(p.world.recv(source=ANY_SOURCE))
        return tuple(sorted(got))
    p.world.send(bytes([p.rank]), dest=0)
    return None


class TestParallelCampaign:
    def test_pooled_cells_match_serial_sweep(self):
        kwargs = {"receives": 2, "senders": 2}
        serial = run_campaign(wildcard_lattice, [3, 4], kwargs=kwargs, jobs=1)
        pooled = run_campaign(wildcard_lattice, [3, 4], kwargs=kwargs, jobs=2)
        assert [(c.nprocs, c.config_name) for c in pooled.cells] == [
            (c.nprocs, c.config_name) for c in serial.cells
        ]
        for a, b in zip(serial.cells, pooled.cells):
            assert report_fingerprint(a.report) == report_fingerprint(b.report)

    def test_unpicklable_campaign_falls_back_serial(self):
        box = []

        def program(p):
            box.append(0)
            return _lattice_body(p)

        result = run_campaign(program, [3], jobs=2)
        assert len(result.cells) == 2 and result.ok


class TestPicklingSupport:
    """Pooled campaign cells ship their reports — findings included —
    back across a process boundary."""

    def test_deadlock_error_roundtrip(self):
        e = DeadlockError({0: "recv(src=1)", 1: "recv(src=0)"})
        e2 = pickle.loads(pickle.dumps(e))
        assert e2.blocked == e.blocked and str(e2) == str(e)

    def test_abort_error_roundtrip(self):
        e = AbortError(3, errorcode=9)
        e2 = pickle.loads(pickle.dumps(e))
        assert (e2.rank, e2.errorcode) == (3, 9) and str(e2) == str(e)
