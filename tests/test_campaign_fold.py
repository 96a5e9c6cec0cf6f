"""One campaign fold, three drivers: live verify, journal resume, and
distributed assembly must produce the same report, telemetry and run
tree — and a journal round trip must not change what pruning sees.
"""

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.dampi import CampaignJournal, DampiConfig, DampiVerifier, JournalError
from repro.dampi import journal as jr
from repro.dampi.artifacts import ArtifactStore
from repro.dampi.faults import FAULT_EXIT_CODE
from repro.dampi.prune import _fingerprint
from repro.dist import distributed_verify
from repro.obs.metrics import deterministic_view
from repro.workloads.bugzoo import ZOO
from repro.workloads.matmult import matmult_program
from repro.workloads.patterns import wildcard_lattice
from tests.test_journal import BIG, _canon

#: 149 interleavings (8 pruned subtrees) at np=4: ranks without wildcard
#: epochs, so a journal round trip that drops empty rank rows changes
#: prune decisions
MATMULT4 = {"n": 4, "blocks_per_slave": 2}

WORKLOADS = {
    "lattice": (wildcard_lattice, 4, BIG),
    "matmult4": (matmult_program, 4, MATMULT4),
}


def _deterministic_metrics(report) -> dict:
    snap = deterministic_view(report.telemetry["metrics"])
    return {"counters": snap["counters"], "gauges": snap["gauges"]}


def _verify_child(journal_dir, fault_plan):
    cfg = DampiConfig(prune=True, fault_plan=fault_plan)
    DampiVerifier(matmult_program, 4, cfg, kwargs=MATMULT4).verify(
        journal=journal_dir
    )
    os._exit(0)  # reached only if the plan never killed us


class TestPruneSignatureRoundTrip:
    @pytest.mark.parametrize(
        "program,nprocs,kwargs",
        [(e.program, e.nprocs, {}) for e in ZOO]
        + [(matmult_program, 4, MATMULT4)],
        ids=[e.name for e in ZOO] + ["matmult4"],
    )
    def test_fingerprint_survives_journal_and_store(
        self, tmp_path, program, nprocs, kwargs
    ):
        report = DampiVerifier(
            program, nprocs, DampiConfig(keep_traces=True), kwargs=kwargs
        ).verify()
        store = ArtifactStore(tmp_path)
        assert len(report.traces) == report.interleavings
        for i, trace in enumerate(report.traces):
            live = _fingerprint(trace)
            decoded = jr.trace_from_jsonable(
                json.loads(json.dumps(jr.trace_to_jsonable(trace)))
            )
            assert _fingerprint(decoded) == live, i
            store.write_run(i, trace)
            assert _fingerprint(store.load_run_trace(i)) == live, i


class TestPrunedResume:
    """Resume under pruning folds decoded traces: it must make the same
    prune decisions as the live walk."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return DampiVerifier(
            matmult_program, 4, DampiConfig(prune=True), kwargs=MATMULT4
        ).verify()

    def test_complete_journal(self, tmp_path, oracle):
        cfg = DampiConfig(prune=True)
        DampiVerifier(matmult_program, 4, cfg, kwargs=MATMULT4).verify(
            journal=tmp_path
        )
        resumed = DampiVerifier(
            matmult_program, 4, cfg, kwargs=MATMULT4
        ).verify(journal=tmp_path)
        assert resumed.journal_stats["executed"] == 0
        assert _canon(resumed) == _canon(oracle)

    @pytest.mark.parametrize("kill_at", [20, 140])
    def test_killed_campaign(self, tmp_path, oracle, kill_at):
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_verify_child, args=(str(tmp_path), f"kill@run:{kill_at}")
        )
        proc.start()
        proc.join(120)
        assert proc.exitcode == FAULT_EXIT_CODE, proc.exitcode
        resumed = DampiVerifier(
            matmult_program, 4, DampiConfig(prune=True), kwargs=MATMULT4
        ).verify(journal=tmp_path)
        assert resumed.journal_stats["replayed"] == kill_at
        assert _canon(resumed) == _canon(oracle)


class TestThreeDrivers:
    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "prune"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_reports_and_telemetry_agree(self, tmp_path, workload, prune):
        program, nprocs, kwargs = WORKLOADS[workload]
        cfg = DampiConfig(prune=prune)
        serial = DampiVerifier(program, nprocs, cfg, kwargs=kwargs).verify()
        DampiVerifier(program, nprocs, cfg, kwargs=kwargs).verify(
            journal=tmp_path
        )
        resumed = DampiVerifier(program, nprocs, cfg, kwargs=kwargs).verify(
            journal=tmp_path
        )
        assert resumed.journal_stats["executed"] == 0
        dist = distributed_verify(program, nprocs, cfg, workers=2, kwargs=kwargs)
        want = _deterministic_metrics(serial)
        for report in (resumed, dist):
            assert _canon(report) == _canon(serial)
            assert _deterministic_metrics(report) == want

    def test_artifact_run_tree_agrees(self, tmp_path):
        def tree(root):
            return {
                str(p.relative_to(root)): p.read_text()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        def cfg(name):
            return DampiConfig(prune=True, artifacts_dir=str(tmp_path / name))

        journal = tmp_path / "j"
        DampiVerifier(matmult_program, 3, cfg("serial")).verify(journal=journal)
        DampiVerifier(matmult_program, 3, cfg("resume")).verify(journal=journal)
        distributed_verify(matmult_program, 3, cfg("dist"), workers=2)
        serial = tree(tmp_path / "serial")
        assert any(name.endswith("decisions.json") for name in serial)
        assert tree(tmp_path / "resume") == serial
        assert tree(tmp_path / "dist") == serial


def _stamp_version(journal_dir, version: int) -> None:
    """Rewrite a journal's meta record to claim an older format."""
    segment = min(journal_dir.glob("segment-*.jsonl"))
    meta, rest = segment.read_text().split("\n", 1)
    record = json.loads(meta)
    assert record["t"] == "meta" and record["version"] == jr.JOURNAL_VERSION
    record["version"] = version
    segment.write_text(json.dumps(record) + "\n" + rest)


class TestJournalVersion:
    def _journal(self, tmp_path, version: int):
        journal_dir = tmp_path / "j"
        journal = CampaignJournal(
            journal_dir, program_label="repro.workloads.patterns:wildcard_lattice"
        )
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(),
            kwargs={"receives": 2, "senders": 2},
        ).verify(journal=journal)
        _stamp_version(journal_dir, version)
        return journal_dir

    @pytest.fixture
    def v1_journal(self, tmp_path):
        return self._journal(tmp_path, 1)

    @pytest.fixture
    def v2_journal(self, tmp_path):
        """Version 2 wrote potential matches as JSON objects."""
        return self._journal(tmp_path, 2)

    @pytest.fixture
    def v2_dist_journal(self, tmp_path):
        journal_dir = tmp_path / "dj"
        distributed_verify(
            wildcard_lattice, 3, DampiConfig(), workers=1,
            kwargs={"receives": 2, "senders": 2}, journal=journal_dir,
        )
        _stamp_version(journal_dir, 2)
        return journal_dir

    def test_version_1_journal_is_rejected(self, v1_journal):
        with pytest.raises(JournalError, match="version 1"):
            DampiVerifier(
                wildcard_lattice, 3, DampiConfig(),
                kwargs={"receives": 2, "senders": 2},
            ).verify(journal=v1_journal)

    def test_version_2_journal_is_rejected(self, v2_journal):
        with pytest.raises(JournalError, match="version 2"):
            DampiVerifier(
                wildcard_lattice, 3, DampiConfig(),
                kwargs={"receives": 2, "senders": 2},
            ).verify(journal=v2_journal)
        with pytest.raises(SystemExit, match="version 2"):
            main(["resume", str(v2_journal)])

    def test_version_2_dist_journal_is_rejected(self, v2_dist_journal):
        with pytest.raises(JournalError, match="version 2"):
            distributed_verify(
                wildcard_lattice, 3, DampiConfig(), workers=1,
                kwargs={"receives": 2, "senders": 2}, journal=v2_dist_journal,
            )
        with pytest.raises(SystemExit, match="version 2"):
            main(["dist", "resume", str(v2_dist_journal)])

    def test_cli_resume_names_the_version(self, v1_journal):
        with pytest.raises(SystemExit, match="version 1"):
            main(["resume", str(v1_journal)])
