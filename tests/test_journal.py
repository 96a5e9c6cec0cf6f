"""The durable campaign journal: crash, resume, bit-identity.

The acceptance bar for this subsystem: a campaign killed mid-run (by an
injected fault) and resumed from its journal produces a report
bit-identical to an uninterrupted run — without re-executing the
interleavings already journaled (the re-executed count is asserted).
"""

import json
import multiprocessing
import os
import tracemalloc

import pytest

from repro.cli import main
from repro.clocks.lamport import LamportStamp
from repro.clocks.vector import VectorStamp
from repro.dampi import (
    CampaignJournal,
    DampiConfig,
    DampiVerifier,
    JournalError,
    escalating_verify,
    run_campaign,
)
from repro.dampi import journal as jr
from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.epoch import PotentialMatch
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.faults import FAULT_EXIT_CODE
from repro.dampi.prune import ESCALATED_ENV_UID
from repro.workloads.patterns import wildcard_lattice
from tests.test_explorer import trace_with
from tests.conftest import report_fingerprint

#: 4 interleavings at np=3 — small enough to crash precisely mid-walk
LATTICE = {"receives": 2, "senders": 2}
#: 27 interleavings at np=4 — big enough for checkpoints and rotation
BIG = {"receives": 3, "senders": 3}


def _canon(report) -> dict:
    """The bit-identity view of a report: its JSON minus the two fields
    that are honest about wall-clock (and therefore never reproducible)."""
    d = json.loads(report.to_json())
    d.pop("wall_seconds", None)
    d.pop("telemetry", None)
    return d


def _verify_child(journal_dir, fault_plan, nprocs, kwargs, cfg_overrides):
    """Child-process body: run a journaled verification that a ``kill``
    fault is expected to take down."""
    cfg = DampiConfig(fault_plan=fault_plan, **cfg_overrides)
    DampiVerifier(
        wildcard_lattice, nprocs, cfg, kwargs=dict(kwargs)
    ).verify(journal=journal_dir)
    os._exit(0)  # reached only if the plan never killed us


def _crash_campaign(journal_dir, fault_plan, nprocs=3, kwargs=LATTICE, **cfg):
    """Run a journaled verification in a child process and assert the
    injected fault — not anything else — killed it."""
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=_verify_child,
        args=(str(journal_dir), fault_plan, nprocs, kwargs, cfg),
    )
    proc.start()
    proc.join(120)
    assert proc.exitcode == FAULT_EXIT_CODE, proc.exitcode


class TestCrashResume:
    def test_midrun_kill_then_resume_is_bit_identical(self, tmp_path):
        """THE acceptance test: kill the campaign before replay 2, resume,
        get the uninterrupted report back bit-for-bit — having re-executed
        only the runs the journal had not yet seen."""
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        # the journal held the self run + replay 1; only 2..3 re-executed
        assert resumed.journal_stats["replayed"] == 2
        assert resumed.journal_stats["executed"] == oracle.interleavings - 2
        assert _canon(resumed) == _canon(oracle)
        assert report_fingerprint(resumed) == report_fingerprint(oracle)

    def test_kill_during_self_run_restarts_cleanly(self, tmp_path):
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@self")
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        # nothing made it to the journal before the kill
        assert resumed.journal_stats == {
            "dir": str(journal_dir),
            "replayed": 0,
            "executed": oracle.interleavings,
        }
        assert _canon(resumed) == _canon(oracle)

    def test_complete_journal_replays_without_executing(self, tmp_path):
        journal_dir = tmp_path / "j"
        first = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert first.journal_stats["executed"] == first.interleavings
        assert CampaignJournal(journal_dir).complete
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == first.interleavings
        assert resumed.journal_stats["executed"] == 0
        assert _canon(resumed) == _canon(first)

    def test_checkpoint_fast_forward(self, tmp_path):
        """A kill deep in a large walk resumes through a checkpoint (the
        generator snapshot) rather than replaying every transition live."""
        cfg = dict(journal_checkpoint_interval=4)
        oracle = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(**cfg), kwargs=BIG
        ).verify()
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:20", nprocs=4, kwargs=BIG, **cfg)
        journal = CampaignJournal(journal_dir)
        ckpt = journal.latest_checkpoint()
        assert ckpt is not None and ckpt["applied"] >= 4
        resumed = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(**cfg), kwargs=BIG
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 20
        assert resumed.journal_stats["executed"] == oracle.interleavings - 20
        assert _canon(resumed) == _canon(oracle)

    def test_each_attempt_opens_a_new_segment(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segments = sorted(p.name for p in journal_dir.glob("segment-*.jsonl"))
        assert segments == ["segment-00000.jsonl"]
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        segments = sorted(p.name for p in journal_dir.glob("segment-*.jsonl"))
        assert segments == ["segment-00000.jsonl", "segment-00001.jsonl"]

    def test_segment_rotation_preserves_resume(self, tmp_path):
        journal_dir = tmp_path / "j"
        cfg = dict(journal_segment_bytes=4096)
        oracle = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify()
        _crash_campaign(journal_dir, "kill@run:10", nprocs=4, kwargs=BIG, **cfg)
        assert len(list(journal_dir.glob("segment-*.jsonl"))) > 1
        resumed = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(**cfg), kwargs=BIG
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 10
        assert _canon(resumed) == _canon(oracle)

    def test_torn_tail_is_dropped(self, tmp_path):
        """A record half-written at the instant of death (no trailing
        newline) is discarded on load instead of poisoning the journal."""
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segment = max(journal_dir.glob("segment-*.jsonl"))
        with open(segment, "ab") as f:
            f.write(b'{"t": "run", "index": 99, "trace"')  # torn mid-record
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 2
        assert _canon(resumed) == _canon(oracle)

    def test_corrupt_interior_record_is_rejected(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segment = max(journal_dir.glob("segment-*.jsonl"))
        with open(segment, "ab") as f:
            f.write(b"this is not json\n")  # newline-terminated: not a torn tail
        with pytest.raises(JournalError):
            CampaignJournal(journal_dir)

    def test_torn_line_in_a_middle_segment_is_dropped(self, tmp_path):
        """A killed attempt leaves its torn tail behind; the resume opens
        the next segment, so the torn line ends up mid-journal — and every
        later reader must still skip it."""
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        with open(journal_dir / "segment-00000.jsonl", "ab") as f:
            f.write(b'{"t":"run","index":99,"trace"')  # torn mid-record
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert len(list(journal_dir.glob("segment-*.jsonl"))) == 2
        journal = CampaignJournal(journal_dir)
        assert journal.complete
        indices = [e["index"] for e in journal.run_entries()]
        assert indices == list(range(oracle.interleavings))
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == oracle.interleavings
        assert _canon(resumed) == _canon(oracle)

    def test_corrupt_record_is_reported_by_file_and_line(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segment = journal_dir / "segment-00000.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines.insert(2, b"this is not json\n")
        segment.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match=r"segment-00000\.jsonl:3: corrupt"):
            CampaignJournal(journal_dir)

    def test_changed_config_is_rejected(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        with pytest.raises(JournalError):
            DampiVerifier(
                wildcard_lattice, 3, DampiConfig(bound_k=0), kwargs=LATTICE
            ).verify(journal=journal_dir)

    def test_changed_kwargs_are_rejected(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        with pytest.raises(JournalError):
            DampiVerifier(
                wildcard_lattice,
                3,
                DampiConfig(),
                kwargs={"receives": 3, "senders": 2},
            ).verify(journal=journal_dir)

    def test_execution_knobs_do_not_invalidate_the_journal(self, tmp_path):
        """checkpoints / fault_plan / journal tuning are bit-identity-
        preserving, so resuming under different values of them must be
        allowed."""
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        resumed = DampiVerifier(
            wildcard_lattice,
            3,
            DampiConfig(prefix_checkpoints=False, journal_checkpoint_interval=1),
            kwargs=LATTICE,
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 2

    def test_journal_stats_stay_off_the_report_json(self, tmp_path):
        report = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=tmp_path / "j")
        assert report.journal_stats is not None
        assert "journal_stats" not in json.loads(report.to_json())


class TestStreaming:
    """The journal is read as a stream: resume holds one record at a
    time, and a journal object never accumulates per-run records."""

    def test_resume_peak_memory_is_bounded_by_one_record(self, tmp_path):
        """Resuming the 729-run lattice journal (2.6 MB on disk) must not
        hold the history: beyond what the resumed session keeps (the
        report), its transient peak is a fixed bound, not one that grows
        with the number of entries (the whole journal parsed into a list
        peaked near 49 MB here)."""
        kwargs = {"receives": 6, "senders": 3}
        journal_dir = tmp_path / "j"
        cfg = DampiConfig(journal_fsync=False)
        first = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify(
            journal=journal_dir
        )
        assert first.interleavings == 3 ** 6
        verifier = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs)
        tracemalloc.start()
        try:
            resumed = verifier.verify(journal=journal_dir)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resumed.journal_stats["replayed"] == 3 ** 6
        assert resumed.journal_stats["executed"] == 0
        assert peak - retained < 2 * 1024 * 1024

    def test_journaled_verify_keeps_no_run_records(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j")
        report = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(journal_checkpoint_interval=4),
            kwargs=BIG,
        ).verify(journal=journal)
        assert report.interleavings == 27

        def held(value):
            if isinstance(value, dict):
                yield value
                for v in value.values():
                    yield from held(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from held(v)

        kinds = {
            r.get("t") for v in vars(journal).values() for r in held(v)
        }
        assert not kinds & {"run", "failure", "prune"}
        assert journal.complete
        assert journal.latest_checkpoint()["applied"] == 24
        # the records are still all on disk, for the stream to read
        assert sum(1 for _ in journal.run_entries()) == 27


def _journal_with_lost_replay(journal_dir, nprocs, kwargs, lost_flip):
    """Write a journal the way the earlier process-pool executor did when
    a replay worker died: the first replay flipping ``lost_flip`` is a
    ``failure`` entry, and the walk goes on past it
    (``ScheduleGenerator.abandon``).  Returns that campaign's report."""
    from repro.dampi.verifier import CampaignFold
    from repro.obs.campaign import CampaignTelemetry

    cfg = DampiConfig()
    verifier = DampiVerifier(wildcard_lattice, nprocs, cfg, kwargs=kwargs)
    fold = CampaignFold(verifier, CampaignTelemetry(cfg), 0.0)
    journal = CampaignJournal.open(journal_dir, cfg)
    journal.ensure_meta(nprocs, cfg, kwargs=kwargs)
    result, trace = verifier.run_once()
    verifier._fold_live_run(fold, journal, 0, None, result, trace, None)
    index, lost = 0, False
    while (decisions := fold.next_decisions()) is not None:
        index += 1
        if not lost and decisions.flip == lost_flip:
            lost = True
            reason = f"replay worker died replaying flip {decisions.flip}"
            fold.fold(index, decisions, reason)
            journal.append(
                verifier._journal_failure_entry(index, decisions, reason)
            )
            continue
        result, trace = verifier.run_once(decisions)
        verifier._fold_live_run(
            fold, journal, index, decisions, result, trace, None
        )
    verifier.close()
    assert lost
    report = fold.report
    journal.append(
        {
            "t": "end",
            "interleavings": report.interleavings,
            "truncated": report.truncated,
        }
    )
    journal.close()
    return fold.finish({"mode": "inline"})


class TestFailureEntryResume:
    def test_worker_crash_failure_entries_resume_bit_identically(self, tmp_path):
        """A replay lost to a dying worker lands in the journal as a
        failure entry; resuming replays the abandon and the rest of the
        walk matches the faulted run exactly."""
        journal_dir = tmp_path / "j"
        faulted = _journal_with_lost_replay(journal_dir, 3, LATTICE, (0, 0))
        assert any(e.kind == "crash" for e in faulted.errors)
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["executed"] == 0
        assert _canon(resumed) == _canon(faulted)

    def test_post_crash_schedules_match_the_oracle_walk(self, tmp_path):
        """Regression for the abandon() bug: after a lost replay, every
        schedule the generator emits afterwards must still be one the
        clean oracle walk emits — a stale ``chosen`` on the flipped node
        would smuggle never-executed sources into later forced prefixes."""
        oracle_dir, faulted_dir = tmp_path / "oracle", tmp_path / "faulted"
        DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify(journal=oracle_dir)
        _journal_with_lost_replay(faulted_dir, 4, BIG, (0, 0))

        def keys(journal_dir):
            out = []
            for e in CampaignJournal(journal_dir).run_entries():
                if e.get("key") is not None:
                    out.append(schedule_key(jr.decisions_from_jsonable(e["key"])))
            return out
        oracle_keys, faulted_keys = keys(oracle_dir), keys(faulted_dir)
        assert len(faulted_keys) == len(set(faulted_keys))  # no re-emission
        assert set(faulted_keys) <= set(oracle_keys)


class TestCampaignJournals:
    def test_escalate_resumes_across_stages(self, tmp_path):
        oracle = escalating_verify(wildcard_lattice, 4, kwargs=BIG)
        journal_dir = tmp_path / "j"
        first = escalating_verify(
            wildcard_lattice, 4, kwargs=BIG, journal_dir=journal_dir
        )
        resumed = escalating_verify(
            wildcard_lattice, 4, kwargs=BIG, journal_dir=journal_dir
        )
        assert [s.label for s in resumed.steps] == [s.label for s in oracle.steps]
        for a, b in zip(resumed.steps, oracle.steps):
            assert _canon(a.report) == _canon(b.report)
        for step in resumed.steps:
            assert step.report.journal_stats["executed"] == 0
        assert resumed.stopped_reason == first.stopped_reason

    def test_campaign_cells_resume_from_their_journals(self, tmp_path):
        journal_dir = tmp_path / "j"
        first = run_campaign(
            wildcard_lattice, [3], kwargs=LATTICE, journal_dir=journal_dir
        )
        resumed = run_campaign(
            wildcard_lattice, [3], kwargs=LATTICE, journal_dir=journal_dir
        )
        assert resumed.ok
        for a, b in zip(resumed.cells, first.cells):
            assert a.report.journal_stats["executed"] == 0
            assert _canon(a.report) == _canon(b.report)


class TestSerialization:
    def test_decisions_roundtrip(self):
        d = EpochDecisions(forced={(0, 1): 2, (1, 0): 0}, flip=(0, 1))
        d2 = jr.decisions_from_jsonable(jr.decisions_to_jsonable(d))
        assert schedule_key(d2) == schedule_key(d)

    def test_decisions_roundtrip_no_flip(self):
        d = EpochDecisions(forced={}, flip=None)
        d2 = jr.decisions_from_jsonable(jr.decisions_to_jsonable(d))
        assert d2.flip is None and d2.forced == {}

    def test_outcome_roundtrip(self):
        outcome = frozenset({((0, 1), 2), ((1, 0), 0)})
        assert jr.outcome_from_jsonable(jr.outcome_to_jsonable(outcome)) == outcome

    def test_match_rows_roundtrip_every_stamp_kind(self):
        """Potential matches travel as flat rows: Lamport stamps as
        ``[time, rank]``, vector stamps and escalated matches (no stamp,
        ``env_uid == -1``) must come back exactly."""
        matches = [
            PotentialMatch((0, 3), 2, 17, 4, 5, LamportStamp(9, 2)),
            PotentialMatch((1, 0), 0, 8, 0, 1, VectorStamp((1, 0, 4))),
            PotentialMatch((2, 7), 1, ESCALATED_ENV_UID, 3, 0, None),
        ]
        trace = trace_with([(0, 3, 1), (1, 0, 2), (2, 7, 0)], [], nprocs=3)
        trace.potential_matches = matches
        payload = json.loads(json.dumps(jr.trace_to_jsonable(trace)))
        assert payload["matches"][0] == [0, 3, 2, 17, 4, 5, [9, 2]]
        assert payload["matches"][2] == [2, 7, 1, -1, 3, 0, None]
        decoded = jr.trace_from_jsonable(payload).potential_matches
        fields = ("epoch", "source", "env_uid", "seq", "tag")
        for got, want in zip(decoded, matches, strict=True):
            assert [getattr(got, f) for f in fields] == [
                getattr(want, f) for f in fields
            ]
        assert decoded[0].stamp.time == 9 and decoded[0].stamp.rank == 2
        assert decoded[1].stamp == VectorStamp((1, 0, 4))
        assert decoded[2].stamp is None
        assert jr.trace_from_jsonable(payload, matches=False).potential_matches == []

    def test_vector_clock_trace_roundtrips(self):
        _, trace = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(clock_impl="vector"), kwargs=BIG
        ).run_once()
        assert trace.potential_matches
        decoded = jr.trace_from_jsonable(
            json.loads(json.dumps(jr.trace_to_jsonable(trace)))
        )
        assert [
            (m.epoch, m.source, m.env_uid, m.seq, m.tag, m.stamp.components)
            for m in decoded.potential_matches
        ] == [
            (m.epoch, m.source, m.env_uid, m.seq, m.tag, m.stamp.components)
            for m in trace.potential_matches
        ]

    def test_generator_snapshot_roundtrip(self):
        gen = ScheduleGenerator(bound_k=1)
        gen.seed(
            trace_with(
                [(0, 0, 0), (0, 1, 1)], [(0, 0, 1), (0, 1, 0)], nprocs=3
            )
        )
        gen.next_decisions()
        gen.abandon()  # leave tried/chosen state behind
        snap = jr.snapshot_generator(gen)
        restored = jr.restore_generator(snap)
        assert jr.snapshot_generator(restored) == snap
        # the restored walk emits exactly what the original would
        assert restored.next_decisions() == gen.next_decisions()

    def test_snapshot_refuses_pending_flip(self):
        gen = ScheduleGenerator()
        gen.seed(trace_with([(0, 0, 0)], [(0, 0, 1)], nprocs=2))
        assert gen.next_decisions() is not None
        with pytest.raises(JournalError):
            jr.snapshot_generator(gen)

    def test_config_signature_ignores_execution_knobs(self):
        base = DampiConfig()
        same = DampiConfig(
            prefix_checkpoints=False, fault_plan="kill@self", journal_fsync=False
        )
        different = DampiConfig(bound_k=2)
        assert jr.config_signature(3, base) == jr.config_signature(3, same)
        assert jr.config_signature(3, base) != jr.config_signature(3, different)
        assert jr.config_signature(3, base) != jr.config_signature(4, base)
        assert jr.config_signature(3, base) != jr.config_signature(
            3, base, kwargs={"receives": 2}
        )


class TestCliJournal:
    PROG = "repro.workloads.patterns:wildcard_lattice"

    def test_verify_journal_dir_then_resume(self, tmp_path, capsys):
        journal_dir = tmp_path / "j"
        rc = main(
            [
                "verify", self.PROG, "--nprocs", "3",
                "--kwargs", json.dumps(LATTICE),
                "--journal-dir", str(journal_dir),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0 and "journal" in out
        rc = main(["resume", str(journal_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        # resumed a complete journal: everything replayed, nothing executed
        assert "run(s) replayed, 0 executed" in out

    def test_resume_without_meta_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["resume", str(empty)])

    #: DampiConfig fields journals recorded before the process-pool
    #: executor and the two ablation switches were removed
    RETIRED = {
        "jobs": 2,
        "job_timeout_seconds": None,
        "force_jobs": False,
        "persistent_session": True,
        "indexed_matching": True,
    }

    @staticmethod
    def _add_config_keys(journal_dir, extra: dict) -> None:
        """Rewrite a journal's meta record to carry extra config keys."""
        segment = min(journal_dir.glob("segment-*.jsonl"))
        meta, rest = segment.read_text().split("\n", 1)
        record = json.loads(meta)
        assert record["t"] == "meta"
        record["config"].update(extra)
        segment.write_text(json.dumps(record) + "\n" + rest)

    def test_resume_drops_retired_config_keys(self, tmp_path, capsys):
        journal_dir = tmp_path / "j"
        argv = ["--nprocs", "3", "--kwargs", json.dumps(LATTICE)]
        assert main(["verify", self.PROG, *argv, "--journal-dir", str(journal_dir)]) == 0
        self._add_config_keys(journal_dir, self.RETIRED)
        capsys.readouterr()
        assert main(["resume", str(journal_dir)]) == 0
        assert "run(s) replayed, 0 executed" in capsys.readouterr().out

    def test_resume_refuses_other_unknown_config_keys(self, tmp_path):
        journal_dir = tmp_path / "j"
        argv = ["--nprocs", "3", "--kwargs", json.dumps(LATTICE)]
        assert main(["verify", self.PROG, *argv, "--journal-dir", str(journal_dir)]) == 0
        self._add_config_keys(journal_dir, {**self.RETIRED, "turbo": True})
        with pytest.raises(SystemExit, match="does not match this version"):
            main(["resume", str(journal_dir)])

    def test_dist_resume_drops_retired_config_keys(self, tmp_path, capsys):
        journal_dir = tmp_path / "dj"
        argv = ["--nprocs", "3", "--kwargs", json.dumps(LATTICE)]
        assert main(
            ["dist", "run", self.PROG, *argv, "--workers", "1",
             "--journal-dir", str(journal_dir)]
        ) == 0
        self._add_config_keys(journal_dir, self.RETIRED)
        capsys.readouterr()
        assert main(["dist", "resume", str(journal_dir)]) == 0
        assert ", 0 executed" in capsys.readouterr().out
