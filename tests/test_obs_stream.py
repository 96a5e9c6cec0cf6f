"""Line-rate telemetry: sampling determinism, binary streams, overflow.

The tentpole contracts of the ring-tracer rebuild:

- full event payloads may be *sampled* (1 in N replays) but per-name
  ``events.*`` counters stay exact and bit-identical at any rate, any
  ``--jobs`` setting;
- the sampled stream at rate N is exactly the rate-1 stream filtered to
  the sampled runs (the capture decision is a pure function of the
  schedule signature);
- the binary ``.revt`` encoding round-trips to the same events as the
  JSONL exporter;
- ring overflow drops payloads, never counts;
- prefix checkpoints compose with tracing: a restored run's stream and
  counters are bit-identical to full re-execution, zoo-wide.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.obs import (
    Event,
    Tracer,
    decode_events,
    deterministic_view,
    encode_events,
    event_signature,
    read_events_binary,
    write_events_binary,
)
from repro.obs.export import read_events_jsonl, write_events_jsonl
from repro.obs.progress import ProgressReporter
from repro.obs.stats import (
    JournalStatsError,
    journal_follow_line,
    journal_progress,
    render_journal_summary,
)
from repro.workloads.bugzoo import ZOO
from repro.workloads.matmult import matmult_program
from repro.workloads.patterns import wildcard_lattice

MATMULT_KW = {"n": 4, "blocks_per_slave": 2}
LATTICE_KW = {"receives": 2, "senders": 2}


def _verify(program, nprocs, kwargs=None, **cfg):
    return DampiVerifier(
        program, nprocs, DampiConfig(**cfg), kwargs=dict(kwargs or {})
    ).verify()


def _canon(report) -> dict:
    d = json.loads(report.to_json())
    d.pop("wall_seconds", None)
    d.pop("telemetry", None)
    return d


def _sig(events, drop_cats=("sched",)):
    """Stream signature minus environment-dependent categories."""
    return event_signature(e for e in events if e.cat not in drop_cats)


def _event_counters(report) -> dict:
    counters = report.telemetry["metrics"]["counters"]
    return {k: v for k, v in counters.items() if k.startswith("events.")}


# --------------------------------------------------------------------- #
# sampling                                                               #
# --------------------------------------------------------------------- #


class TestSampling:
    def test_sampled_stream_is_the_filtered_rate1_stream(self):
        rate1 = _verify(
            wildcard_lattice, 3, LATTICE_KW, trace_events=True
        )
        rate2 = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=2,
        )
        # which runs kept payloads at rate 2: the runs with per-run
        # (non-campaign) events in the merged stream
        captured = {
            e.run for e in rate2.events
            if e.cat not in ("campaign", "sched") and e.run is not None
        }
        assert 0 in captured  # the self run is always captured
        filtered = [
            e for e in rate1.events
            if e.cat in ("campaign",) or e.run in captured
        ]
        assert _sig(rate2.events) == _sig(filtered)

    def test_sampling_is_deterministic(self):
        a = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=3,
        )
        b = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=3,
        )
        assert _sig(a.events) == _sig(b.events)
        assert (
            a.telemetry["events"]["sampled_runs"]
            == b.telemetry["events"]["sampled_runs"]
        )

    @pytest.mark.parametrize("rate", [2, 3, 7])
    def test_event_totals_exact_at_any_rate(self, rate):
        full = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        sampled = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=rate,
        )
        assert _event_counters(sampled) == _event_counters(full)
        assert sampled.telemetry["events"]["sample_every"] == rate
        assert (
            sampled.telemetry["events"]["sampled_runs"]
            <= full.telemetry["events"]["sampled_runs"]
        )

    def test_sampled_signature_identical_across_jobs(self):
        serial = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=2,
        )
        pooled = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=2,
            jobs=2, force_jobs=True,
        )
        assert _sig(serial.events) == _sig(pooled.events)
        assert deterministic_view(
            serial.telemetry["metrics"]
        ) == deterministic_view(pooled.telemetry["metrics"])

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DampiConfig(trace_sample_every=0)


# --------------------------------------------------------------------- #
# binary encoding                                                        #
# --------------------------------------------------------------------- #


def _random_event(rng: random.Random) -> Event:
    def value():
        kind = rng.randrange(7)
        if kind == 0:
            return None
        if kind == 1:
            return rng.choice([True, False])
        if kind == 2:
            return rng.randint(-(2 ** 40), 2 ** 40)
        if kind == 3:
            return rng.uniform(-1e6, 1e6)
        if kind == 4:
            return rng.choice(["", "x", "flip", "événement", "a" * 50])
        if kind == 5:
            return [rng.randint(-5, 5) for _ in range(rng.randrange(4))]
        return (rng.randint(0, 9), rng.choice(["a", "b"]))

    span = rng.random() < 0.4
    return Event(
        name=rng.choice(["alpha", "beta", "gamma_event"]),
        cat=rng.choice(["match", "pb", "dist"]),
        ts=rng.uniform(0, 100),
        ph="X" if span else "i",
        dur=rng.uniform(0, 5) if span else 0.0,
        rank=rng.choice([None, 0, 1, 7]),
        run=rng.choice([None, 0, 3, 1000]),
        args=tuple(
            sorted(
                {f"k{i}": value() for i in range(rng.randrange(4))}.items()
            )
        ),
    )


class TestBinaryRoundTrip:
    def test_property_binary_matches_jsonl_roundtrip(self, tmp_path):
        rng = random.Random(0xDA397)
        events = [_random_event(rng) for _ in range(300)]
        header = {"program": "prop", "nprocs": 8}

        jl = tmp_path / "events.jsonl"
        write_events_jsonl(events, jl, header=dict(header))
        jl_header, via_jsonl = read_events_jsonl(jl)

        bheader, via_binary = decode_events(
            encode_events(events, header=dict(header))
        )
        assert bheader["program"] == jl_header["program"] == "prop"
        # the two codecs canonicalize identically (tuples -> lists,
        # floats exact: JSON repr round-trips doubles, binary ships raw)
        assert via_binary == via_jsonl
        assert event_signature(via_binary) == event_signature(via_jsonl)
        assert [e.ts for e in via_binary] == [e.ts for e in via_jsonl]
        assert [e.dur for e in via_binary] == [e.dur for e in via_jsonl]

    def test_file_roundtrip_and_size(self, tmp_path):
        rng = random.Random(7)
        events = [_random_event(rng) for _ in range(200)]
        revt = tmp_path / "s.revt"
        jsonl = tmp_path / "s.jsonl"
        write_events_binary(events, revt, header={"n": 1})
        write_events_jsonl(events, jsonl, header={"n": 1})
        header, back = read_events_binary(revt)
        assert header["n"] == 1 and len(back) == len(events)
        # "compact" is the point: the interned-string struct framing
        # must beat the JSONL text form comfortably
        assert revt.stat().st_size < jsonl.stat().st_size / 2

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.revt"
        write_events_binary([], path)
        header, events = read_events_binary(path)
        assert events == []

    def test_corrupt_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_events(b"NOTREVT\n\x00\x00")

    def test_campaign_stream_roundtrips(self, tmp_path):
        # both codecs decode sequence values as lists, so the two decoded
        # streams must agree exactly (the in-memory stream holds tuples)
        report = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        revt, jsonl = tmp_path / "campaign.revt", tmp_path / "campaign.jsonl"
        write_events_binary(report.events, revt, header={"nprocs": 3})
        write_events_jsonl(report.events, jsonl, header={"nprocs": 3})
        _, via_binary = read_events_binary(revt)
        _, via_jsonl = read_events_jsonl(jsonl)
        assert len(via_binary) == len(report.events)
        assert event_signature(via_binary) == event_signature(via_jsonl)


# --------------------------------------------------------------------- #
# ring overflow and exact counts                                         #
# --------------------------------------------------------------------- #


class TestRingAccounting:
    def test_overflow_drops_payloads_never_counts(self):
        t = Tracer(buffer=4, clock=lambda: 0.0)
        for i in range(7):
            t.instant(f"e{i}", "test")
        assert t.dropped == 3
        counts = t.counts()
        assert sum(counts.values()) == 7  # every emit counted exactly
        assert counts == {f"e{i}": 1 for i in range(7)}
        events = t.drain()
        assert [e.name for e in events] == ["e3", "e4", "e5", "e6"]

    def test_capture_off_counts_without_payloads(self):
        t = Tracer(buffer=8, clock=lambda: 0.0)
        t.capture = False
        for _ in range(5):
            t.instant("quiet", "test")
        payload = t.collect()
        assert payload["records"] == []
        assert payload["counts"] == {"quiet": 5}
        assert payload["captured"] is False
        assert payload["dropped"] == 0

    def test_collect_is_exact_under_overflow(self):
        t = Tracer(buffer=2, clock=lambda: 0.0)
        for _ in range(5):
            t.instant("hot", "test")
        payload = t.collect()
        assert len(payload["records"]) == 2
        assert payload["counts"] == {"hot": 5}
        assert payload["dropped"] == 3

    def test_campaign_dropped_accounting(self):
        report = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_buffer=4,
        )
        ev = report.telemetry["events"]
        assert ev["dropped"] > 0
        # exact counters are immune to the tiny ring
        full = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        assert _event_counters(report) == _event_counters(full)


# --------------------------------------------------------------------- #
# checkpoints compose with tracing                                       #
# --------------------------------------------------------------------- #


class TestCheckpointTracing:
    def test_restored_runs_emit_identical_streams(self):
        on = _verify(matmult_program, 4, MATMULT_KW, trace_events=True)
        assert on.parallel_stats["checkpoint"]["hits"] > 0
        off = _verify(
            matmult_program, 4, MATMULT_KW,
            trace_events=True, prefix_checkpoints=False,
        )
        assert _sig(on.events) == _sig(off.events)
        assert _event_counters(on) == _event_counters(off)
        assert _canon(on) == _canon(off)

    def test_tracing_no_longer_demotes_checkpoints(self):
        report = _verify(matmult_program, 4, MATMULT_KW, trace_events=True)
        ckpt = report.parallel_stats["checkpoint"]
        assert ckpt["enabled"]
        assert not ckpt.get("demoted")

    def test_sampling_composes_with_checkpoints(self):
        on = _verify(
            matmult_program, 4, MATMULT_KW,
            trace_events=True, trace_sample_every=2,
        )
        off = _verify(
            matmult_program, 4, MATMULT_KW,
            trace_events=True, trace_sample_every=2,
            prefix_checkpoints=False,
        )
        assert _sig(on.events) == _sig(off.events)
        assert _event_counters(on) == _event_counters(off)


class TestZooTraceBitIdentity:
    """Tracing on vs off must be invisible in the report, zoo-wide."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reports_identical(self, entry):
        on = _verify(
            entry.program, entry.nprocs,
            max_interleavings=40, trace_events=True,
        )
        off = _verify(entry.program, entry.nprocs, max_interleavings=40)
        assert _canon(on) == _canon(off)


# --------------------------------------------------------------------- #
# phase timings                                                          #
# --------------------------------------------------------------------- #


class TestPhaseTimings:
    def test_wall_phase_counters_recorded(self):
        report = _verify(matmult_program, 4, MATMULT_KW)
        counters = report.telemetry["metrics"]["counters"]
        phases = {
            k: v for k, v in counters.items() if k.startswith("wall.phase.")
        }
        assert "wall.phase.execute" in phases
        assert all(v >= 0 for v in phases.values())
        # checkpoint restores surface as their own phase
        assert "wall.phase.restore" in phases

    def test_phase_counters_are_nondeterministic_namespace(self):
        report = _verify(wildcard_lattice, 3, LATTICE_KW)
        det = deterministic_view(report.telemetry["metrics"])
        assert not any(
            k.startswith("wall.") for k in det["counters"]
        )


# --------------------------------------------------------------------- #
# stats on journal directories                                           #
# --------------------------------------------------------------------- #


class TestJournalStats:
    def test_campaign_journal_summary(self, tmp_path):
        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        progress = journal_progress(jdir)
        assert progress["mode"] == "campaign"
        assert progress["complete"]
        assert progress["runs"] > 0
        text = render_journal_summary(progress)
        assert "runs journaled" in text
        assert "complete" in journal_follow_line(progress)

    def test_shard_journal_points_to_coordinator(self, tmp_path):
        from repro.dampi.journal import CampaignJournal

        jdir = tmp_path / "lease-1"
        j = CampaignJournal(jdir)
        j.ensure_meta(2, DampiConfig(), mode="shard", shard_prefix={"alt": 1})
        j.append({"t": "srun", "k": "x", "entry": {}})
        j.close()
        progress = journal_progress(jdir)
        assert progress["mode"] == "shard"
        assert progress["runs"] == 1
        assert "coordinator" in render_journal_summary(progress)

    def test_non_journal_dir_pointed_error(self, tmp_path):
        with pytest.raises(JournalStatsError, match="no journal segments"):
            journal_progress(tmp_path)

    def test_cli_stats_on_journal_dir(self, tmp_path, capsys):
        from repro.cli import main

        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        assert main(["stats", str(jdir)]) == 0
        assert "runs journaled" in capsys.readouterr().out

    def test_cli_follow_rejects_plain_file(self, tmp_path):
        from repro.cli import main

        f = tmp_path / "x.json"
        f.write_text("{}")
        with pytest.raises(SystemExit, match="--follow"):
            main(["stats", str(f), "--follow"])


class TestFollowInterval:
    """``--follow --interval`` hygiene: interval 0 used to busy-spin the
    journal reader at 100% CPU; negatives were silently treated as the
    old 0.1s floor."""

    def test_zero_clamps_to_floor(self):
        from repro.obs.stats import MIN_FOLLOW_INTERVAL, follow_interval

        assert follow_interval(0) == MIN_FOLLOW_INTERVAL
        assert follow_interval(0.01) == MIN_FOLLOW_INTERVAL
        assert follow_interval(2.0) == 2.0

    def test_negative_rejected_with_pointed_error(self):
        from repro.obs.stats import follow_interval

        with pytest.raises(ValueError, match="--interval must be >= 0"):
            follow_interval(-1)

    def test_cli_rejects_negative_interval(self, tmp_path):
        from repro.cli import main

        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        with pytest.raises(SystemExit, match="--interval must be >= 0"):
            main(["stats", str(jdir), "--follow", "--interval", "-1"])

    def test_cli_interval_zero_completes(self, tmp_path, capsys):
        from repro.cli import main

        # a complete journal: the follow loop prints one line and exits,
        # so interval 0 exercises only the clamp (no sleep happens)
        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        assert main(["stats", str(jdir), "--follow", "--interval", "0"]) == 0
        assert "complete" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# CLI tracing defaults and .revt export                                  #
# --------------------------------------------------------------------- #


class TestCliTracing:
    ARGS = [
        "verify", "repro.workloads.patterns:fig3_program", "--nprocs", "3",
    ]

    def test_tracing_on_by_default(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.json"
        main(self.ARGS + ["--json-out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["telemetry"]["events"]["enabled"] is True
        assert payload["telemetry"]["events"]["captured"] > 0

    def test_no_trace_disables(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.json"
        main(self.ARGS + ["--no-trace", "--json-out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["telemetry"]["events"]["enabled"] is False

    def test_no_trace_conflicts_with_exports(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--no-trace"):
            main(self.ARGS + ["--no-trace", "--revt-out", str(tmp_path / "x")])

    def test_no_trace_conflicts_with_trace_sample(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--trace-sample"):
            main(self.ARGS + ["--no-trace", "--trace-sample", "4"])

    def test_revt_export_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        revt = tmp_path / "c.revt"
        main(self.ARGS + ["--revt-out", str(revt)])
        _, events = read_events_binary(revt)
        assert events
        assert main(["stats", str(revt)]) == 0
        assert "by category" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# render on first read                                                   #
# --------------------------------------------------------------------- #


def _count_renders(monkeypatch) -> list:
    """Count Event materializations (one list entry per rendered record)."""
    import repro.obs.trace as trace_mod

    rendered = []
    materialize = trace_mod._materialize

    def counting(rec):
        rendered.append(rec)
        return materialize(rec)

    monkeypatch.setattr(trace_mod, "_materialize", counting)
    return rendered


class TestRenderOnRead:
    """A campaign keeps its event stream raw until someone reads it."""

    def test_cli_default_campaign_without_exporter_renders_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        rendered = _count_renders(monkeypatch)
        reports = []
        verify = DampiVerifier.verify

        def keep(self, *args, **kwargs):
            reports.append(verify(self, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(DampiVerifier, "verify", keep)
        out = tmp_path / "r.json"
        main([
            "verify", "repro.workloads.matmult:matmult_program",
            "--nprocs", "4", "--kwargs", json.dumps(MATMULT_KW),
            "--json-out", str(out),
        ])
        captured = json.loads(out.read_text())["telemetry"]["events"]
        assert captured["enabled"] and captured["captured"] > 0
        assert rendered == []
        (report,) = reports
        assert len(report.event_records) == captured["captured"]
        events = report.events
        assert len(rendered) == len(events) == captured["captured"]
        # cached: a second read renders nothing more
        assert report.events is events
        assert len(rendered) == captured["captured"]

    def test_first_read_matches_eager_rendering(self, monkeypatch):
        from repro.obs.campaign import CampaignTelemetry
        from repro.obs.trace import render

        eager = []
        finalize = CampaignTelemetry.finalize

        def finalize_and_render(self, report):
            finalize(self, report)
            # what an eager finalize would have handed the report
            eager.append(render(report.event_records))

        monkeypatch.setattr(CampaignTelemetry, "finalize", finalize_and_render)
        lazy = _verify(matmult_program, 4, MATMULT_KW, trace_events=True)
        (expected,) = eager
        assert expected
        events = lazy.events
        assert event_signature(events) == event_signature(expected)
        assert [(e.ts, e.dur) for e in events] == [
            (e.ts, e.dur) for e in expected
        ]
        monkeypatch.undo()
        again = _verify(matmult_program, 4, MATMULT_KW, trace_events=True)
        assert event_signature(again.events) == event_signature(events)

    def test_dist_report_events_still_carry_worker_events(self):
        from repro.dist import distributed_verify

        report = distributed_verify(
            matmult_program, 3, config=DampiConfig(trace_events=True),
            workers=2,
        )
        events = report.events
        assert report.events is events
        dist_events = [e for e in events if e.cat == "dist"]
        assert any(e.name == "lease" for e in dist_events)
        assert all(isinstance(e, Event) for e in events)
        assert report.telemetry["events"]["worker_captured"] == len(
            dist_events
        )


# --------------------------------------------------------------------- #
# progress degradation                                                   #
# --------------------------------------------------------------------- #


class _Sink:
    def __init__(self, tty: bool):
        self.tty = tty
        self.chunks: list = []

    def write(self, s):
        self.chunks.append(s)

    def isatty(self):
        return self.tty


class TestProgressStreams:
    def test_non_tty_plain_lines_no_ansi(self):
        sink = _Sink(tty=False)
        p = ProgressReporter(0.0, stream=sink)
        p.tick(1, 2, 3, force=True)
        p.final(1, 0, wall_seconds=5.0)
        assert all(c.endswith("\n") for c in sink.chunks)
        assert not any("\x1b" in c or "\r" in c for c in sink.chunks)

    def test_tty_rewrites_one_line_and_terminates(self):
        sink = _Sink(tty=True)
        p = ProgressReporter(0.0, stream=sink)
        p.tick(1, 2, 3, force=True)
        p.tick(2, 1, 3, force=True)
        assert all(c.startswith("\r\x1b[2K") for c in sink.chunks)
        assert not any(c.endswith("\n") for c in sink.chunks)
        p.final(2, 0, wall_seconds=5.0)
        assert sink.chunks[-1] == "\n"  # the line is closed at the end

    def test_close_is_idempotent(self):
        sink = _Sink(tty=True)
        p = ProgressReporter(0.0, stream=sink)
        p.tick(1, 1, 1, force=True)
        p.close()
        p.close()
        assert sink.chunks.count("\n") == 1


# --------------------------------------------------------------------- #
# dist worker events on the wire                                         #
# --------------------------------------------------------------------- #


class TestDistEventPayloads:
    def test_pack_unpack_roundtrip(self):
        from repro.dist.protocol import pack_events, unpack_events

        t = Tracer(buffer=16, clock=lambda: 0.0)
        t.instant("memo_hit", "dist", run=3, lease="L1")
        t.complete("lease", "dist", 0.0, lease="L1", runs=4)
        events = t.drain()
        blob = pack_events(events, header={"worker": 9})
        assert isinstance(blob, str)  # JSON-frame safe
        header, back = unpack_events(blob)
        assert header["worker"] == 9
        assert event_signature(back) == event_signature(events)

    def test_dist_campaign_collects_worker_events(self):
        from repro.dist import distributed_verify

        report = distributed_verify(
            matmult_program, 3, config=DampiConfig(), workers=2
        )
        counters = report.telemetry["metrics"]["counters"]
        assert counters.get("dist.worker_events", 0) > 0
        dist_events = [e for e in report.events if e.cat == "dist"]
        assert any(e.name == "lease" for e in dist_events)
        assert report.telemetry["events"]["worker_captured"] == len(
            dist_events
        )
