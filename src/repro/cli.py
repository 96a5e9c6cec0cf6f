"""Command-line front end: verify and replay MPI programs.

Examples::

    # verify a program over its wildcard non-determinism
    python -m repro verify repro.workloads.patterns:fig3_program --nprocs 3

    # bounded mixing, budget, vector clocks, saved witnesses
    python -m repro verify mymod:my_program --nprocs 8 --bound-k 2 \\
        --max-interleavings 500 --clock vector --witness-dir ./witnesses

    # deterministically replay a saved witness schedule
    python -m repro replay repro.workloads.patterns:fig3_program \\
        --nprocs 3 --decisions ./witnesses/error0.json

A program is addressed as ``module.path:callable``; the callable takes a
:class:`repro.mpi.process.Proc` as its first argument.  Keyword arguments
are passed as JSON via ``--kwargs``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.verifier import DampiVerifier
from repro.isp.verifier import IspVerifier


def resolve_program(spec: str) -> Callable:
    """Import ``module.path:callable``."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not attr:
        raise SystemExit(f"program must be 'module:callable', got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as e:
        raise SystemExit(f"cannot import {module_name!r}: {e}") from e
    try:
        program = getattr(module, attr)
    except AttributeError:
        raise SystemExit(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(program):
        raise SystemExit(f"{spec!r} is not callable")
    return program


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAMPI: dynamic formal verification of MPI programs "
        "(SC'10 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", help="program as module.path:callable")
        p.add_argument("--nprocs", "-n", type=int, required=True, help="rank count")
        p.add_argument(
            "--kwargs", default="{}", help="JSON dict of program keyword arguments"
        )
        p.add_argument(
            "--policy",
            default="arrival",
            help="wildcard match policy for SELF_RUN (arrival|lowest_rank|"
            "highest_rank|random:<seed>)",
        )
        p.add_argument(
            "--jobs",
            "-j",
            type=int,
            default=1,
            metavar="N",
            help="replay worker processes (0 = all cores; default 1 = serial; "
            "the report is identical either way; auto-demoted to serial on "
            "single-CPU hosts, where a pool can only add overhead)",
        )

    v = sub.add_parser("verify", help="explore the wildcard match space")
    common(v)
    v.add_argument(
        "--clock",
        default="lamport",
        choices=DampiConfig._CLOCK_IMPLS,
        help="causality tracker (default: lamport, the paper's)",
    )
    v.add_argument(
        "--piggyback",
        default="separate",
        choices=("separate", "inline"),
        help="clock transport mechanism (default: separate messages)",
    )
    v.add_argument(
        "--bound-k",
        type=int,
        default=None,
        metavar="K",
        help="bounded mixing window (default: unbounded full coverage)",
    )
    v.add_argument(
        "--max-interleavings", type=int, default=None, help="exploration budget"
    )
    v.add_argument(
        "--max-seconds", type=float, default=None, help="wall-clock budget"
    )
    v.add_argument(
        "--baseline",
        action="store_true",
        help="use the centralized ISP baseline instead of DAMPI",
    )
    v.add_argument(
        "--no-monitor", action="store_true", help="disable the §V omission monitor"
    )
    v.add_argument(
        "--no-leak-check", action="store_true", help="disable leak checking"
    )
    v.add_argument(
        "--witness-dir",
        type=Path,
        default=None,
        help="save each found error's Epoch Decisions witness here",
    )
    v.add_argument(
        "--artifacts-dir",
        default=None,
        help="write every run's epochs / potential-match / decision files "
        "here (the paper's Fig. 1 file tree)",
    )
    v.add_argument(
        "--show-runs",
        action="store_true",
        help="print the per-run table (flipped epoch, matches, outcome)",
    )
    v.add_argument(
        "--all",
        action="store_true",
        help="with --show-runs, print every run (no 50-row cap)",
    )
    v.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the campaign event stream as a Chrome trace_event "
        "JSON (open in chrome://tracing or Perfetto); implies tracing",
    )
    v.add_argument(
        "--events-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the campaign event stream as JSONL; implies tracing",
    )
    v.add_argument(
        "--revt-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the campaign event stream in the compact binary "
        ".revt encoding (read it back with 'repro stats'); implies "
        "tracing",
    )
    v.add_argument(
        "--no-trace",
        action="store_true",
        help="disable event tracing (tracing is on by default and "
        "feeds the report's telemetry block and any --*-out event "
        "stream; events are rendered only when an exporter reads them, "
        "and a pinned 10-rank matmult campaign runs about 1.1x its "
        "--no-trace wall time)",
    )
    v.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="record full event payloads for 1 in N replays "
        "(deterministic, keyed off the schedule signature; exact "
        "event counters are kept for every run regardless; default 1 "
        "= every run)",
    )
    v.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the report JSON (v3, includes the telemetry block)",
    )
    v.add_argument(
        "--progress",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a live progress heartbeat to stderr every SECONDS",
    )
    v.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="durable campaign journal: every run is fsync'd to DIR, and "
        "a later run (or 'repro resume DIR') picks up where a crash left "
        "off without re-executing covered interleavings",
    )
    v.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault injection, e.g. 'kill@run:3' or "
        "'hang@flip:1.2:30' (see repro.dampi.faults; robustness testing)",
    )
    v.add_argument(
        "--no-prefix-checkpoints",
        action="store_true",
        help="disable prefix-sharing replay (checkpoint/restore at "
        "decision points); every guided replay re-executes from MPI_Init. "
        "Reports are bit-identical either way",
    )
    v.add_argument(
        "--no-prune",
        action="store_true",
        help="disable future-equivalence subtree pruning (on by default: "
        "sibling alternatives whose futures are provably isomorphic are "
        "explored once; findings are identical either way — see "
        "report.prune_stats for what was skipped)",
    )
    v.add_argument(
        "--adaptive-clocks",
        action="store_true",
        help="adaptive clock escalation: run the scalar clock, detect "
        "epochs where its approximation may have excluded a real match "
        "(the paper's Fig. 4 pattern), and re-derive just those epochs' "
        "alternatives under vector clocks via one precision replay each; "
        "requires --clock lamport|lamport_dual",
    )

    s = sub.add_parser(
        "stats",
        help="summarize a verification's telemetry (report JSON, events "
        "JSONL, binary .revt stream, or a --journal-dir)",
    )
    s.add_argument(
        "file",
        type=Path,
        help="a --json-out report, an --events-out JSONL file, a "
        "--revt-out binary stream, or a --journal-dir directory",
    )
    s.add_argument(
        "--follow",
        action="store_true",
        help="with a --journal-dir: poll the journal and print one "
        "progress line per interval until the campaign completes "
        "(live introspection of a running verification)",
    )
    s.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="--follow poll interval (default 2s)",
    )

    e = sub.add_parser(
        "escalate",
        help="verify with widening bounded-mixing stages (k=0,1,2,unbounded)",
    )
    common(e)
    e.add_argument(
        "--run-budget", type=int, default=2000, help="total interleaving budget"
    )
    e.add_argument(
        "--clock", default="lamport", choices=DampiConfig._CLOCK_IMPLS
    )
    e.add_argument(
        "--keep-going",
        action="store_true",
        help="continue escalating after an error is found",
    )
    e.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="per-stage durable journals under DIR (re-run the same "
        "command after a crash to resume)",
    )
    e.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault injection (see repro.dampi.faults)",
    )

    rs = sub.add_parser(
        "resume",
        help="resume a crashed verification from its --journal-dir "
        "(program, nprocs, and config are read from the journal)",
    )
    rs.add_argument("journal_dir", type=Path, help="a verify --journal-dir")
    rs.add_argument(
        "--program",
        default=None,
        help="override the program spec recorded in the journal",
    )
    rs.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="fault plan for the resumed attempt (the recorded plan is "
        "NOT re-injected by default — the fault already happened)",
    )
    rs.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="write the report JSON",
    )
    rs.add_argument(
        "--show-runs", action="store_true", help="print the per-run table"
    )

    d = sub.add_parser(
        "dist",
        help="distributed verification: shard the decision tree across "
        "worker processes with durable leases and work stealing",
    )
    dsub = d.add_subparsers(dest="dist_command", required=True)

    dr = dsub.add_parser(
        "run", help="run a distributed verification campaign"
    )
    common(dr)
    dr.add_argument(
        "--workers",
        "-w",
        type=int,
        default=2,
        metavar="N",
        help="worker processes exploring leased subtrees (default 2); the "
        "report is bit-identical for any N",
    )
    dr.add_argument(
        "--clock", default="lamport", choices=DampiConfig._CLOCK_IMPLS
    )
    dr.add_argument(
        "--bound-k", type=int, default=None, metavar="K",
        help="bounded mixing window",
    )
    dr.add_argument(
        "--max-interleavings", type=int, default=None,
        help="exploration budget (applied during report assembly)",
    )
    dr.add_argument(
        "--progress", type=float, default=None, metavar="SECONDS",
        help="one aggregated fleet heartbeat to stderr every SECONDS",
    )
    dr.add_argument(
        "--journal-dir", type=Path, default=None, metavar="DIR",
        help="durable coordinator journal (leases, streamed records, "
        "per-lease worker shards); survives worker AND coordinator "
        "crashes — 'repro dist resume DIR' continues",
    )
    dr.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="deterministic fault injection, e.g. 'kill@worker:2' or "
        "'kill@coord:3' (see repro.dampi.faults)",
    )
    dr.add_argument(
        "--no-prefix-checkpoints", action="store_true",
        help="disable prefix-sharing replay inside the shard workers",
    )
    dr.add_argument(
        "--no-prune", action="store_true",
        help="disable future-equivalence subtree pruning (workers skip "
        "provably isomorphic sibling subtrees; findings are identical "
        "either way)",
    )
    dr.add_argument(
        "--adaptive-clocks", action="store_true",
        help="adaptive clock escalation inside the shard workers "
        "(requires --clock lamport|lamport_dual)",
    )
    dr.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="write the report JSON",
    )
    dr.add_argument(
        "--show-runs", action="store_true", help="print the per-run table"
    )

    dz = dsub.add_parser(
        "resume",
        help="resume a crashed distributed campaign from its --journal-dir",
    )
    dz.add_argument("journal_dir", type=Path, help="a dist run --journal-dir")
    dz.add_argument(
        "--workers", "-w", type=int, default=None, metavar="N",
        help="worker count for the resumed attempt (default: as recorded)",
    )
    dz.add_argument(
        "--program", default=None,
        help="override the program spec recorded in the journal",
    )
    dz.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="fault plan for the resumed attempt (the recorded plan is "
        "NOT re-injected by default — the fault already happened)",
    )
    dz.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="write the report JSON",
    )
    dz.add_argument(
        "--show-runs", action="store_true", help="print the per-run table"
    )

    dst = dsub.add_parser(
        "status",
        help="inspect a distributed journal (leases, records, completeness)",
    )
    dst.add_argument("journal_dir", type=Path, help="a dist run --journal-dir")

    r = sub.add_parser("replay", help="re-run one schedule from a decisions file")
    common(r)
    r.add_argument(
        "--decisions",
        type=Path,
        required=True,
        help="Epoch Decisions JSON (a witness from 'verify')",
    )
    r.add_argument(
        "--clock", default="lamport", choices=DampiConfig._CLOCK_IMPLS
    )
    return parser


def _jobs_arg(args):
    """``--jobs 0`` means "all cores" (DampiConfig spells that None)."""
    return None if args.jobs == 0 else args.jobs


def _check_adaptive_clock(args) -> None:
    """Fail fast with a CLI-shaped message instead of DampiConfig's
    ValueError when --adaptive-clocks meets a non-scalar clock."""
    if args.adaptive_clocks and args.clock not in ("lamport", "lamport_dual"):
        raise SystemExit(
            f"--adaptive-clocks escalates a *scalar* clock to vector "
            f"precision on demand; --clock {args.clock} is already "
            f"(or wraps) a vector clock — drop one of the two flags"
        )


def _open_journal(args, config):
    """The ``--journal-dir`` journal of a fresh campaign (None: no journal)."""
    if args.journal_dir is None:
        return None
    from repro.dampi.journal import CampaignJournal

    return CampaignJournal.open(args.journal_dir, config, program_label=args.program)


def cmd_verify(args) -> int:
    program = resolve_program(args.program)
    kwargs = json.loads(args.kwargs)
    if args.no_trace and (args.trace_out or args.events_out or args.revt_out):
        raise SystemExit(
            "--no-trace conflicts with --trace-out/--events-out/--revt-out "
            "(event exports need the tracer)"
        )
    if args.no_trace and args.trace_sample != 1:
        raise SystemExit(
            "--no-trace conflicts with --trace-sample "
            "(payload sampling configures the tracer --no-trace disables)"
        )
    _check_adaptive_clock(args)
    config = DampiConfig(
        clock_impl=args.clock,
        piggyback=args.piggyback,
        bound_k=args.bound_k,
        max_interleavings=args.max_interleavings,
        max_seconds=args.max_seconds,
        policy=args.policy,
        jobs=_jobs_arg(args),
        enable_monitor=not args.no_monitor,
        enable_leak_check=not args.no_leak_check,
        artifacts_dir=args.artifacts_dir,
        # tracing is the default: it renders events only for a reader,
        # and benchmarks/bench_obs_overhead.py gates what it costs a whole
        # campaign at 1.20x the --no-trace wall time
        trace_events=not args.no_trace,
        trace_sample_every=max(1, args.trace_sample),
        progress_interval_seconds=args.progress,
        fault_plan=args.fault_plan,
        prefix_checkpoints=not args.no_prefix_checkpoints,
        prune=not args.no_prune,
        adaptive_clocks=args.adaptive_clocks,
    )
    cls = IspVerifier if args.baseline else DampiVerifier
    verifier = cls(program, args.nprocs, config, kwargs=kwargs)
    report = verifier.verify(journal=_open_journal(args, config))
    print(report.summary())
    if report.journal_stats is not None:
        js = report.journal_stats
        print(
            f"  journal: {js['replayed']} run(s) replayed from "
            f"{js['dir']}, {js['executed']} executed"
        )
    if args.show_runs:
        print(report.run_table(limit=None if args.all else 50))
    if args.trace_out is not None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(
            report.events,
            args.trace_out,
            label=args.program,
            nprocs=args.nprocs,
        )
        print(f"  chrome trace saved: {args.trace_out}")
    if args.events_out is not None:
        from repro.obs.export import write_events_jsonl

        write_events_jsonl(
            report.events,
            args.events_out,
            header={"program": args.program, "nprocs": args.nprocs},
        )
        print(f"  event log saved: {args.events_out}")
    if args.revt_out is not None:
        from repro.obs.binary import write_events_binary

        write_events_binary(
            report.events,
            args.revt_out,
            header={"program": args.program, "nprocs": args.nprocs},
        )
        print(f"  binary event stream saved: {args.revt_out}")
    if args.json_out is not None:
        args.json_out.write_text(report.to_json() + "\n")
        print(f"  report JSON saved: {args.json_out}")
    if report.monitor_report and report.monitor_report.triggered:
        for alert in report.monitor_report.alerts:
            print(f"  alert: {alert}")
    if args.witness_dir is not None and report.errors:
        args.witness_dir.mkdir(parents=True, exist_ok=True)
        for i, error in enumerate(report.errors):
            if error.decisions is not None:
                path = args.witness_dir / f"error{i}_{error.kind}.json"
                error.decisions.save(path)
                print(f"  witness saved: {path}")
    return 1 if report.errors else 0


def _stats_follow(args) -> int:
    """Poll a journal directory, one progress line per interval, until
    the campaign writes its ``end`` record."""
    import time as _time

    from repro.obs.stats import (
        JournalStatsError,
        follow_interval,
        journal_follow_line,
        journal_progress,
        render_journal_summary,
    )

    try:
        interval = follow_interval(args.interval)
    except ValueError as e:
        raise SystemExit(str(e)) from e
    try:
        while True:
            progress = journal_progress(args.file)
            print(journal_follow_line(progress), flush=True)
            if progress["complete"]:
                break
            _time.sleep(interval)
    except JournalStatsError as e:
        raise SystemExit(str(e)) from e
    except KeyboardInterrupt:
        print("(stopped following; campaign still running)")
        return 0
    print()
    print(render_journal_summary(progress))
    return 0


def cmd_stats(args) -> int:
    """Render a campaign summary from any verify artifact.

    The input kind is auto-detected: a directory is a journal; a file
    starting with the ``.revt`` magic is a binary event stream; a single
    JSON object with a ``telemetry`` key is a report; anything else is
    tried as an events JSONL (line-delimited JSON with a header line,
    see :mod:`repro.obs.export`)."""
    from repro.obs.binary import BINARY_MAGIC, read_events_binary
    from repro.obs.export import JSONL_FORMAT, read_events_jsonl
    from repro.obs.stats import (
        JournalStatsError,
        journal_progress,
        render_events_summary,
        render_journal_summary,
        render_report_summary,
    )

    if args.file.is_dir():
        if args.follow:
            return _stats_follow(args)
        try:
            print(render_journal_summary(journal_progress(args.file)))
        except JournalStatsError as e:
            raise SystemExit(str(e)) from e
        return 0
    if args.follow:
        raise SystemExit(
            f"--follow needs a --journal-dir directory to tail; "
            f"{args.file} is a file"
        )
    try:
        raw = args.file.read_bytes()
    except OSError as e:
        raise SystemExit(f"cannot read {args.file}: {e}") from e
    if raw.startswith(BINARY_MAGIC):
        try:
            header, events = read_events_binary(args.file)
        except ValueError as e:
            raise SystemExit(f"{args.file}: corrupt .revt stream: {e}") from e
        print(render_events_summary(header, events))
        return 0
    payload = None
    try:
        payload = json.loads(raw.decode("utf-8", errors="replace"))
    except ValueError:
        pass
    if isinstance(payload, dict) and "telemetry" in payload:
        print(render_report_summary(payload))
        return 0
    try:
        header, events = read_events_jsonl(args.file)
    except ValueError as e:
        raise SystemExit(
            f"{args.file} is neither a report JSON (--json-out), an "
            f"events JSONL (--events-out), a binary stream (--revt-out), "
            f"nor a journal directory: {e}"
        ) from e
    if header.get("format") != JSONL_FORMAT:
        raise SystemExit(f"{args.file}: not a {JSONL_FORMAT} file")
    print(render_events_summary(header, events))
    return 0


def cmd_escalate(args) -> int:
    from repro.dampi.campaign import escalating_verify

    program = resolve_program(args.program)
    result = escalating_verify(
        program,
        args.nprocs,
        base_config=DampiConfig(
            clock_impl=args.clock,
            policy=args.policy,
            jobs=_jobs_arg(args),
            fault_plan=args.fault_plan,
        ),
        run_budget=args.run_budget,
        stop_on_error=not args.keep_going,
        kwargs=json.loads(args.kwargs),
        journal_dir=args.journal_dir,
    )
    print(result.summary())
    return 1 if result.errors else 0


def _resume_inputs(args, dist: bool):
    """Everything a resume command rebuilds from a journal's meta record:
    ``(journal, nprocs, program, config, kwargs)``.  The recorded fault
    plan is replaced by this invocation's — it already fired."""
    from repro.dampi.journal import JOURNAL_VERSION, CampaignJournal
    from repro.mpi.costmodel import CostModel

    journal = CampaignJournal(args.journal_dir)
    meta = journal.meta
    if meta is None:
        raise SystemExit(
            f"{args.journal_dir}: no journal meta record found "
            f"(empty directory, or not a campaign journal)"
        )
    mode = (meta.get("signature") or {}).get("journal_mode", "campaign")
    if dist and mode != "dist":
        raise SystemExit(
            f"{args.journal_dir} is a {mode!r} journal, not a distributed "
            f"coordinator journal; use "
            f"{'repro resume' if mode == 'campaign' else 'the coordinator journal'} instead"
        )
    if not dist and mode == "shard":
        raise SystemExit(
            f"{args.journal_dir} is a worker shard journal of a distributed "
            f"campaign — it covers one leased subtree, not the whole "
            f"verification; resume the campaign's coordinator journal with "
            f"'repro dist resume' instead"
        )
    if not dist and mode != "campaign":
        raise SystemExit(
            f"{args.journal_dir} is a {mode!r} journal; use "
            f"'repro dist resume' on it"
        )
    if meta.get("version") != JOURNAL_VERSION:
        raise SystemExit(
            f"{args.journal_dir} is a version {meta.get('version')!r} "
            f"journal; this version of repro resumes version "
            f"{JOURNAL_VERSION} only"
        )
    spec = args.program or meta.get("program")
    if not spec:
        raise SystemExit(
            "this journal does not record a program spec (it was written "
            "by the API, not the CLI); pass --program module:callable"
        )
    payload = meta.get("config")
    if not isinstance(payload, dict):
        raise SystemExit(
            "this journal's config is not serializable (policy instance?); "
            "resume in-process via "
            + (
                "repro.dist.distributed_verify(journal=...)"
                if dist
                else "DampiVerifier.verify(journal=...)"
            )
        )
    d = dict(payload)
    cm = d.pop("cost_model", None)
    d["fault_plan"] = args.fault_plan
    try:
        config = DampiConfig(
            **d, **({"cost_model": CostModel(**cm)} if cm else {})
        )
    except TypeError as e:
        raise SystemExit(
            f"journal config does not match this version's DampiConfig: {e}"
        ) from e
    kwargs = meta.get("kwargs")
    if not isinstance(kwargs, dict):
        raise SystemExit(
            f"this journal's program kwargs are not serializable "
            f"({kwargs!r}); resume in-process instead"
        )
    return journal, meta["nprocs"], resolve_program(spec), config, kwargs


def cmd_resume(args) -> int:
    """Self-contained crash recovery: everything needed to continue —
    program spec, nprocs, config, kwargs — is read from the journal's
    meta record, so the operator only names the directory."""
    journal, nprocs, program, config, kwargs = _resume_inputs(args, dist=False)
    verifier = DampiVerifier(program, nprocs, config, kwargs=kwargs)
    report = verifier.verify(journal=journal)
    js = report.journal_stats or {}
    return _print_report(
        args,
        report,
        f"  journal: {js.get('replayed', 0)} run(s) replayed, "
        f"{js.get('executed', 0)} executed",
    )


def _print_report(args, report, *notes: str) -> int:
    """Summary, ``notes``, then ``--show-runs`` and ``--json-out``; the
    exit status."""
    print(report.summary())
    for note in notes:
        print(note)
    if args.show_runs:
        print(report.run_table(limit=None))
    if args.json_out is not None:
        args.json_out.write_text(report.to_json() + "\n")
        print(f"  report JSON saved: {args.json_out}")
    return 1 if report.errors else 0


def _print_dist_report(args, report) -> int:
    ps = report.parallel_stats or {}
    notes = [
        f"  distributed: {ps.get('workers')} worker(s), "
        f"{ps.get('leases')} lease(s), {ps.get('records')} record(s), "
        f"{ps.get('worker_deaths', 0)} worker death(s)"
    ]
    js = report.journal_stats
    if js is not None:
        notes.append(
            f"  journal: {js['replayed']} record(s) replayed from "
            f"{js['dir']}, {js['executed']} executed"
        )
    return _print_report(args, report, *notes)


def cmd_dist_run(args) -> int:
    from repro.dist import distributed_verify

    program = resolve_program(args.program)
    _check_adaptive_clock(args)
    config = DampiConfig(
        clock_impl=args.clock,
        bound_k=args.bound_k,
        max_interleavings=args.max_interleavings,
        policy=args.policy,
        progress_interval_seconds=args.progress,
        fault_plan=args.fault_plan,
        prefix_checkpoints=not args.no_prefix_checkpoints,
        prune=not args.no_prune,
        adaptive_clocks=args.adaptive_clocks,
    )
    report = distributed_verify(
        program,
        args.nprocs,
        config=config,
        workers=args.workers,
        journal=_open_journal(args, config),
        kwargs=json.loads(args.kwargs),
    )
    return _print_dist_report(args, report)


def cmd_dist_resume(args) -> int:
    """Like 'repro resume' but for a coordinator journal: program spec,
    nprocs, config, and worker count all come from the meta record."""
    from repro.dist import distributed_verify

    journal, nprocs, program, config, kwargs = _resume_inputs(args, dist=True)
    workers = args.workers or (journal.meta.get("dist") or {}).get("workers") or 2
    report = distributed_verify(
        program,
        nprocs,
        config=config,
        workers=workers,
        journal=journal,
        kwargs=kwargs,
    )
    return _print_dist_report(args, report)


def cmd_dist_status(args) -> int:
    from repro.dist import journal_status

    st = journal_status(args.journal_dir)
    if st["mode"] != "dist":
        print(f"{st['dir']}: a {st['mode']!r} journal, not a distributed one")
        return 1
    state = "complete" if st["complete"] else "in progress"
    print(f"distributed campaign journal {st['dir']} ({state})")
    print(f"  self run recorded : {st['self_run']}")
    print(
        f"  leases            : {st['leases']} "
        f"({st['leases_done']} done, {st['leases_open']} open)"
    )
    print(f"  run records       : {st['records']}")
    return 0


def cmd_replay(args) -> int:
    program = resolve_program(args.program)
    kwargs = json.loads(args.kwargs)
    decisions = EpochDecisions.load(args.decisions)
    config = DampiConfig(clock_impl=args.clock, policy=args.policy)
    verifier = DampiVerifier(program, args.nprocs, config, kwargs=kwargs)
    result, trace = verifier.run_once(decisions)
    print(f"replayed {len(decisions)} forced decision(s); {result!r}")
    for rank, exc in sorted(result.primary_errors.items()):
        print(f"  rank {rank}: {type(exc).__name__}: {exc}")
    if trace.diverged:
        print(
            f"  warning: replay diverged "
            f"(unconsumed: {trace.unconsumed_decisions}, "
            f"mismatched: {trace.forced_mismatches})"
        )
    return 1 if result.errors else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "escalate":
            return cmd_escalate(args)
        if args.command == "resume":
            return cmd_resume(args)
        if args.command == "dist":
            if args.dist_command == "run":
                return cmd_dist_run(args)
            if args.dist_command == "resume":
                return cmd_dist_resume(args)
            if args.dist_command == "status":
                return cmd_dist_status(args)
        if args.command == "replay":
            return cmd_replay(args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe mid-table; exit quietly
        # (dup devnull over stdout so the interpreter's flush-at-exit
        # doesn't raise the same error again)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
