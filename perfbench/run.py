"""Campaign benchmark for ``repro verify`` / ``repro resume``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matmult_replay --seed 1 \\
        --seconds 30 --trace 0

Every repetition is a fresh interpreter (``perfbench/rep.py``) pinned to
one CPU before ``repro`` is imported.  ``--trace 0`` repeats the campaign
for ``--seconds`` and reports the end-to-end metrics (medians over the
repetitions); ``--trace 1`` runs paired default / ``--no-trace``
repetitions for ``--seconds``, then one campaign under the per-layer
ledger and one Table II probe, and reports the per-layer metrics.  Each
repetition's report passes the workload's correctness gate
(``workloads.check``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
#: one repetition's hard limit (the longest, a traced lattice_journal
#: campaign, takes about 9 s pinned)
REP_TIMEOUT_S = 60
#: repetitions per run even when --seconds is already spent, unless
#: MIN_REPS_LIMIT_S have passed (a run must end within 180 s)
MIN_REPS = 3
MIN_REPS_LIMIT_S = 60
#: the traced pass must attribute at least this share of the time it
#: can see: process CPU plus journal fsync waits (wall time also holds
#: CPU other tenants take from the pinned CPU, which no layer owns)
MIN_ATTRIBUTED = 0.9
#: self runs timed per leg in the Table II probe
PROBE_REPEAT = 3

END_TO_END = {
    "campaign_s": "s",
    "setup_s": "s",
    "replay_ms.p50": "ms",
    "replay_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.cpu_s": "s",
    "engine.calls": "count",
    "engine.envelopes": "count",
    "pnmpi.clock.cpu_s": "s",
    "pnmpi.piggyback.cpu_s": "s",
    "pnmpi.leaks.cpu_s": "s",
    "pnmpi.monitor.cpu_s": "s",
    "pnmpi.calls": "count",
    "pb.messages": "count",
    "pnmpi.vtime_slowdown": "ratio",
    "pnmpi.host_overhead_ratio": "ratio",
    "program.cpu_s": "s",
    "api.cpu_s": "s",
    "runtime.cpu_s": "s",
    "runtime.recycle_s": "s",
    "runtime.idle_s": "s",
    "snapshot.capture_s": "s",
    "snapshot.captures": "count",
    "snapshot.restore_s": "s",
    "snapshot.restores": "count",
    "snapshot.facade.cpu_s": "s",
    "ckpt.cpu_s": "s",
    "ckpt.hit_rate": "ratio",
    "ckpt.bytes_held": "bytes",
    "explorer.s": "s",
    "prune.signature_s": "s",
    "runs.executed": "count",
    "prune.replays_saved": "count",
    "prune.saved_ratio": "ratio",
    "journal.append_s": "s",
    "journal.appends": "count",
    "journal.fsync_wait_s": "s",
    "journal.serialize_s": "s",
    "journal.bytes": "bytes",
    "journal.load_s": "s",
    "journal.decode_s": "s",
    "fold.s": "s",
    "obs.cpu_s": "s",
    "obs.record_run_s": "s",
    "obs.finalize_s": "s",
    "obs.events": "count",
    "obs.tracing_ratio": "ratio",
    "report.record_s": "s",
    "verifier.cpu_s": "s",
    "cli.cpu_s": "s",
    "ledger.attributed_frac": "ratio",
    "ledger.wall_frac": "ratio",
    "trace.overhead_ratio": "ratio",
    "traced.campaign_s": "s",
    "failed_frac": "ratio",
}


#: per-layer metrics of the journal's write side
JOURNAL_WRITE = (
    "journal.append_s",
    "journal.appends",
    "journal.fsync_wait_s",
    "journal.serialize_s",
    "journal.bytes",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, failed set-up)."""


def spawn(request: dict) -> tuple[dict | None, str | None, float]:
    """Run one ``rep.py`` subprocess to completion.

    Returns ``(result, error, t_spawn)``; ``t_spawn`` is the
    ``time.monotonic()`` reading just before the interpreter starts (the
    clock is system-wide, so the child's readings compare with it)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), json.dumps(request)],
            cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REP_TIMEOUT_S} s", t_spawn
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"exit code {proc.returncode}: {tail}", t_spawn
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None, t_spawn
    except (IndexError, ValueError):
        return None, "no result line", t_spawn


class Bench:
    """Repetitions of one workload, with their correctness accounting."""

    def __init__(self, workload: Workload, seed: int, cpu: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.cpu = cpu
        self.work = work
        self.attempted = 0
        self.problems: list[str] = []
        #: canonical report digest every repetition must reproduce
        self.reference: str | None = None
        #: finished journals ``lattice_resume`` copies, by tracing flag
        self.journals: dict[bool, Path] = {}
        #: the ledgered journal build of a ``--trace 1`` resume run
        self.build: dict | None = None
        self._serial = 0

    def _dir(self, label: str) -> Path:
        self._serial += 1
        return self.work / f"{label}-{self._serial}"

    def build_journals(self, traces: tuple[bool, ...],
                       ledgered: bool = False) -> None:
        """``lattice_resume`` set-up: finish one journaled campaign per
        tracing flag; the default one's report is the reference.  With
        ``ledgered`` the default build runs under the ledger, and its
        result is kept in :attr:`build` (the journal-write layer)."""
        for trace in traces:
            path = self._dir("base")
            w = self.workload
            mode = "traced" if ledgered and trace else "campaign"
            result, error, _ = spawn({
                "cpu": self.cpu, "mode": mode, "program": w.program,
                "argv": w.verify_argv(self.seed, str(path), trace),
                "journal": str(path),
            })
            problems = [error] if error else check(
                result["report"], w.expected, self.reference
            )
            if problems:
                raise BenchError(f"journal build failed: {problems}")
            self.reference = self.reference or result["report"]["canon"]
            self.journals[trace] = path
            if mode == "traced":
                self.build = result

    def rep(self, mode: str = "campaign", trace: bool = True) -> dict | None:
        """One checked repetition; None (and a recorded problem) if it
        crashed, timed out or failed the correctness gate."""
        w = self.workload
        journal = None
        if w.resume:
            journal = self._dir("resume")
            shutil.copytree(self.journals[trace], journal)
            argv = ["resume", str(journal)]
        else:
            if w.journal:
                journal = self._dir("journal")
            argv = w.verify_argv(
                self.seed, str(journal) if journal else None, trace
            )
        request = {
            "cpu": self.cpu, "mode": mode, "program": w.program,
            "argv": argv, "journal": str(journal) if journal else None,
        }
        self.attempted += 1
        result, error, t_spawn = spawn(request)
        if journal is not None:
            shutil.rmtree(journal, ignore_errors=True)
        problems = [error] if error else check(
            result["report"], w.expected, self.reference
        )
        if problems:
            self.problems.append(f"{mode} repetition: {'; '.join(problems)}")
            print(f"FAILED {mode} repetition: {problems}", file=sys.stderr)
            return None
        self.reference = self.reference or result["report"]["canon"]
        result["setup_s"] = result["t_main"] - t_spawn
        return result

    def probe(self) -> dict | None:
        w = self.workload
        self.attempted += 1
        result, error, _ = spawn({
            "cpu": self.cpu, "mode": "probe", "program": w.program,
            "nprocs": w.nprocs, "kwargs": w.kwargs(self.seed),
            "config": w.probe_config(), "repeat": PROBE_REPEAT,
        })
        if error:
            self.problems.append(f"probe: {error}")
            print(f"FAILED probe: {error}", file=sys.stderr)
        return result


def replay_samples(result: dict) -> list[float]:
    """Per-run wall times (ms) of the unit the campaign repeats: guided
    replays where runs execute, journal entries on resume, and the self
    run where it is the campaign's only run."""
    return result["runs_ms"] or result["entries_ms"] or result["self_ms"]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def until(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed and it ran
    :data:`MIN_REPS` times."""
    start = time.monotonic()
    done = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (
            done >= MIN_REPS or elapsed >= MIN_REPS_LIMIT_S
        ):
            return
        step(done)
        done += 1


def end_to_end(bench: Bench, seconds: float) -> dict:
    results = []
    until(seconds, lambda _: results.append(bench.rep()))
    ok = [r for r in results if r is not None]
    if not ok:
        raise BenchError("every repetition failed")
    return {
        "campaign_s": statistics.median(r["campaign_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        # each campaign's own percentile, then the median over campaigns:
        # one slow repetition cannot move it
        "replay_ms.p50": statistics.median(
            percentile(replay_samples(r), 50) for r in ok
        ),
        "replay_ms.p90": statistics.median(
            percentile(replay_samples(r), 90) for r in ok
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def ledger_metrics(traced: dict) -> dict:
    """The per-layer metrics one traced repetition gives on its own."""
    book = traced["ledger"]
    cpu, calls = book["layers"]["cpu"], book["layers"]["calls"]
    wall, incl = book["layers"]["wall"], book["layers"]["incl"]
    targets = book["targets"]
    report = traced["report"]
    fsync_wait = wall["journal.append"] - incl["journal.append"]
    attributed = sum(cpu.values()) + fsync_wait
    walked = report["interleavings"] + report["replays_saved"]
    return {
        "engine.cpu_s": cpu["engine"],
        "engine.calls": calls["engine"],
        "engine.envelopes": targets["MessageEngine.pmpi_isend"]["calls"]
        + targets["MessageEngine.pmpi_issend"]["calls"],
        "pnmpi.clock.cpu_s": cpu["pnmpi.clock"],
        "pnmpi.piggyback.cpu_s": cpu["pnmpi.piggyback"],
        "pnmpi.leaks.cpu_s": cpu["pnmpi.leaks"],
        "pnmpi.monitor.cpu_s": cpu["pnmpi.monitor"],
        "pnmpi.calls": book["pnmpi_calls"],
        "pb.messages": report["pb_messages"],
        "program.cpu_s": cpu["program"],
        "api.cpu_s": cpu["api"],
        "runtime.cpu_s": cpu["runtime"],
        "runtime.recycle_s": cpu["runtime.recycle"],
        "snapshot.capture_s": cpu["snapshot.capture"],
        "snapshot.captures": calls["snapshot.capture"],
        "snapshot.restore_s": cpu["snapshot.restore"],
        "snapshot.restores": calls["snapshot.restore"],
        "snapshot.facade.cpu_s": cpu["snapshot.facade"],
        "ckpt.cpu_s": cpu["ckpt"],
        "ckpt.hit_rate": report["ckpt_hit_rate"],
        "ckpt.bytes_held": report["ckpt_bytes_held"],
        "explorer.s": cpu["explorer"],
        "prune.signature_s": cpu["prune.signature"],
        "runs.executed": targets["DampiVerifier.run_once"]["calls"],
        "prune.replays_saved": report["replays_saved"],
        "prune.saved_ratio": report["replays_saved"] / walked,
        "journal.append_s": wall["journal.append"],
        "journal.appends": targets["CampaignJournal.append"]["calls"],
        "journal.fsync_wait_s": fsync_wait,
        "journal.serialize_s": cpu["journal.serialize"],
        "journal.bytes": traced["journal_bytes"],
        "journal.load_s": wall["journal.load"],
        "journal.decode_s": cpu["journal.decode"],
        "fold.s": book["fold_s"],
        "obs.cpu_s": cpu["obs"],
        "obs.record_run_s": incl["obs.record_run"],
        "obs.finalize_s": incl["obs.finalize"],
        "obs.events": report["events"],
        "report.record_s": cpu["report"],
        "verifier.cpu_s": cpu["verifier"],
        "cli.cpu_s": cpu["cli"],
        "ledger.attributed_frac": attributed / (traced["cpu_s"] + fsync_wait),
        "ledger.wall_frac": attributed / traced["campaign_s"],
        "traced.campaign_s": traced["campaign_s"],
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    # paired untraced legs, alternating which runs first
    default_legs: list[dict] = []
    ratios: list[float] = []

    def pair(i: int) -> None:
        order = (True, False) if i % 2 == 0 else (False, True)
        legs = {flag: bench.rep(trace=flag) for flag in order}
        if legs[True] is not None:
            default_legs.append(legs[True])
        if legs[True] is not None and legs[False] is not None:
            ratios.append(legs[True]["campaign_s"] / legs[False]["campaign_s"])

    until(seconds, pair)
    traced = bench.rep(mode="traced")
    probe = bench.probe()
    if not default_legs or not ratios or traced is None or probe is None:
        raise BenchError(f"traced pass incomplete: {bench.problems}")

    metrics = ledger_metrics(traced)
    if bench.build is not None:
        # a resume writes one record; the journal-write layer is measured
        # on the campaign that wrote the journal it resumes
        built = ledger_metrics(bench.build)
        metrics.update({name: built[name] for name in JOURNAL_WRITE})
    metrics.update({
        "pnmpi.vtime_slowdown": probe["vtime_slowdown"],
        "pnmpi.host_overhead_ratio": probe["host_overhead_ratio"],
        "runtime.idle_s": statistics.median(
            r["campaign_s"] - r["cpu_s"] for r in default_legs
        ),
        "obs.tracing_ratio": statistics.median(ratios),
        "trace.overhead_ratio": traced["campaign_s"]
        / statistics.median(r["campaign_s"] for r in default_legs),
    })
    if metrics["ledger.attributed_frac"] < MIN_ATTRIBUTED:
        bench.problems.append(
            f"ledger attributes {metrics['ledger.attributed_frac']:.1%} of "
            f"traced CPU + fsync time (< {MIN_ATTRIBUTED:.0%}): a layer is "
            f"missing from perfbench/ledger.py"
        )
        print(f"FAILED {bench.problems[-1]}", file=sys.stderr)
    # failed_frac is added by main() once every repetition has run
    return {name: metrics[name] for name in PER_LAYER if name != "failed_frac"}


def pick_cpu() -> int:
    """The CPU every repetition pins itself to: the highest one this
    process may use (the same CPU for every repetition of a run)."""
    return max(os.sched_getaffinity(0))


def host_record(cpu: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pick_cpu()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, cpu, work)
    try:
        if bench.workload.resume:
            if args.trace:
                bench.build_journals((True, False), ledgered=True)
            else:
                bench.build_journals((True,))
        if args.trace:
            values, units = per_layer(bench, args.seconds), PER_LAYER
        else:
            values, units = end_to_end(bench, args.seconds), END_TO_END
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = len(bench.problems)
    if args.trace:
        values["failed_frac"] = failed / bench.attempted

    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in host_record(cpu).items()))
    print(f"repetitions: {bench.attempted} attempted, {failed} failed "
          f"(failed_frac {failed / bench.attempted:.3f})")
    for name, value in values.items():
        print(f"  {name:28s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
