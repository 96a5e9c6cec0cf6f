"""One benchmark repetition, run in a fresh interpreter.

Usage: ``python3 perfbench/rep.py '<request JSON>'``.  The request names a
CPU; the process pins itself to it *before* ``repro`` is imported, then
runs one of three modes and prints its measurements as the last line of
standard output:

``campaign``
    ``repro.cli.main(argv)`` in-process with two thin shims: one keeps
    the returned report for the correctness gate, one reads the clock
    around each run (``DampiVerifier.run_once``) or, on resume, around
    each journal entry the fold applies.
``traced``
    the same campaign under the per-layer :class:`ledger.Ledger`.
``probe``
    Table II quantities for the workload's program: the virtual-time
    slowdown (``measure_slowdown``, deterministic) and the host-time
    ratio of an instrumented self run to a native ``Runtime(modules=())``
    run.
"""

from __future__ import annotations

import json
import os
import sys
import time

# Pin first: the engine runs one rank thread at a time, so one CPU
# removes no parallelism, and it removes cross-core wake-up latency.
REQUEST = json.loads(sys.argv[1])
os.sched_setaffinity(0, {REQUEST["cpu"]})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.cli  # noqa: E402
from repro.dampi.verifier import DampiVerifier  # noqa: E402

# the workload module is part of set-up, not of the campaign
_module, _, _attr = REQUEST["program"].partition(":")
PROGRAM = getattr(importlib.import_module(_module), _attr)


def install_shims(timed: bool) -> dict:
    """Keep the campaign's report; with ``timed``, also collect per-run
    wall times: guided replays, the self run, and journal entries."""
    record: dict = {"report": None, "runs": [], "self": [], "entries": []}
    clock = time.perf_counter
    verify = DampiVerifier.verify

    def keep_report(self, *args, **kwargs):
        record["report"] = verify(self, *args, **kwargs)
        return record["report"]

    DampiVerifier.verify = keep_report
    if not timed:
        return record
    run_once = DampiVerifier.run_once

    def timed_run(self, decisions=None):
        start = clock()
        out = run_once(self, decisions)
        record["self" if decisions is None else "runs"].append(clock() - start)
        return out

    DampiVerifier.run_once = timed_run
    replay_journal = DampiVerifier._replay_journal
    mark = [0.0]

    def timed_fold(self, *args, **kwargs):
        mark[0] = clock()
        return replay_journal(self, *args, **kwargs)

    DampiVerifier._replay_journal = timed_fold
    for name in ("_apply_run_entry", "_apply_failure_entry"):
        apply = getattr(DampiVerifier, name)

        def timed_apply(self, *args, _apply=apply, **kwargs):
            out = _apply(self, *args, **kwargs)
            now = clock()
            record["entries"].append(now - mark[0])
            mark[0] = now
            return out

        setattr(DampiVerifier, name, timed_apply)
    return record


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def summarize(report) -> dict:
    """What the correctness gate and the metrics need from a report."""
    canon = json.loads(report.to_json())
    canon.pop("wall_seconds")
    canon.pop("telemetry")
    tele = report.telemetry or {}
    metrics = tele.get("metrics", {})
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    return {
        "interleavings": report.interleavings,
        "replays_saved": (report.prune_stats or {}).get("replays_saved", 0),
        "truncated": report.truncated,
        "divergences": report.divergences,
        "errors": sorted([e.kind, e.detail] for e in report.errors),
        "canon": hashlib.sha256(
            json.dumps(canon, sort_keys=True).encode()
        ).hexdigest(),
        "events": tele.get("events", {}).get("captured", 0),
        "pb_messages": counters.get("pb.messages", 0),
        "ckpt_hit_rate": gauges.get("exec.checkpoint_hit_rate") or 0.0,
        "ckpt_bytes_held": gauges.get("exec.checkpoint_bytes_held") or 0,
    }


def campaign(traced: bool) -> dict:
    ledger = None
    if traced:
        from ledger import Ledger

        ledger = Ledger({"program": (REQUEST["program"],)})
        ledger.install()
    record = install_shims(timed=not traced)
    journal = Path(REQUEST["journal"]) if REQUEST.get("journal") else None
    bytes_before = dir_bytes(journal) if journal and journal.exists() else 0
    out = io.StringIO()
    t_main = time.monotonic()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(REQUEST["argv"])
    campaign_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if record["report"] is None:
        raise RuntimeError(f"campaign returned {code} without a report")
    result = {
        "t_main": t_main,
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "journal_bytes": (dir_bytes(journal) - bytes_before) if journal else 0,
        "runs_ms": [s * 1e3 for s in record["runs"]],
        "self_ms": [s * 1e3 for s in record["self"]],
        "entries_ms": [s * 1e3 for s in record["entries"]],
    }
    if ledger is not None:
        # read and remove the ledger before summarize() renders the report
        result["ledger"] = ledger_record(ledger)
        ledger.uninstall()
    result["report"] = summarize(record["report"])
    return result


def ledger_record(ledger) -> dict:
    from repro.pnmpi import ENTRY_POINTS

    targets = ledger.target_totals()
    return {
        "layers": ledger.totals(),
        "targets": targets,
        "fold_s": ledger.fold_s,
        "pnmpi_calls": sum(
            targets[qual]["calls"]
            for layer, qual in ledger.targets
            if layer.startswith("pnmpi.")
            and qual.rsplit(".", 1)[1] in ENTRY_POINTS
        ),
    }


def probe() -> dict:
    from repro.dampi.config import DampiConfig
    from repro.dampi.verifier import measure_slowdown
    from repro.mpi.runtime import Runtime

    cfg = DampiConfig(**REQUEST["config"])
    nprocs, kwargs = REQUEST["nprocs"], REQUEST["kwargs"]
    slowdown = measure_slowdown(PROGRAM, nprocs, cfg, kwargs=kwargs)["slowdown"]
    native, instrumented = [], []
    for _ in range(REQUEST["repeat"]):
        start = time.perf_counter()
        Runtime(
            nprocs, PROGRAM, modules=(), policy=cfg.policy, mode=cfg.mode,
            cost_model=cfg.cost_model, kwargs=kwargs,
        ).run().raise_any()
        native.append(time.perf_counter() - start)
        verifier = DampiVerifier(PROGRAM, nprocs, cfg, kwargs=kwargs)
        start = time.perf_counter()
        verifier.run_once()
        instrumented.append(time.perf_counter() - start)
        verifier.close()
    return {
        "vtime_slowdown": slowdown,
        "host_overhead_ratio": statistics.median(instrumented)
        / statistics.median(native),
    }


if __name__ == "__main__":
    mode = REQUEST["mode"]
    result = probe() if mode == "probe" else campaign(traced=mode == "traced")
    print(json.dumps(result))
