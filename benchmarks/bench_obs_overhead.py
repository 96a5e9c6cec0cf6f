"""Telemetry overhead: the tracer's cost on a whole campaign and on the
hot path.

The observability layer (``repro.obs``) instruments the match loop, the
piggyback transport, and the replay scheduler.  Tracing is on by default
from the CLI, so what it costs a ``repro verify`` campaign is a contract:
the ``campaign`` leg gates it end to end.  The self-run legs below hold
the hot path to its own contract — with tracing *disabled* every emitter
site is one attribute load plus an ``is not None`` test — on the matmult
self-run (paper Fig. 6), the same workload the replay-latency bench
uses.  A self-run slice skips restores, the campaign merge and
finalize, so it cannot stand in for the campaign figure.

Campaign leg
------------
``campaign``
    Full ``repro verify`` campaigns of 8-rank matmult with CLI defaults
    (tracing, pruning and prefix checkpoints on; ``--bound-k 0``), each in
    a fresh interpreter pinned to one CPU before ``repro`` is imported.
    Default and ``--no-trace`` campaigns alternate in :data:`PAIRS`
    pairs; the order inside a pair alternates too.  Gated: the median of
    the per-pair traced/untraced wall ratios must stay at or below
    :data:`CAMPAIGN_BUDGET_RATIO`.  The artifact records every wall, the
    pinned CPU and ``os.cpu_count()``.

Self-run legs
-------------
``baseline``
    The tree at :data:`BASELINE_REF`, checked out into a temporary git
    worktree and driven by the same driver in a subprocess, with tracing
    at that tree's default (off).  The ref is pinned to the tip *before
    the most recent hot-path change*, so the disabled gate measures what
    the change itself cost — not unrelated feature drift.  (The original
    anchor was the pre-telemetry PR 2 tip; by the line-rate tracer
    rebuild the tree had absorbed ~8% of hot-path drift from the
    checkpoint/session PRs, which is real but is not telemetry, so the
    anchor moved to the pre-rebuild tip.  Re-anchor the same way when a
    later hot-path feature lands.)
``disabled``
    The current tree with ``trace_events=False``: tracer hooks compiled
    into the engine/modules but inert.  Gated: its min wall must stay
    within :data:`BUDGET_PCT` percent of ``baseline``.
``enabled``
    The current tree with ``trace_events=True`` — the preallocated-ring
    tracer at full capture.  Gated: its min wall must stay within
    :data:`ENABLED_BUDGET_PCT` percent of ``disabled`` (tracing is the
    CLI default, so its cost is a contract, not an FYI).

Overheads are reported twice: ``*_overhead_pct_raw`` is the measured
ratio and can be negative (timing noise on a few-ms workload makes the
instrumented tree occasionally beat the baseline); ``*_overhead_pct`` is
the raw value clamped at 0, which is what the gates compare and what a
reader should quote.

Methodology: each driver performs one cold ``run_once`` (warm-up, builds
the persistent session) then times the following self-runs individually;
legs are interleaved across repetitions so host-load drift hits all
three.  Within a repetition each leg is summarized by its **minimum**
wall (on a loaded single-CPU CI host scheduler jitter swamps a
few-percent effect in means and medians; the minimum — the
least-perturbed observation — converges on the true cost, with p50s
recorded for context), and the gated overhead is the smallest
*within-rep* min-wall ratio across repetitions: the two legs of a rep
run back-to-back, so slow drift cancels in the ratio, while a real
regression shifts every rep and still trips the gate.  The per-leg
blocks in the artifact report each leg's global best rep.  Where git or the baseline commit is
unavailable the baseline leg is skipped and the budget gate is not
applied (``baseline_mode="unavailable"``).

Artifacts: ``benchmarks/results/obs_overhead.txt`` and
``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_obs_overhead.py`
    sys.path.insert(0, str(Path(__file__).parent.parent))

import pytest

from benchmarks._util import FULL, REPO_ROOT, one_shot, record, write_bench_json

#: The tree before the line-rate tracer rebuild (see module doc on
#: re-anchoring).
BASELINE_REF = "2a8cd614582abbaf08cdf4ccc59e0574b4266226"

#: Disabled-tracer overhead budget vs. baseline, in percent (tentpole
#: acceptance criterion; CI fails past this).
BUDGET_PCT = 3.0

#: Enabled-tracer overhead budget vs. disabled, in percent.  Tracing is
#: the CLI default, so this leg is gated too (CI fails past this).
ENABLED_BUDGET_PCT = 5.0

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Repetitions per leg; the gated statistic is the best across reps.
REPS = 1 if SMOKE else (7 if FULL else 5)

#: Traced/untraced wall ratio budget for a whole CLI-default campaign
#: (median over pairs; CI fails past this).
CAMPAIGN_BUDGET_RATIO = 1.20

#: Default / ``--no-trace`` campaign pairs in the campaign leg.
PAIRS = 2 if SMOKE else (11 if FULL else 7)

#: The campaign leg's ``repro verify`` arguments (CLI defaults otherwise).
CAMPAIGN_ARGV = [
    "verify", "repro.workloads.matmult:matmult_program", "--nprocs", "8",
    "--kwargs", json.dumps({"n": 8, "blocks_per_slave": 2 if SMOKE else 3}),
    "--bound-k", "0",
]

#: Timed self-runs per driver invocation (plus one untimed warm-up).
RUNS = 2 if SMOKE else 24

PROGRAM = ("matmult", "repro.workloads.matmult:matmult_program", 8,
           {"n": 8, "blocks_per_slave": 2 if SMOKE else 3})

#: Driver run in a subprocess against either tree: one warm-up self-run,
#: then ``RUNS`` timed ones through the persistent session.  The
#: ``trace_events`` knob is applied only on trees that have it, so the
#: same script drives the pre-telemetry baseline.
_DRIVER = r"""
import dataclasses, json, os, statistics, sys, time, importlib
mod, fn = sys.argv[1].rsplit(":", 1)
nprocs = int(sys.argv[2]); kw = json.loads(sys.argv[3]); runs = int(sys.argv[4])
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
program = getattr(importlib.import_module(mod), fn)
cfg_kwargs = {}
fields = {f.name for f in dataclasses.fields(DampiConfig)}
if os.environ.get("OBS_OVERHEAD_TRACE") == "1" and "trace_events" in fields:
    cfg_kwargs["trace_events"] = True
v = DampiVerifier(program, nprocs, DampiConfig(**cfg_kwargs), kwargs=kw)
v.run_once()  # warm-up: builds runtime, then persistent session kicks in
walls = []
for _ in range(runs):
    t0 = time.perf_counter()
    v.run_once()
    walls.append(time.perf_counter() - t0)
v.close()
walls.sort()
print("OBS_OVERHEAD_JSON:" + json.dumps({
    "runs": len(walls),
    "p50_ms": 1000 * statistics.median(walls),
    "min_ms": 1000 * walls[0],
}))
"""


#: One campaign in a fresh interpreter: pin to the given CPU *before*
#: ``repro`` is imported (the engine runs one rank thread at a time, so
#: one CPU removes no parallelism, only cross-core wake-up latency), then
#: run ``repro.cli.main`` with its output discarded.
_CAMPAIGN_DRIVER = r"""
import contextlib, io, json, os, sys, time
cpu = int(sys.argv[1])
if cpu >= 0:
    os.sched_setaffinity(0, {cpu})
import repro.cli
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(sys.argv[2:])
print("OBS_CAMPAIGN_JSON:" + json.dumps(
    {"wall_s": time.perf_counter() - t0, "exit": code}
))
"""


def _pin_cpu() -> int:
    """The CPU campaign drivers pin to (the highest one allowed), or -1
    where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return -1
    return max(os.sched_getaffinity(0))


def _run_campaign(cpu: int, trace: bool) -> float:
    argv = CAMPAIGN_ARGV + ([] if trace else ["--no-trace"])
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _CAMPAIGN_DRIVER, str(cpu), *argv],
        capture_output=True, text=True, env=env, timeout=600,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("OBS_CAMPAIGN_JSON:"):
            out = json.loads(line[len("OBS_CAMPAIGN_JSON:"):])
            if out["exit"] == 0:
                return out["wall_s"]
    raise RuntimeError(
        f"campaign driver failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
    )


def run_campaign_leg() -> dict:
    """Paired, alternating default / ``--no-trace`` campaigns."""
    cpu = _pin_cpu()
    traced, untraced = [], []
    for i in range(PAIRS):
        for trace in ((True, False) if i % 2 == 0 else (False, True)):
            (traced if trace else untraced).append(_run_campaign(cpu, trace))
    ratios = [t / u for t, u in zip(traced, untraced)]
    return {
        "argv": CAMPAIGN_ARGV,
        "pairs": PAIRS,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "traced_s": traced,
        "untraced_s": untraced,
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "budget_ratio": CAMPAIGN_BUDGET_RATIO,
    }


def _run_driver(src_root: Path, label: str, trace: bool = False) -> dict:
    _, program, nprocs, kwargs = PROGRAM
    # Pin the hash seed: on a ~4ms workload, per-process str-hash
    # randomisation shifts dict/set costs enough to masquerade as a
    # few-percent tree-vs-tree difference.
    env = dict(os.environ, PYTHONPATH=str(src_root), PYTHONHASHSEED="0")
    if trace:
        env["OBS_OVERHEAD_TRACE"] = "1"
    else:
        env.pop("OBS_OVERHEAD_TRACE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, program, str(nprocs),
         json.dumps(kwargs), str(RUNS)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{label} driver failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith("OBS_OVERHEAD_JSON:"):
            return json.loads(line[len("OBS_OVERHEAD_JSON:"):])
    raise RuntimeError(f"{label} driver produced no result line")


class _Baseline:
    """Checkout of :data:`BASELINE_REF` in a temporary git worktree."""

    def __init__(self):
        self.mode = "worktree"
        self.path: Path | None = None

    def __enter__(self) -> "_Baseline":
        tmp = Path(tempfile.mkdtemp(prefix="obs-overhead-baseline-"))
        wt = tmp / "tree"
        try:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "add",
                 "--detach", str(wt), BASELINE_REF],
                check=True, capture_output=True, text=True, timeout=120,
            )
            self.path = wt
        except (subprocess.SubprocessError, FileNotFoundError):
            self.mode = "unavailable"
        return self

    def __exit__(self, *exc) -> None:
        if self.path is not None:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "remove",
                 "--force", str(self.path)],
                capture_output=True, timeout=120,
            )


def run_overhead() -> dict:
    data: dict = {
        "baseline_ref": BASELINE_REF,
        "budget_pct": BUDGET_PCT,
        "enabled_budget_pct": ENABLED_BUDGET_PCT,
        "reps": REPS,
        "runs_per_rep": RUNS,
        "program": PROGRAM[0],
        "nprocs": PROGRAM[2],
        "kwargs": PROGRAM[3],
    }
    src = REPO_ROOT / "src"
    with _Baseline() as base:
        data["baseline_mode"] = base.mode
        legs: dict[str, list] = {"baseline": [], "disabled": [], "enabled": []}
        for _ in range(REPS):  # interleave legs against host-load drift
            if base.path is not None:
                legs["baseline"].append(
                    _run_driver(base.path / "src", "baseline")
                )
            legs["disabled"].append(_run_driver(src, "disabled"))
            legs["enabled"].append(_run_driver(src, "enabled", trace=True))
        for name, reps in legs.items():
            if reps:
                best = min(reps, key=lambda r: r["min_ms"])
                data[name] = {
                    "runs": sum(r["runs"] for r in reps),
                    "min_ms": best["min_ms"],
                    "p50_ms": best["p50_ms"],
                }
        # Overheads are *paired within a rep*: the legs of one rep run
        # back-to-back, so slow host-load drift hits both and cancels in
        # the ratio; taking ratios across reps (each leg's global min)
        # compares different load windows and flaps by a few percent on
        # a busy single-CPU host.  The gated value is the quietest rep's
        # ratio — a real regression shifts every rep, so the min still
        # catches it.
        def _paired(num: list, den: list) -> float | None:
            ratios = [
                100.0 * (n["min_ms"] / d["min_ms"] - 1.0)
                for n, d in zip(num, den)
            ]
            return min(ratios) if ratios else None
        raw = _paired(legs["disabled"], legs["baseline"])
        if raw is not None:
            data["disabled_overhead_pct_raw"] = raw
            data["disabled_overhead_pct"] = max(0.0, raw)
        raw = _paired(legs["enabled"], legs["disabled"])
        data["enabled_overhead_pct_raw"] = raw
        data["enabled_overhead_pct"] = max(0.0, raw)
    data["campaign"] = run_campaign_leg()
    return data


def _report(data: dict) -> list[str]:
    camp = data["campaign"]
    lines = [
        f"Tracing cost on a whole campaign ({' '.join(camp['argv'][1:4])}, "
        f"{camp['pairs']} pairs, pinned to CPU {camp['pinned_cpu']} of "
        f"{camp['cpu_count']})",
        "",
        f"  traced   : median {statistics.median(camp['traced_s']):.3f} s",
        f"  untraced : median {statistics.median(camp['untraced_s']):.3f} s",
        f"  traced/untraced median ratio: {camp['median_ratio']:.3f} "
        f"(budget {camp['budget_ratio']:.2f})",
        "",
        f"Telemetry overhead on the {data['program']} self-run "
        f"(baseline={data['baseline_mode']}, reps={data['reps']}, "
        f"{data['runs_per_rep']} timed runs/rep)",
        "",
    ]
    for leg in ("baseline", "disabled", "enabled"):
        if leg in data:
            lines.append(
                f"  {leg:>9}: min {data[leg]['min_ms']:8.2f} ms | "
                f"p50 {data[leg]['p50_ms']:8.2f} ms "
                f"({data[leg]['runs']} runs)"
            )
    if "disabled_overhead_pct" in data:
        lines.append(
            f"  disabled-tracer overhead vs baseline: "
            f"{data['disabled_overhead_pct']:.2f}% "
            f"(raw {data['disabled_overhead_pct_raw']:+.2f}%, "
            f"budget {data['budget_pct']:.0f}%)"
        )
    lines.append(
        f"  enabled-tracer cost over disabled:    "
        f"{data['enabled_overhead_pct']:.2f}% "
        f"(raw {data['enabled_overhead_pct_raw']:+.2f}%, "
        f"budget {data['enabled_budget_pct']:.0f}%)"
    )
    return lines


def _check(data: dict) -> None:
    assert data["disabled"]["runs"] >= 2
    if SMOKE:
        return
    if data["baseline_mode"] == "worktree":
        pct = data["disabled_overhead_pct"]
        assert pct < data["budget_pct"], (
            f"disabled-tracer overhead {pct:.2f}% exceeds the "
            f"{data['budget_pct']:.0f}% budget"
        )
    pct = data["enabled_overhead_pct"]
    assert pct < data["enabled_budget_pct"], (
        f"enabled-tracer overhead {pct:.2f}% exceeds the "
        f"{data['enabled_budget_pct']:.0f}% budget"
    )
    camp = data["campaign"]
    assert camp["median_ratio"] <= camp["budget_ratio"], (
        f"tracing makes a campaign {camp['median_ratio']:.3f}x slower, "
        f"past the {camp['budget_ratio']:.2f}x budget"
    )


@pytest.mark.slow
def test_obs_overhead(benchmark):
    data = one_shot(benchmark, run_overhead)
    _check(data)
    record("obs_overhead", _report(data))
    write_bench_json("obs_overhead", data)


if __name__ == "__main__":
    data = run_overhead()
    _check(data)
    record("obs_overhead", _report(data))
    write_bench_json("obs_overhead", data)
