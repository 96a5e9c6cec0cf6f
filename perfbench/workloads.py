"""The four pinned workloads and the correctness gate each repetition passes.

Every workload runs the ``repro verify`` / ``repro resume`` path with CLI
defaults: product tracing on, pruning on, prefix checkpoints on.  Why each
one exists, which layers it loads or bypasses, and why ``BENCHMARK.json``
leaves ``lattice_journal`` out, is in ``METHODS.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

MATMULT = "repro.workloads.matmult:matmult_program"
PARMETIS = "repro.workloads.parmetis:parmetis_program"
LATTICE = "repro.workloads.patterns:wildcard_lattice"


@dataclass(frozen=True)
class Expected:
    """What a correct report of the workload says."""

    #: finding kinds as a sorted list (one entry per finding)
    findings: tuple[str, ...]
    #: size of the unpruned walk: ``interleavings + replays_saved`` must
    #: equal it, so the check survives better pruning
    walk: int
    #: the ranks the findings name, one per finding (empty: not checked)
    finding_ranks: tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    program: str
    nprocs: int
    #: program keyword arguments for a ``--seed``
    kwargs: Callable[[int], dict]
    #: bounded-mixing window (None: unbounded, the CLI default)
    bound_k: Optional[int]
    expected: Expected
    #: the campaign writes a journal (``--journal-dir``)
    journal: bool = False
    #: the campaign is ``repro resume`` of a finished journal
    resume: bool = False

    def verify_argv(self, seed: int, journal: Optional[str] = None,
                    trace: bool = True) -> list[str]:
        """``repro verify`` argv with CLI defaults; for ``lattice_resume``
        this builds the journal the repetitions resume."""
        argv = [
            "verify", self.program, "--nprocs", str(self.nprocs),
            "--kwargs", json.dumps(self.kwargs(seed)),
        ]
        if self.bound_k is not None:
            argv += ["--bound-k", str(self.bound_k)]
        if journal is not None:
            argv += ["--journal-dir", journal]
        if not trace:
            argv.append("--no-trace")
        return argv

    def probe_config(self) -> dict:
        """``DampiConfig`` fields where the CLI's defaults differ from the
        API's (``cmd_verify``), for the Table II probe."""
        return {"bound_k": self.bound_k, "trace_events": True, "prune": True}


def _lattice(seed: int) -> dict:
    """3^6 = 729 interleavings: the P^N space of paper §III-B."""
    return {"receives": 6, "senders": 3}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "matmult_replay", MATMULT, 10,
            lambda seed: {"n": 8, "blocks_per_slave": 4, "seed": seed}, 0,
            Expected(findings=(), walk=253),
        ),
        Workload(
            "parmetis_selfrun", PARMETIS, 16, lambda seed: {"scale": 0.15},
            None,
            Expected(
                findings=("communicator_leak",) * 16,
                walk=1,
                finding_ranks=tuple(range(16)),
            ),
        ),
        Workload(
            "lattice_journal", LATTICE, 4, _lattice, None,
            Expected(findings=(), walk=3 ** 6),
            journal=True,
        ),
        Workload(
            "lattice_resume", LATTICE, 4, _lattice, None,
            Expected(findings=(), walk=3 ** 6),
            journal=True,
            resume=True,
        ),
    )
}


def check(summary: dict, expected: Expected,
          reference: Optional[str] = None) -> list[str]:
    """Problems with one repetition's report summary (empty: correct).

    ``reference`` is the canonical report digest the repetition must
    reproduce (the report JSON without ``wall_seconds`` and
    ``telemetry``)."""
    problems = []
    kinds = tuple(sorted(kind for kind, _ in summary["errors"]))
    if kinds != tuple(sorted(expected.findings)):
        problems.append(
            f"findings {kinds} != expected {tuple(sorted(expected.findings))}"
        )
    if expected.finding_ranks:
        ranks = sorted(
            int(detail.split(":")[0].removeprefix("rank "))
            for _, detail in summary["errors"]
            if detail.startswith("rank ")
        )
        if ranks != sorted(expected.finding_ranks):
            problems.append(f"findings name ranks {ranks}")
    walked = summary["interleavings"] + summary["replays_saved"]
    if walked != expected.walk:
        problems.append(
            f"interleavings + replays_saved = {walked} != walk {expected.walk}"
        )
    if summary["truncated"]:
        problems.append("report truncated")
    if summary["divergences"]:
        problems.append(f"{summary['divergences']} divergences")
    if reference is not None and summary["canon"] != reference:
        problems.append("report differs from the reference report")
    return problems
