"""Self-tests of the campaign benchmark.

Run from the repository root: ``python3 -m pytest perfbench``.  They use
small workloads, so the whole file takes well under a minute.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from ledger import LAYERS, Ledger, _resolve  # noqa: E402
from workloads import LATTICE, Expected, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")

#: 3^3 = 27 interleavings, journaled: exercises the engine, every PnMPI
#: module, snapshots and the journal in about half a second
TINY = Workload(
    "tiny_lattice", LATTICE, 4, lambda seed: {"receives": 3, "senders": 3},
    None, Expected(findings=(), walk=27), journal=True,
)

#: counts that must repeat exactly between traced passes
DETERMINISTIC = (
    "engine.calls",
    "engine.envelopes",
    "pnmpi.calls",
    "pb.messages",
    "runs.executed",
    "prune.replays_saved",
    "journal.appends",
)


@pytest.fixture
def bench(tmp_path):
    serial = itertools.count()

    def make(workload: Workload) -> run.Bench:
        work = tmp_path / str(next(serial))
        work.mkdir()
        return run.Bench(workload, seed=1, cpu=run.pick_cpu(), work=work)

    return make


def test_uninstall_restores_original_callables():
    ledger = Ledger({"program": (LATTICE,)})
    targets = [
        (owner, name)
        for specs in ledger.layers.values()
        for spec in specs
        for owner, name, _ in _resolve(spec)
    ]
    modules = [m for n, m in sys.modules.items() if n.startswith("repro")]
    before_attrs = [vars(owner).get(name) for owner, name in targets]
    before_globals = [dict(vars(m)) for m in modules]

    ledger.install()
    try:
        from repro.dampi.verifier import DampiVerifier
        from repro.mpi.engine import MessageEngine

        assert DampiVerifier.verify.__wrapped__ is not None
        assert MessageEngine.pmpi_isend.__wrapped__ is not None
    finally:
        ledger.uninstall()

    assert len(targets) > 300
    for (owner, name), before in zip(targets, before_attrs):
        assert vars(owner).get(name) is before, f"{owner}.{name}"
    for module, before in zip(modules, before_globals):
        for key, value in before.items():
            assert vars(module)[key] is value, f"{module.__name__}.{key}"


def test_every_layer_resolves_to_callables():
    for layer, specs in LAYERS.items():
        found = [t for spec in specs for t in _resolve(spec)]
        assert found, f"layer {layer} wraps nothing"


def test_wrong_expected_finding_fails_the_repetition(bench):
    right = bench(TINY)
    result = right.rep()
    assert result is not None and right.problems == []
    assert "ledger" not in result  # timed repetitions run unwrapped

    wrong = bench(Workload(
        TINY.name, TINY.program, TINY.nprocs, TINY.kwargs, TINY.bound_k,
        Expected(findings=("deadlock",), walk=27), journal=True,
    ))
    assert wrong.rep() is None
    assert wrong.attempted == 1 and len(wrong.problems) == 1
    assert "findings" in wrong.problems[0]


def test_metric_names_and_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit) and len(unit) <= 16, unit
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(bench):
    metrics = run.per_layer(bench(TINY), seconds=0)
    assert set(metrics) == set(run.PER_LAYER) - {"failed_frac"}
    assert metrics["journal.appends"] > 0 and metrics["snapshot.captures"] > 0
    assert metrics["ledger.attributed_frac"] >= run.MIN_ATTRIBUTED


def test_deterministic_counts_repeat_between_traced_passes(bench):
    b = bench(TINY)
    passes = [run.ledger_metrics(b.rep(mode="traced")) for _ in range(4)]
    for name in DETERMINISTIC:
        values = [p[name] for p in passes]
        assert len(set(values)) == 1, f"{name} varies: {values}"
    slowdowns = {b.probe()["vtime_slowdown"] for _ in range(2)}
    assert len(slowdowns) == 1
