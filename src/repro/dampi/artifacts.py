"""On-disk verification artifacts — the files of the paper's Fig. 1.

Real DAMPI is file-centric: each process appends its *Potential Matches*
to a file during the run; the offline *Schedule Generator* reads those
files and emits the *Epoch Decisions* file the next (guided) run consumes.
This module reproduces that architecture so a verification session leaves
a complete, inspectable, re-analyzable paper trail:

.. code-block:: text

    <root>/
      run0000/
        epochs.jsonl              one line per epoch (all ranks)
        potential_matches.jsonl   one line per late-message record
        meta.json                 divergence flags, counts
      run0001/
        decisions.json            the schedule this replay was forced to
        epochs.jsonl ...
      ...

Everything is line-oriented JSON, so standard tooling (grep/jq) works on
it, and :func:`load_run_trace` reconstructs a full
:class:`~repro.dampi.epoch.RunTrace` for offline re-analysis — the
schedule generator produces identical decisions from reloaded artifacts
(pinned by tests).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.clocks.lamport import LamportStamp
from repro.clocks.vector import VectorStamp
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace


# -- stamp (de)serialisation ------------------------------------------------


def stamp_to_jsonable(stamp) -> Optional[dict]:
    if stamp is None:
        return None
    if isinstance(stamp, LamportStamp):
        return {"kind": "lamport", "time": stamp.time, "rank": stamp.rank}
    if isinstance(stamp, VectorStamp):
        return {"kind": "vector", "components": list(stamp.components)}
    raise TypeError(f"unknown stamp type {type(stamp).__name__}")


def stamp_from_jsonable(payload: Optional[dict]):
    if payload is None:
        return None
    if payload["kind"] == "lamport":
        return LamportStamp(payload["time"], payload.get("rank", -1))
    if payload["kind"] == "vector":
        return VectorStamp(tuple(payload["components"]))
    raise ValueError(f"unknown stamp kind {payload['kind']!r}")


# -- record (de)serialisation --------------------------------------------------


def epoch_to_jsonable(e: EpochRecord) -> dict:
    return {
        "rank": e.rank,
        "lc": e.lc,
        "index": e.index,
        "ctx": e.ctx,
        "tag": e.tag,
        "kind": e.kind,
        "stamp": stamp_to_jsonable(e.stamp),
        "explore": e.explore,
        "forced": e.forced,
        "matched_source": e.matched_source,
        "matched_env_uid": e.matched_env_uid,
        "matched_seq": e.matched_seq,
    }


def epoch_from_jsonable(payload: dict) -> EpochRecord:
    e = EpochRecord(
        rank=payload["rank"],
        lc=payload["lc"],
        index=payload["index"],
        ctx=payload["ctx"],
        tag=payload["tag"],
        kind=payload["kind"],
        stamp=stamp_from_jsonable(payload["stamp"]),
        explore=payload["explore"],
        forced=payload["forced"],
    )
    e.matched_source = payload["matched_source"]
    e.matched_env_uid = payload["matched_env_uid"]
    e.matched_seq = payload["matched_seq"]
    return e


def match_to_jsonable(m: PotentialMatch) -> dict:
    return {
        "epoch": list(m.epoch),
        "source": m.source,
        "env_uid": m.env_uid,
        "seq": m.seq,
        "tag": m.tag,
        "stamp": stamp_to_jsonable(m.stamp),
    }


def match_from_jsonable(payload: dict) -> PotentialMatch:
    return PotentialMatch(
        epoch=tuple(payload["epoch"]),
        source=payload["source"],
        env_uid=payload["env_uid"],
        seq=payload["seq"],
        tag=payload["tag"],
        stamp=stamp_from_jsonable(payload["stamp"]),
    )


# -- the store -------------------------------------------------------------------


class ArtifactStore:
    """Writes and reads one verification session's file tree."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def run_dir(self, run_index: int) -> Path:
        return self.root / f"run{run_index:04d}"

    def write_run(
        self,
        run_index: int,
        trace: RunTrace,
        decisions: Optional[EpochDecisions] = None,
    ) -> Path:
        d = self.run_dir(run_index)
        d.mkdir(parents=True, exist_ok=True)
        with open(d / "epochs.jsonl", "w", encoding="utf-8") as fh:
            for e in trace.all_epochs():
                fh.write(json.dumps(epoch_to_jsonable(e)) + "\n")
        with open(d / "potential_matches.jsonl", "w", encoding="utf-8") as fh:
            for m in trace.potential_matches:
                fh.write(json.dumps(match_to_jsonable(m)) + "\n")
        meta = {
            "nprocs": trace.nprocs,
            "wildcards": trace.wildcard_count,
            "unconsumed_decisions": [list(k) for k in trace.unconsumed_decisions],
            "forced_mismatches": [list(k) for k in trace.forced_mismatches],
        }
        (d / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
        if decisions is not None:
            # the schedule alone: ``expect_siblings`` is an execution hint
            # the generator sets and a decoded run entry does not carry
            EpochDecisions(decisions.forced, decisions.flip).save(
                d / "decisions.json"
            )
        return d

    def load_run_trace(self, run_index: int) -> RunTrace:
        d = self.run_dir(run_index)
        meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
        # every rank keyed, as in a live trace (the prune fingerprint
        # hashes empty per-rank rows too)
        epochs: dict[int, list[EpochRecord]] = {
            r: [] for r in range(meta["nprocs"])
        }
        with open(d / "epochs.jsonl", encoding="utf-8") as fh:
            for line in fh:
                e = epoch_from_jsonable(json.loads(line))
                epochs[e.rank].append(e)
        for rank_epochs in epochs.values():
            rank_epochs.sort(key=lambda e: e.index)
        matches = []
        with open(d / "potential_matches.jsonl", encoding="utf-8") as fh:
            for line in fh:
                matches.append(match_from_jsonable(json.loads(line)))
        return RunTrace(
            nprocs=meta["nprocs"],
            epochs=epochs,
            potential_matches=matches,
            unconsumed_decisions=[tuple(k) for k in meta["unconsumed_decisions"]],
            forced_mismatches=[tuple(k) for k in meta["forced_mismatches"]],
        )

    def load_decisions(self, run_index: int) -> Optional[EpochDecisions]:
        path = self.run_dir(run_index) / "decisions.json"
        if not path.exists():
            return None
        return EpochDecisions.load(path)

    def run_indices(self) -> list[int]:
        return sorted(
            int(p.name[3:]) for p in self.root.glob("run[0-9]*") if p.is_dir()
        )

    def __repr__(self) -> str:
        return f"ArtifactStore({self.root}, {len(self.run_indices())} runs)"
