"""Replay execution for the serial walk.

:meth:`DampiVerifier.verify` is the DFS of paper §II-B: each iteration
it asks the schedule generator for the next epoch decisions and hands
them to a :class:`ReplayExecutor`, which runs the guided replay
in-process on the verifier's persistent replay session (one runtime,
parked rank threads, prefix checkpoints) and keeps the campaign's
execution accounting — the ``exec.*`` gauges, including the session's
``exec.checkpoint_*`` cache counters that ``repro stats`` renders.

Replays run one at a time.  To spread a campaign over several
processes, use ``repro dist run --workers N`` (:mod:`repro.dist`): its
durable prefix leases, journals and worker-loss handling produce
reports bit-identical to the serial walk's.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dampi.decisions import EpochDecisions


class ReplayExecutor:
    """Runs a campaign's guided replays in-process.

    Parameters
    ----------
    runner:
        ``run_once``-shaped callable: decisions -> ``(result, trace)``.
    checkpoint_stats_fn:
        Source of the session's prefix-checkpoint cache counters
        (returns None while no session exists).
    """

    def __init__(self, runner: Callable, checkpoint_stats_fn: Callable):
        self._runner = runner
        self._checkpoint_stats_fn = checkpoint_stats_fn
        self.consumed = 0

    def run(self, decisions: EpochDecisions):
        """Execute one guided replay; returns ``(result, trace)``."""
        self.consumed += 1
        return self._runner(decisions)

    def checkpoint_stats(self) -> Optional[dict]:
        """The session's prefix-checkpoint cache counters, or None when
        no replay session ever ran (a self-run-only campaign)."""
        return self._checkpoint_stats_fn()

    def stats(self) -> dict:
        out = {"mode": "inline", "consumed": self.consumed}
        ckpt = self.checkpoint_stats()
        if ckpt is not None:
            out["checkpoint"] = ckpt
        return out
