"""Verifier configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mpi.costmodel import CostModel


@dataclass
class DampiConfig:
    """Everything tunable about a DAMPI verification session.

    Attributes
    ----------
    clock_impl:
        ``"lamport"`` (the paper's scalable default); ``"vector"``
        (precise; restores completeness on the Fig. 4 cross-coupled
        pattern at O(nprocs) piggyback cost); or ``"lamport_dual"`` /
        ``"vector_dual"`` — the §V dual-clock pair that additionally
        closes the Fig. 10 omission (uncommitted epoch ticks never
        transmit; the paper's proposed future-work mechanism).
    piggyback:
        ``"separate"`` — the paper's mechanism: one extra message per
        message on a shadow communicator, wildcard piggybacks received
        only after the wildcard completes; or ``"inline"`` — pack the
        clock into the payload (the datatype-packing alternative of the
        paper's piggyback study [15]).
    bound_k:
        Bounded-mixing window (paper §III-B2).  ``None`` = unbounded
        (full coverage); ``0`` = flip each epoch once with a self-run
        suffix; larger values let flipped epochs "mix" ``k`` decisions
        deep.
    max_interleavings / max_seconds:
        Hard budget guards; the report flags truncation.
    jobs:
        Replay parallelism.  ``1`` (the default) replays in-process,
        serially.  ``N > 1`` runs guided replays on a pool of ``N``
        worker processes via :mod:`repro.dampi.parallel`; ``None`` uses
        ``os.cpu_count()``.  The report is bit-identical to ``jobs=1``
        (the pool only *pre-computes* the schedules the serial walk
        requests).  Falls back to in-process execution automatically when
        the program is unpicklable.
    job_timeout_seconds:
        Per-replay wall-clock timeout in pool mode; a worker exceeding it
        (or dying) is reported as a ``crash`` defect with its witness
        schedule instead of hanging the session.  ``None`` disables.
    force_jobs:
        By default ``jobs > 1`` is auto-demoted to in-process execution
        on single-CPU hosts, where process-pool dispatch can only add
        overhead (``pool_stats`` records the demotion and its reason).
        ``True`` skips the heuristic and uses the pool regardless —
        tests of the pool machinery and oversubscription experiments.
    persistent_session:
        Reuse one runtime + rank-executor-thread pool + module stack
        across the guided replays of a verification (engine state is
        rebuilt per run; see ``Runtime.recycle``).  Cuts per-replay
        thread spawn/join and interposition-chain compilation — the
        dominant per-replay cost on small workloads — while keeping
        reports bit-identical to cold-start execution.  Automatically
        bypassed when ``policy`` is a policy *instance* (its internal
        state could carry across runs).  ``False`` restores a fresh
        Runtime per run.
    indexed_matching:
        Use dict-indexed unexpected/posted message queues (O(1) deposit
        and match) instead of the reference linear scans.  Match order
        is bit-identical either way; ``False`` is the ablation path.
    policy / mode / cost_model:
        Substrate knobs (wildcard match policy for SELF_RUN portions,
        scheduling mode, virtual-time constants).
    enable_leak_check / enable_monitor / trace_ops:
        Toggle the auxiliary checker modules.
    keep_traces:
        Retain every run's full trace on the report (memory-hungry;
        useful in tests).
    trace_events:
        Capture structured telemetry events (wildcard matches, epochs,
        piggyback sends, run/scheduler lifecycle) into the report's
        ``events`` stream, exportable as JSONL or Chrome trace_event JSON
        (see :mod:`repro.obs`).  Off by default: the disabled path costs
        one ``is not None`` test per emitter site
        (``benchmarks/bench_obs_overhead.py`` bounds it at <3%).
    trace_buffer:
        Ring-buffer capacity (events) for each tracer when
        ``trace_events`` is on; overflow drops the oldest events and is
        reported in ``telemetry["events"]["dropped"]``.
    trace_sample_every:
        Payload sampling for per-run event streams: full payloads are
        recorded for the self run and for 1-in-N guided replays, chosen
        deterministically from the schedule signature (so the sampled
        stream is identical across ``jobs`` settings and is an exact
        subset of the rate-1 stream).  Every event still increments the
        exact ``events.*`` counters regardless of the rate, so telemetry
        totals are invariant under sampling.  1 (default) records every
        run.
    progress_interval_seconds:
        When set, ``verify()`` writes a live progress heartbeat (runs
        done/queued, frontier depth, dedup-cache hit rate, ETA) to stderr
        at most this often.  ``None`` (default) disables.
    artifacts_dir:
        When set, every run's epochs, potential matches, and forced
        decisions are written under this directory as line-oriented JSON
        — the file tree of the paper's Fig. 1 (see
        :mod:`repro.dampi.artifacts`).
    fault_plan:
        Deterministic fault injection spec (see :mod:`repro.dampi.faults`):
        comma-separated ``action@site[:selector][:param]`` terms that
        kill/hang/delay replay workers, the verify loop, escalation
        stages, or campaign cells at chosen points.  Travels inside the
        config, so pooled replay workers and campaign cells inherit it
        automatically.  ``None`` (the default) injects nothing.
    journal_checkpoint_interval:
        When verifying with a journal, write a full generator-state
        checkpoint every this many journaled runs (resume transition-
        replays only the entries after the latest checkpoint).
    journal_segment_bytes:
        Journal segment rotation threshold (see
        :mod:`repro.dampi.journal`).
    journal_fsync:
        ``fsync`` every journal append (the durability the journal
        exists for).  ``False`` trades crash-safety for speed — only
        sensible in tests and on battery-backed storage.
    """

    clock_impl: str = "lamport"
    piggyback: str = "separate"
    bound_k: Optional[int] = None
    #: Automatic loop-iteration abstraction (the paper's §VI future work):
    #: freeze wildcard epochs past this many consecutive same-signature
    #: occurrences per rank, without requiring MPI_Pcontrol annotations.
    #: ``None`` disables the heuristic.
    auto_loop_threshold: Optional[int] = None
    max_interleavings: Optional[int] = None
    max_seconds: Optional[float] = None
    jobs: Optional[int] = 1
    job_timeout_seconds: Optional[float] = None
    force_jobs: bool = False
    persistent_session: bool = True
    indexed_matching: bool = True
    #: Prefix-sharing replay (see :mod:`repro.dampi.checkpoint`): snapshot
    #: the engine at each explored decision point and start the sibling
    #: schedules of that point from the snapshot instead of re-executing
    #: the shared prefix from MPI_Init.  Reports stay bit-identical; the
    #: session demotes itself (logged, like the single-CPU ``jobs``
    #: demotion) when the run uses non-snapshotable resources.
    prefix_checkpoints: bool = True
    #: Byte budget (MiB) for the per-session prefix-checkpoint LRU cache.
    checkpoint_cache_mb: int = 64
    #: Snapshot only decision points whose forced-prefix depth is a
    #: multiple of this (1 = every decision point).
    checkpoint_interval: int = 1
    #: Future-equivalence subtree pruning (see :mod:`repro.dampi.prune`):
    #: when a flipped sibling's run provably matches an already-walked
    #: sibling — same downstream send/recv skeleton fingerprint *and*
    #: identical checker outcome — the generator marks the un-walked
    #: subtree pruned instead of expanding it (outcome-dedup generalized
    #: from leaves to subtrees).  Findings stay bit-identical to the
    #: unpruned walk; every pruned subtree is accounted for in
    #: ``report.prune_stats`` and the journal.  CLI: ``--prune`` /
    #: ``--no-prune``.
    prune: bool = False
    #: Adaptive per-epoch clock escalation: run the configured scalar
    #: clock (``lamport`` / ``lamport_dual``) by default, detect the
    #: Fig. 4 cross-coupled imprecision pattern from each recorded trace
    #: (an epoch whose late-send set could be inflated by scalar
    #: mis-ordering), and re-verify only the affected runs under vector
    #: clocks — augmenting the scalar trace with the vector-only
    #: alternatives instead of paying O(nprocs) piggyback campaign-wide.
    #: Requires a scalar ``clock_impl``.
    adaptive_clocks: bool = False
    policy: str = "arrival"
    mode: str = "run_to_block"
    cost_model: CostModel = field(default_factory=CostModel)
    enable_leak_check: bool = True
    enable_monitor: bool = True
    trace_ops: bool = False
    keep_traces: bool = False
    artifacts_dir: Optional[str] = None
    trace_events: bool = False
    trace_buffer: int = 65536
    trace_sample_every: int = 1
    progress_interval_seconds: Optional[float] = None
    fault_plan: Optional[str] = None
    journal_checkpoint_interval: int = 16
    journal_segment_bytes: int = 4 * 1024 * 1024
    journal_fsync: bool = True
    #: distributed mode (repro.dist): how often each worker sends a
    #: heartbeat/progress frame to the coordinator.  Execution knob —
    #: not part of the semantic config signature.
    dist_heartbeat_seconds: float = 0.5
    #: distributed mode: a lease whose worker shows no progress (no
    #: record, donation, or run-count advance) for this long is declared
    #: lost — the worker is terminated and the lease re-issued.  Must
    #: comfortably exceed the cost of one replay.
    dist_lease_timeout_seconds: float = 30.0

    _CLOCK_IMPLS = ("lamport", "vector", "lamport_dual", "vector_dual")

    def __post_init__(self) -> None:
        if self.clock_impl not in self._CLOCK_IMPLS:
            raise ValueError(
                f"clock_impl must be one of {self._CLOCK_IMPLS}, not {self.clock_impl!r}"
            )
        if self.piggyback not in ("separate", "inline"):
            raise ValueError(f"piggyback must be separate|inline, not {self.piggyback!r}")
        if self.bound_k is not None and self.bound_k < 0:
            raise ValueError("bound_k must be None or >= 0")
        if self.auto_loop_threshold is not None and self.auto_loop_threshold < 1:
            raise ValueError("auto_loop_threshold must be None or >= 1")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be None (= cpu_count) or >= 1")
        if self.job_timeout_seconds is not None and self.job_timeout_seconds <= 0:
            raise ValueError("job_timeout_seconds must be None or > 0")
        if self.checkpoint_cache_mb < 1:
            raise ValueError("checkpoint_cache_mb must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.adaptive_clocks and self.clock_impl not in (
            "lamport",
            "lamport_dual",
        ):
            raise ValueError(
                "adaptive_clocks escalates a scalar clock to vector "
                "precision; it requires clock_impl lamport|lamport_dual, "
                f"not {self.clock_impl!r}"
            )
        if self.trace_buffer < 1:
            raise ValueError("trace_buffer must be >= 1")
        if self.trace_sample_every < 1:
            raise ValueError("trace_sample_every must be >= 1")
        if (
            self.progress_interval_seconds is not None
            and self.progress_interval_seconds < 0
        ):
            raise ValueError("progress_interval_seconds must be None or >= 0")
        if self.fault_plan is not None:
            # parse eagerly so a typo'd plan fails at construction, not at
            # the (possibly hours-later) injection site
            from repro.dampi.faults import FaultPlan

            FaultPlan.parse(self.fault_plan)
        if self.journal_checkpoint_interval < 1:
            raise ValueError("journal_checkpoint_interval must be >= 1")
        if self.journal_segment_bytes < 4096:
            raise ValueError("journal_segment_bytes must be >= 4096")
        if self.dist_heartbeat_seconds <= 0:
            raise ValueError("dist_heartbeat_seconds must be > 0")
        if self.dist_lease_timeout_seconds <= 0:
            raise ValueError("dist_lease_timeout_seconds must be > 0")
