"""Per-layer cost ledger for one traced campaign, installed from outside.

The ledger wraps the public entry points of each ``repro`` module (and
the few private helpers that carry a whole layer's work, named below)
with a timer.  Every thread keeps its own stack of open frames; when a
frame closes, its CPU time (``time.thread_time``) minus the CPU time of
the frames it opened is charged to its layer as *self time*.  Rank
threads run one at a time under the engine's token, and a blocked thread
accrues no CPU, so per-thread self times add up without double counting.

Layers listed in ``WALL_LAYERS`` also record inclusive wall and CPU
time: for the blocking I/O the CPU clock cannot see (journal fsync), for
the resume fold, and for telemetry calls whose cost sits in the tracer
they drive.

Nothing here runs in timed repetitions: ``perfbench/rep.py`` installs the
ledger only in the separate traced subprocess.  ``install`` imports the
target modules; ``uninstall`` puts every original callable back.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
import types
from functools import wraps

#: Layer -> targets.  ``"module:Class.*"`` wraps every public plain
#: function the class itself defines; ``"module:Class.name"`` and
#: ``"module:function"`` wrap one callable (private ones included).
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("repro.cli:main",),
    "verifier": (
        "repro.dampi.verifier:DampiVerifier.verify",
        "repro.dampi.verifier:DampiVerifier.run_once",
        "repro.dampi.verifier:DampiVerifier.close",
        "repro.dampi.verifier:DampiVerifier._escalate",
        "repro.dampi.verifier:DampiVerifier._replay_journal",
        "repro.dampi.verifier:DampiVerifier._check_journal_schedule",
        "repro.dampi.verifier:_ReplaySession.*",
        "repro.dampi.verifier:_ReplaySession.__init__",
        "repro.dampi.verifier:_ReplaySession._run_full",
        "repro.dampi.verifier:_ReplaySession._run_recording",
        "repro.dampi.verifier:_ReplaySession._run_restored",
        "repro.dampi.verifier:_ReplaySession._capture",
        "repro.dampi.parallel:ReplayExecutor.*",
    ),
    "report": (
        "repro.dampi.verifier:DampiVerifier._record_run",
        "repro.dampi.verifier:DampiVerifier._record_worker_failure",
        "repro.dampi.verifier:DampiVerifier._apply_run_entry",
        "repro.dampi.verifier:DampiVerifier._apply_failure_entry",
        "repro.dampi.verifier:completed_outcome",
        "repro.dampi.verifier:VerificationReport.*",
    ),
    "explorer": ("repro.dampi.explorer:ScheduleGenerator.*",),
    "prune.signature": ("repro.dampi.prune:signature_of",),
    "journal.append": (
        "repro.dampi.journal:CampaignJournal.append",
        "repro.dampi.journal:CampaignJournal.close",
    ),
    "journal.serialize": (
        "repro.dampi.journal:trace_to_jsonable",
        "repro.dampi.journal:snapshot_generator",
        "repro.dampi.journal:decisions_to_jsonable",
        "repro.dampi.journal:leaks_to_jsonable",
        "repro.dampi.journal:monitor_to_jsonable",
        "repro.dampi.journal:outcome_to_jsonable",
        "repro.dampi.verifier:DampiVerifier._journal_run_entry",
        "repro.dampi.verifier:DampiVerifier._journal_failure_entry",
        "repro.dampi.verifier:DampiVerifier._journal_checkpoint",
    ),
    "journal.load": (
        "repro.dampi.journal:CampaignJournal.__init__",
        "repro.dampi.journal:CampaignJournal.run_entries",
        "repro.dampi.journal:CampaignJournal.latest_checkpoint",
        "repro.dampi.journal:CampaignJournal.ensure_meta",
    ),
    "journal.decode": (
        "repro.dampi.journal:trace_from_jsonable",
        "repro.dampi.journal:decisions_from_jsonable",
        "repro.dampi.journal:leaks_from_jsonable",
        "repro.dampi.journal:monitor_from_jsonable",
        "repro.dampi.journal:outcome_from_jsonable",
        "repro.dampi.journal:restore_generator",
    ),
    "obs.record_run": ("repro.obs.campaign:CampaignTelemetry.record_run",),
    "obs.finalize": ("repro.obs.campaign:CampaignTelemetry.finalize",),
    "obs": (
        "repro.obs.campaign:CampaignTelemetry.__init__",
        "repro.obs.campaign:CampaignTelemetry.run_started",
        "repro.obs.campaign:CampaignTelemetry.record_failure",
        "repro.obs.campaign:CampaignTelemetry.record_executor",
        "repro.obs.campaign:CampaignTelemetry.heartbeat",
        "repro.obs.trace:Tracer.*",
    ),
    "runtime": (
        "repro.mpi.runtime:Runtime.__init__",
        "repro.mpi.runtime:Runtime.run",
        "repro.mpi.runtime:Runtime.install_views",
        "repro.mpi.runtime:Runtime._rank_main",
        "repro.mpi.runtime:Runtime._rank_resume",
        "repro.mpi.runtime:RankExecutorPool.*",
        "repro.mpi.runtime:RankExecutorPool.__init__",
    ),
    "runtime.recycle": ("repro.mpi.runtime:Runtime.recycle",),
    "snapshot.capture": ("repro.mpi.runtime:Runtime.snapshot",),
    "snapshot.restore": ("repro.mpi.runtime:Runtime.restore",),
    "snapshot.facade": ("repro.mpi.snapshot:RecordingProc.*",),
    "ckpt": (
        "repro.dampi.checkpoint:PrefixCheckpointCache.*",
        "repro.dampi.checkpoint:PrefixCheckpointCache.__contains__",
        "repro.dampi.checkpoint:checkpoint_key",
        "repro.dampi.checkpoint:capture_key",
        "repro.dampi.checkpoint:snapshot_usable",
    ),
    "engine": ("repro.mpi.engine:MessageEngine.*",),
    "api": (
        "repro.mpi.process:Proc.*",
        *(
            f"repro.mpi.process:Proc._pmpi_{point}"
            for point in (
                "init", "finalize", "isend", "issend", "ssend", "irecv",
                "sendrecv", "wait", "waitall", "waitany", "waitsome", "test",
                "testall", "probe", "iprobe", "barrier", "ibarrier", "bcast",
                "ibcast", "reduce", "allreduce", "iallreduce", "gather",
                "scatter", "allgather", "alltoall", "reduce_scatter", "scan",
                "comm_dup", "comm_split", "comm_free", "request_free",
                "pcontrol", "compute",
            )
        ),
        "repro.mpi.communicator:Communicator.*",
        "repro.mpi.request:Request.*",
    ),
    "pnmpi.clock": ("repro.dampi.clock_module:DampiClockModule.*",),
    "pnmpi.piggyback": ("repro.dampi.piggyback:PiggybackModule.*",),
    "pnmpi.leaks": ("repro.dampi.leaks:LeakCheckModule.*",),
    "pnmpi.monitor": ("repro.dampi.monitor:OmissionMonitorModule.*",),
}

#: layers whose frames also record inclusive wall and CPU time
WALL_LAYERS = frozenset(
    {"journal.append", "journal.load", "obs.record_run", "obs.finalize",
     "verifier"}
)

#: context-manager factories: wrapping them would time only the factory
_SKIP = frozenset({"repro.obs.trace:Tracer.span"})


def _resolve(spec: str) -> list[tuple[object, str, object]]:
    """``(owner, attribute, original)`` triples one target names."""
    module_name, _, path = spec.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if last != "*":
        return [(owner, last, _raw(owner, last))]
    return [
        (owner, name, value)
        for name, value in vars(owner).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and f"{module_name}:{'.'.join(outer)}.{name}" not in _SKIP
    ]


def _raw(owner, name):
    """The attribute as stored on ``owner`` (not a bound method)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in vars(klass):
                return vars(klass)[name]
        raise AttributeError(f"{owner.__name__} has no attribute {name!r}")
    return getattr(owner, name)


class _Book:
    """One thread's open frames and per-target totals."""

    __slots__ = ("stack", "cpu", "calls", "wall", "incl", "open")

    def __init__(self, ntargets: int):
        self.stack: list[list[float]] = []
        self.cpu = [0.0] * ntargets
        self.calls = [0] * ntargets
        self.wall = [0.0] * ntargets
        self.incl = [0.0] * ntargets
        #: open frames per wall layer: only the outermost records wall
        #: and inclusive time, so nested calls are not counted twice
        self.open: dict[str, int] = {}


class Ledger:
    """Self-time ledger over :data:`LAYERS` plus ``extra`` targets.

    ``extra`` maps layer names to target specs (the benchmark adds the
    workload's program callable as the ``program`` layer).
    """

    def __init__(self, extra: dict[str, tuple[str, ...]] | None = None):
        self.layers = dict(LAYERS)
        for layer, specs in (extra or {}).items():
            self.layers[layer] = self.layers.get(layer, ()) + tuple(specs)
        #: per target: (layer, qualified name)
        self.targets: list[tuple[str, str]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._aliases: list[tuple[dict, str, object]] = []
        self._books: list[_Book] = []
        self._books_lock = threading.Lock()
        self._local = threading.local()
        #: verify() wall minus its journal.load wall: the fold's own time
        self.fold_s = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("ledger already installed")
        seen: set[int] = set()
        #: module-level functions: id(original) -> (original, wrapper)
        functions: dict[int, tuple[object, object]] = {}
        for layer, specs in self.layers.items():
            for spec in specs:
                for owner, name, original in _resolve(spec):
                    if id(original) in seen:
                        continue
                    seen.add(id(original))
                    wrapper = self._wrap(original, layer, name, owner)
                    own = isinstance(owner, type) and name in vars(owner)
                    setattr(owner, name, wrapper)
                    self._patches.append((owner, name, original, own))
                    if not isinstance(owner, type):
                        functions[id(original)] = (original, wrapper)
        # ``from module import function`` copies: point them at the wrapper
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._aliases.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._aliases):
            namespace[key] = original
        for owner, name, original, own in reversed(self._patches):
            if isinstance(owner, type) and not own:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._aliases.clear()
        self._patches.clear()

    def _book(self) -> _Book:
        book = _Book(len(self.targets))
        self._local.book = book
        with self._books_lock:
            self._books.append(book)
        return book

    def _wrap(self, fn, layer: str, name: str, owner):
        index = len(self.targets)
        qual = f"{getattr(owner, '__name__', owner)}.{name}"
        self.targets.append((layer, qual))
        local = self._local
        new_book = self._book
        clock = time.thread_time

        if layer not in WALL_LAYERS:

            @wraps(fn)
            def timed(*args, **kwargs):
                book = getattr(local, "book", None) or new_book()
                stack = book.stack
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = clock() - frame[0]
                    stack.pop()
                    book.cpu[index] += spent - frame[1]
                    book.calls[index] += 1
                    if stack:
                        stack[-1][1] += spent

            return timed

        wall_clock = time.perf_counter
        ledger = self
        folds = name == "verify"

        @wraps(fn)
        def walled(*args, **kwargs):
            book = getattr(local, "book", None) or new_book()
            stack = book.stack
            depth = book.open.get(layer, 0)
            book.open[layer] = depth + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            load_before = ledger._load_wall() if folds else 0.0
            wall0 = wall_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = wall_clock() - wall0
                spent = clock() - frame[0]
                stack.pop()
                book.open[layer] = depth
                book.cpu[index] += spent - frame[1]
                book.calls[index] += 1
                if not depth:
                    book.wall[index] += wall
                    book.incl[index] += spent
                if stack:
                    stack[-1][1] += spent
                if folds:
                    ledger.fold_s += wall - (ledger._load_wall() - load_before)

        return walled

    def _load_wall(self) -> float:
        return self.totals()["wall"].get("journal.load", 0.0)

    # -- results -----------------------------------------------------------

    def target_totals(self) -> dict[str, dict[str, float]]:
        """Per wrapped callable: self CPU seconds and calls."""
        with self._books_lock:
            books = list(self._books)
        return {
            qual: {
                "cpu": sum(b.cpu[index] for b in books),
                "calls": sum(b.calls[index] for b in books),
            }
            for index, (_, qual) in enumerate(self.targets)
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: self CPU seconds, calls, and (wall layers) inclusive
        wall and CPU seconds."""
        with self._books_lock:
            books = list(self._books)
        out: dict[str, dict[str, float]] = {
            "cpu": {}, "calls": {}, "wall": {}, "incl": {}
        }
        for index, (layer, _) in enumerate(self.targets):
            for key in out:
                total = sum(getattr(b, key)[index] for b in books)
                out[key][layer] = out[key].get(layer, 0) + total
        return out
