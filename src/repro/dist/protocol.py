"""Wire protocol of the distributed verifier.

Transport: newline-delimited JSON frames over a TCP stream.  Workers are
spawned locally today, but they connect over a socket (not a pipe)
precisely so the protocol stays host-agnostic — pointing a worker at a
remote coordinator address is a deployment change, not a protocol one.

Frames, by direction (``t`` is the discriminator):

worker → coordinator
    ``hello``       first frame: ``worker`` id, ``pid``.
    ``hb``          heartbeat/progress: total ``runs`` consumed, ``open``
                    alternatives and path ``depth`` of the current
                    subtree, the active ``lease`` id.
    ``need_lease``  the worker is idle and wants work.
    ``record``      one completed run of the active lease: the full run
                    *entry* (below).
    ``discovered``  candidate leases for alternatives discovered at
                    pinned prefix nodes — subtrees that belong to other
                    shards, routed through the coordinator for dedup.
    ``donate``      response to ``steal``: lease specs split off the
                    deepest open node of the victim's subtree (may be
                    empty).
    ``lease_done``  the active lease's subtree is exhausted.
    ``bye``         response to ``shutdown``: final ``stats`` and a
                    metrics snapshot to merge into the report.

coordinator → worker
    ``lease``       one lease: ``id`` plus the spec
                    (see :func:`repro.dist.leases.lease_root_decisions`).
    ``steal``       please split your current subtree and donate half.
    ``shutdown``    no work remains; send ``bye`` and exit.

Run entries
-----------
A *record* carries one run in the campaign journal's ``run`` entry
format (:func:`repro.dampi.journal.run_entry`): the full trace, so the
coordinator can replay the run's effect on a schedule generator, and the
raw result facts, so its assembly can rebuild a duck-typed
:class:`~repro.mpi.runtime.RunResult`
(:func:`repro.dampi.journal.result_from_entry`) and recompute error
dedup in the serial walk's order rather than trusting any worker-local
ordering.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
from typing import Optional

from repro.dampi.decisions import EpochDecisions
from repro.dampi.journal import (  # noqa: F401 - re-exported record format
    ShardResult,
    decisions_from_jsonable,
    decisions_to_jsonable,
    result_from_entry,
    run_entry,
)
from repro.obs.binary import decode_events, encode_events


class DistError(RuntimeError):
    """A distributed campaign that cannot proceed (protocol violation,
    coverage hole, lost coordinator)."""


# -- frame transport -----------------------------------------------------------


def send_frame(sock: socket.socket, payload: dict, lock=None) -> None:
    """One frame: compact JSON + newline, a single ``sendall``."""
    data = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def start_reader(sock: socket.socket, tag, events) -> threading.Thread:
    """Pump frames from ``sock`` into the ``events`` queue as
    ``(tag, payload)`` pairs; EOF or any socket error enqueues
    ``(tag, None)`` exactly once and ends the thread."""

    def pump():
        try:
            with sock.makefile("rb") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        events.put((tag, json.loads(line)))
                    except ValueError:
                        break  # torn frame: treat like EOF
        except OSError:
            pass
        events.put((tag, None))

    thread = threading.Thread(target=pump, name=f"dist-reader-{tag}", daemon=True)
    thread.start()
    return thread


# -- binary event payloads -----------------------------------------------------


def pack_events(events, header: Optional[dict] = None) -> str:
    """Encode an event stream for a JSON frame: the compact ``.revt``
    binary encoding (struct-packed frames + interned strings), base64'd
    into an ASCII field.  Workers ship their lifecycle events this way in
    ``bye`` frames — at campaign scale the binary form is a fraction of
    the JSONL size and needs no per-event JSON escaping."""
    return base64.b64encode(encode_events(events, header=header)).decode("ascii")


def unpack_events(blob: str):
    """Decode a :func:`pack_events` field back into ``(header, events)``."""
    return decode_events(base64.b64decode(blob.encode("ascii")))


# -- run entries ---------------------------------------------------------------


def entry_schedule_key(entry: dict):
    """The canonical schedule identity of an entry (hashable)."""
    from repro.dampi.parallel import schedule_key

    if entry.get("key") is None:
        return None
    return schedule_key(decisions_from_jsonable(entry["key"]))


def decisions_key_str(decisions: EpochDecisions) -> str:
    """Canonical string form of a schedule key — the shard journals' memo
    index (JSON-able, deterministic: the forced map is emitted sorted)."""
    return json.dumps(decisions_to_jsonable(decisions), separators=(",", ":"))
