"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.mpi.runtime import run_program


def run_ok(program, nprocs, **kw):
    """Run a program and assert it completed with no errors."""
    result = run_program(program, nprocs, **kw)
    result.raise_any()
    return result


@pytest.fixture(params=["run_to_block", "rr", "free"])
def sched_mode(request):
    """All three engine scheduling modes (for semantics-invariance tests)."""
    return request.param


def report_fingerprint(report):
    """What two campaigns of the same walk must agree on (serial, resumed,
    distributed, or a differently-built substrate)."""
    return {
        "interleavings": report.interleavings,
        "outcomes": report.outcomes,
        "errors": {(e.kind, e.detail) for e in report.errors},
        "error_indices": sorted((e.kind, e.run_index) for e in report.errors),
        "flips": [r.flip for r in report.runs],
        "run_outcomes": [r.outcome for r in report.runs],
        "run_errors": [r.error_kinds for r in report.runs],
        "divergences": report.divergences,
        "truncated": report.truncated,
    }
