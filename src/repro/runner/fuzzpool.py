"""Parallel backend for the differential fuzzing harness.

Splits a seed range into contiguous chunks, fans them out over the same
``multiprocessing`` pool machinery the sweep orchestrator uses, and merges
the per-chunk :class:`FuzzReport` objects.  Chunking by seed keeps every
failure reproducible exactly as in the serial harness (the report names the
generator seed), and merging in seed order makes the combined report
independent of worker scheduling.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from repro.runner.worker import execute_fuzz_chunk
from repro.testing import FuzzReport, fuzz, fuzz_batched

#: Chunks handed out per worker; small enough to balance, large enough to
#: amortise the per-chunk generator warm-up.
CHUNKS_PER_WORKER = 4


def _chunks(count: int, seed: int, jobs: int, max_instructions: int,
            check_pipeline: bool, machine: Optional[str] = None,
            batch_lanes: int = 0) -> List[dict]:
    target = max(1, min(count, jobs * CHUNKS_PER_WORKER))
    base, extra = divmod(count, target)
    chunks = []
    next_seed = seed
    for index in range(target):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        chunk = {
            "seed": next_seed,
            "count": size,
            "max_instructions": max_instructions,
            "check_pipeline": check_pipeline,
        }
        if machine is not None:
            chunk["machine"] = machine
        if batch_lanes > 1:
            chunk["batch_lanes"] = batch_lanes
        chunks.append(chunk)
        next_seed += size
    return chunks


def _merge(reports: List[FuzzReport]) -> FuzzReport:
    # ``pool.map`` returns chunk reports in submission order and chunks are
    # built in ascending seed order, so plain concatenation reproduces the
    # serial harness's failure order exactly.
    merged = FuzzReport()
    for report in reports:
        merged.programs_run += report.programs_run
        merged.instructions_executed += report.instructions_executed
        merged.budget_exhausted += report.budget_exhausted
        merged.failures.extend(report.failures)
    return merged


def run_parallel_fuzz(
    count: int = 100,
    seed: int = 0,
    jobs: int = 1,
    max_instructions: int = 200_000,
    check_pipeline: bool = True,
    machine: Optional[str] = None,
    batch_lanes: int = 0,
) -> FuzzReport:
    """Fuzz ``count`` seeds starting at ``seed`` across ``jobs`` processes.

    ``jobs <= 1`` falls back to the serial harness; the merged parallel
    report covers the identical seed set ``seed .. seed+count-1``.
    ``machine`` selects the microarchitecture config every engine in the
    differential harness is built with (default: the paper machine).
    ``batch_lanes > 1`` runs each seed's program as that many data-variant
    lanes through the batched differential harness
    (:func:`repro.testing.fuzz_batched`) instead of the serial five-way.
    """
    if jobs <= 1 or count <= 1:
        if batch_lanes > 1:
            return fuzz_batched(count=count, seed=seed,
                                lanes=batch_lanes,
                                max_instructions=max_instructions,
                                check_stats=check_pipeline,
                                machine=machine)
        return fuzz(count=count, seed=seed,
                    max_instructions=max_instructions,
                    check_pipeline=check_pipeline,
                    machine=machine)
    chunks = _chunks(count, seed, jobs, max_instructions, check_pipeline,
                     machine, batch_lanes)
    # Every differential run builds a BatchEngine; importing it (and numpy)
    # before the fork lets the pool workers share one copy.
    import repro.sim.batch

    with multiprocessing.Pool(processes=jobs) as pool:
        reports = pool.map(execute_fuzz_chunk, chunks)
    return _merge(reports)
