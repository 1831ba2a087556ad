"""Benchmark-side tracing: spans around the public functions of each layer.

The traced perfbench runs start the CLI through ``traced_cli.py``, which
calls :func:`install` before ``repro.cli.main``.  ``install`` replaces a
fixed list of public functions and methods with timing wrappers; nothing
under ``src/`` changes, and untraced runs never import this module.

Spans live in memory per process and are written out once, when that
process's part of the run ends:

* the CLI process writes after ``main`` returns;
* local queue workers run :func:`traced_worker_process` (swapped in for
  ``run_worker_process``), which injects a traced ``executor`` into
  ``work_async`` and writes when the worker leaves;
* pool workers are forked and terminated by ``Pool.__exit__``, so they
  write after each pool task instead.

A span is ``{"id", "parent", "pid", "name", "start", "end", ...attrs}``;
ids are ``"<pid>:<n>"`` and parents follow a per-thread stack.  Times come
from ``time.monotonic`` (``CLOCK_MONOTONIC``), which every process on the
host shares, so the benchmark can relate a worker's span to the
coordinator's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Directory every traced process writes its ``spans-<pid>.jsonl`` into.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
#: Monotonic time at which the coordinator started spawning local workers.
SPAWN_TIME_ENV = "PERFBENCH_SPAWN_T"

_spans: List[dict] = []
_counters: Dict[str, int] = {}
_ids = itertools.count(1)
_local = threading.local()
_main_pid = os.getpid()


def _reset_after_fork() -> None:
    """A forked pool worker starts with no spans and no open parents."""
    global _ids
    _spans.clear()
    _counters.clear()
    _ids = itertools.count(1)
    _local.__dict__.clear()


os.register_at_fork(after_in_child=_reset_after_fork)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _new(name: str) -> dict:
    stack = _stack()
    return {"id": f"{os.getpid()}:{next(_ids)}",
            "parent": stack[-1] if stack else None,
            "pid": os.getpid(), "name": name}


def record(name: str, start: float, end: float, **attrs) -> dict:
    """Append one finished span under the current thread's open span."""
    entry = _new(name)
    entry.update(start=start, end=end, **attrs)
    _spans.append(entry)
    return entry


@contextmanager
def span(name: str) -> Iterator[dict]:
    """Time the body as one span; the yielded dict takes extra attributes."""
    entry, extra, stack = _new(name), {}, _stack()
    stack.append(entry["id"])
    start = time.monotonic()
    try:
        yield extra
    finally:
        entry.update(start=start, end=time.monotonic(), **extra)
        stack.pop()
        _spans.append(entry)


def flush(directory: Optional[str] = None) -> None:
    """Append this process's spans and counters to its file, then forget them."""
    directory = directory or os.environ.get(TRACE_DIR_ENV)
    if not directory or not (_spans or _counters):
        return
    lines = [json.dumps(entry, separators=(",", ":")) for entry in _spans]
    if _counters:
        lines.append(json.dumps({"pid": os.getpid(), "counters": _counters},
                                separators=(",", ":")))
    path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    _spans.clear()
    _counters.clear()


def load(directory: str) -> tuple:
    """All spans and summed counters written into ``directory``."""
    spans: List[dict] = []
    counters: Dict[str, int] = {}
    for name in sorted(os.listdir(directory)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                if "counters" in entry:
                    for key, value in entry["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                else:
                    spans.append(entry)
    return spans, counters


# -- wrappers -----------------------------------------------------------------

AttrFn = Callable[[tuple, dict, object], dict]


def timed(func: Callable, name: str, attrs: Optional[AttrFn] = None) -> Callable:
    """``func`` inside a span; ``attrs(args, kwargs, result)`` adds attributes."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with span(name) as extra:
            result = func(*args, **kwargs)
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
            return result
    return wrapper


def counted(func: Callable, name: str) -> Callable:
    """``func`` bumping a counter per call (for calls too small for a span)."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        _counters[name] = _counters.get(name, 0) + 1
        return func(*args, **kwargs)
    return wrapper


def _insns(args, kwargs, stats) -> dict:
    return {"insns": stats.instructions_committed}


def _pool_task(func: Callable, name: str) -> Callable:
    """A pool task function that also writes its spans when run in a child."""
    def attrs(args, kwargs, result):
        if isinstance(args[0], list):
            return {"jobs": len(args[0])}
        return {"jobs": 1, "job_id": args[0].job_id}

    inner = timed(func, name, attrs)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            if os.getpid() != _main_pid:
                flush()
    return wrapper


_installed = False


def install() -> None:
    """Wrap the public entry points of every layer in this process."""
    global _installed, _main_pid
    if _installed:
        return
    _installed = True
    _main_pid = os.getpid()

    import repro.sim.compiled as compiled
    import repro.sim.engine as engine
    from repro.baselines import ARMv6MCodeSizeModel, PicoRV32Model, VexRiscvModel
    from repro.cache import ArtifactCache
    from repro.framework.swflow import SoftwareFramework
    from repro.runner import worker
    from repro.runner.spec import SweepSpec
    from repro.runner.store import RunStore
    from repro.service import backends, queue_backend
    from repro.service.coordinator import Coordinator
    from repro.service.journal import RunJournal
    from repro.sim.batch import BatchEngine
    from repro.sim.pipeline import PipelineSimulator

    engine._build_tables = timed(engine._build_tables, "sim.fast.table_build")
    engine.FastEngine.run_with_stats = timed(
        engine.FastEngine.run_with_stats, "sim.fast.execute", _insns)
    PipelineSimulator.run = timed(PipelineSimulator.run,
                                  "sim.pipeline.execute", _insns)
    compiled.CompiledEngine.prepare = timed(compiled.CompiledEngine.prepare,
                                            "sim.compiled.codegen")
    compiled.generate_block_source = counted(compiled.generate_block_source,
                                             "sim.compiled.codegen.blocks")
    compiled.CompiledEngine.run_with_stats = timed(
        compiled.CompiledEngine.run_with_stats, "sim.compiled.execute", _insns)
    BatchEngine.run_with_stats = timed(
        BatchEngine.run_with_stats, "sim.batch.execute",
        lambda args, kwargs, outcomes: {"lanes": len(outcomes)})
    for model in (PicoRV32Model, VexRiscvModel):
        model.run = timed(model.run, "baselines.execute",
                          lambda args, kwargs, result: {
                              "insns": result.instructions})
    ARMv6MCodeSizeModel.estimate = timed(ARMv6MCodeSizeModel.estimate,
                                         "baselines.execute")

    SoftwareFramework.compile_named_workload = timed(
        SoftwareFramework.compile_named_workload, "xlate.compile")
    ArtifactCache.get_json = timed(
        ArtifactCache.get_json, "cache.get",
        lambda args, kwargs, payload: {"hit": payload is not None})

    SweepSpec.expand = timed(SweepSpec.expand, "runner.expand")
    RunStore.append = timed(RunStore.append, "runner.store.append",
                            lambda args, kwargs, result: {
                                "job_id": args[1].get("job_id")})
    RunStore.records = timed(RunStore.records, "runner.store.load")
    RunStore.write_summary = timed(RunStore.write_summary,
                                   "runner.store.summary")
    # Pool tasks are pickled by reference, so the wrapper must be what the
    # defining module and the backend module both name.
    worker.execute_job = backends.execute_job = _pool_task(
        worker.execute_job, "runner.execute_job")
    worker.execute_job_batch = backends.execute_job_batch = _pool_task(
        worker.execute_job_batch, "runner.execute_job_batch")
    backends.MultiprocessingBackend.execute = timed(
        backends.MultiprocessingBackend.execute, "runner.pool",
        lambda args, kwargs, result: {"processes": args[0].processes})

    RunJournal.append = timed(RunJournal.append, "service.journal.append")
    RunJournal.append_many = timed(RunJournal.append_many,
                                   "service.journal.append")
    queue_backend.AsyncQueueBackend.execute = timed(
        queue_backend.AsyncQueueBackend.execute, "service.queue")
    spawn = queue_backend.AsyncQueueBackend._spawn_workers

    def spawn_workers(self, port):
        os.environ[SPAWN_TIME_ENV] = repr(time.monotonic())
        return spawn(self, port)

    queue_backend.AsyncQueueBackend._spawn_workers = spawn_workers
    queue_backend.run_worker_process = traced_worker_process
    Coordinator._requeue = counted(Coordinator._requeue, "service.requeues")


def traced_worker_process(host: str, port: int, heartbeat_interval: float = 2.0,
                          retry_seconds: float = 30.0,
                          auth_token: Optional[str] = None,
                          job_timeout: Optional[float] = None) -> None:
    """Traced stand-in for ``repro.service.workerclient.run_worker_process``.

    Runs ``work_async`` with an injected executor, so the worker's jobs are
    spans too, and records ``service.worker_boot`` from the coordinator's
    spawn to the first job this worker starts.
    """
    import asyncio

    install()
    from repro.runner import worker
    from repro.service.workerclient import work_async

    spawned = float(os.environ.get(SPAWN_TIME_ENV, "nan"))
    booted = []

    def executor(job):
        if not booted:
            booted.append(record("service.worker_boot", spawned,
                                 time.monotonic()))
        return worker.execute_job(job)

    try:
        with span("service.worker"):
            asyncio.run(work_async(
                host, port, executor=executor,
                heartbeat_interval=heartbeat_interval,
                retry_seconds=retry_seconds, auth_token=auth_token,
                job_timeout=job_timeout))
    finally:
        flush()
