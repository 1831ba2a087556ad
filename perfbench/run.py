"""perfbench: end-to-end and per-layer benchmark of ``art9 sweep`` / ``serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured command is the real CLI (``python3 -m repro.cli ...``) in a
fresh subprocess.  One run:

1. writes the workload's grid (seed lists come from ``--seed``; the CLI
   only sees the generated spec file);
2. computes the correctness reference, untimed: the committed
   ``benchmarks/baseline`` run for ``paper-grid``, otherwise the same grid
   on the ``fast`` engine;
3. for ``--seconds`` seconds, takes one cold sample (empty
   ``ART9_CACHE_DIR``) that fills the warm cache and leaves a complete run
   directory, then rounds of samples.  With ``--trace 0`` a round is a warm
   run, a cold run and two set-up runs (the command against the complete
   run directory, so zero jobs execute).  With ``--trace 1`` it is a traced
   warm run, a traced cold run (both through ``traced_cli.py``) and an
   untraced warm run for the tracing overhead.

Every step is timed between two runs of a fixed calibration loop, and
the end-to-end timings are scaled to a fixed host speed with them (see
``calibrate``); the report lines also give the raw medians.

Every warm and cold run is checked job by job; any missing, errored,
unverified or reference-mismatched job counts as failed, is printed to
stderr and makes the run exit 1.  The last stdout line is the JSON result;
the lines before it give every metric's median, quartiles, tail
percentile, sample count and the seed.  RATIONALE.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import benchstats
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
BASELINE_RUN = os.path.join(ROOT, "benchmarks", "baseline")

#: No round starts that would end later than this into the run.
RUN_BUDGET_S = 150.0
#: A run must exit within 180 s: no command may run past this.
RUN_DEADLINE_S = 170.0
#: One CLI invocation that takes longer than this is killed and fails.
CALL_TIMEOUT_S = 60.0
#: Rounds taken even when one round outlasts ``--seconds``.  A traced
#: round holds three full runs and feeds only unbounded per-layer metrics,
#: so one is enough there.
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1
#: The host-speed calibration loop timed around every step, run by this
#: many processes at once, one per core a workload may keep busy.
CALIBRATION_LOOP = ("import time\n"
                    "started = time.perf_counter()\n"
                    "total = 0\n"
                    "for value in range(2_000_000):\n"
                    "    total += value * value\n"
                    "print(time.perf_counter() - started)\n")
CALIBRATION_PROCESSES = 2
#: The loop time the reported times are scaled to.  It is chosen so that
#: they read about as raw times did on the 2-core host the sizes were
#: chosen on while it was quiet (a warm ``paper-grid`` run took 0.9 s).
CALIBRATION_REFERENCE_S = 0.25

ART9_ENGINES = ("fast", "pipeline", "compiled")


def seed_grid(label: str, seed: int, per_workload: int) -> dict:
    """``per_workload`` random ``seed`` variants each of bubble_sort and gemm."""
    rng = random.Random(f"{label}:{seed}")
    return {
        "workloads": ["bubble_sort", "gemm"],
        "engines": ["compiled"],
        "optimize": [True],
        "params": {
            name: [{"seed": value}
                   for value in rng.sample(range(1, 1_000_000), per_workload)]
            for name in ("bubble_sort", "gemm")
        },
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``art9`` arguments; ``--spec``/``--out`` are appended per call.
    argv: Tuple[str, ...]
    #: Grid spec for a seed, or None for a preset named in ``argv``.
    grid: Optional[Callable[[int], dict]] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("paper-grid", ("sweep", "--preset", "paper", "--jobs", "1")),
        Workload("seed-fleet",
                 ("serve", "--local-workers", "2", "--port", "0",
                  "--host", "127.0.0.1"),
                 lambda seed: seed_grid("seed-fleet", seed, 250)),
        Workload("seed-batch",
                 ("sweep", "--backend", "multiprocessing", "--jobs", "2",
                  "--batch"),
                 lambda seed: seed_grid("seed-batch", seed, 250)),
    )
}

#: End-to-end metrics (tracing off) with their units, as in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s"), ("cold_wall_s", "s"), ("setup_s", "s"),
    ("jobs_per_s", "1/s"), ("sim_insns_per_s", "insn/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (traced runs) with their units, as in BENCHMARK.json.
PER_LAYER = (
    ("cli.import_s", "s"), ("runner.expand_s", "s"),
    ("runner.store.append.count", "count"), ("runner.store.append_s", "s"),
    ("runner.store.load_s", "s"), ("runner.store.summary_s", "s"),
    ("runner.execute_job.count", "count"), ("runner.execute_job.self_s", "s"),
    ("xlate.compile.count", "count"), ("xlate.compile_s", "s"),
    ("cache.hit_ratio", "ratio"), ("cache.hit_s", "s"),
    ("sim.fast.table_build_s", "s"), ("sim.fast.execute_s", "s"),
    ("sim.fast.insns_per_s", "insn/s"), ("sim.pipeline.execute_s", "s"),
    ("sim.pipeline.insns_per_s", "insn/s"), ("baselines.execute_s", "s"),
    ("baselines.insns_per_s", "insn/s"),
    ("sim.compiled.codegen.count", "count"), ("sim.compiled.codegen_s", "s"),
    ("sim.compiled.execute_s", "s"), ("sim.compiled.insns_per_s", "insn/s"),
    ("sim.compiled.cover_frac", "ratio"),
    ("sim.batch.groups", "count"), ("sim.batch.fallback.count", "count"),
    ("sim.batch.useful_frac", "ratio"), ("sim.batch.execute_s", "s"),
    ("runner.pool.busy_frac", "ratio"),
    ("service.worker_boot_s", "s"),
    ("service.dispatch_wait_p50_s", "s"), ("service.dispatch_wait_tail_s", "s"),
    ("service.result_latency_p50_s", "s"),
    ("service.result_latency_tail_s", "s"),
    ("service.journal.append.count", "count"),
    ("service.journal.append_s", "s"), ("service.drain_s", "s"),
    ("service.worker_busy_frac", "ratio"), ("service.requeues", "count"),
    ("service.cover_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Layer metrics whose work happens only on an artifact-cache miss, so they
#: are read from the traced cold runs; every other one from the warm runs.
COLD_LAYER_METRICS = ("xlate.compile.count", "xlate.compile_s",
                      "sim.compiled.codegen.count", "sim.compiled.codegen_s")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed reference...)."""


# -- subprocesses -------------------------------------------------------------

@dataclass
class Call:
    code: int
    wall_s: float
    peak_rss_mb: float
    output: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_call(argv: List[str], env: Dict[str, str], log_path: str,
             timeout: float = CALL_TIMEOUT_S) -> Call:
    """Run one command in its own session; time it and take its peak RSS.

    ``os.wait4`` reports the largest resident set of the process and every
    descendant it reaped (pool and queue workers), in KiB.  Whatever is
    left of the session afterwards (only after a kill) is killed too.
    """
    with open(log_path, "wb") as log:
        started = time.monotonic()
        process = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
    timer = threading.Timer(timeout, _kill_group, (process.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.monotonic() - started
    finally:
        timer.cancel()
        _kill_group(process.pid)
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as log:
        output = log.read()
    return Call(process.returncode, wall, usage.ru_maxrss / 1024.0, output)


def child_env(cache_dir: Optional[str], trace_dir: Optional[str] = None
              ) -> Dict[str, str]:
    """The environment of a measured command: no inherited ART9_* knobs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("ART9_", "PERFBENCH_"))}
    paths = [SRC] + ([HERE] if trace_dir else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if cache_dir is None:
        env["ART9_CACHE_DISABLE"] = "1"
    else:
        env["ART9_CACHE_DIR"] = cache_dir
    if trace_dir:
        env[spans.TRACE_DIR_ENV] = trace_dir
    return env


# -- correctness ----------------------------------------------------------------

def load_records(run_dir: str) -> Dict[str, dict]:
    """job_id -> newest record of a run directory (torn lines skipped)."""
    records: Dict[str, dict] = {}
    path = os.path.join(run_dir, "results.jsonl")
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("job_id"):
                records[record["job_id"]] = record
    return records


def grid_point(record: dict) -> tuple:
    """A job's identity apart from its engine."""
    return (record.get("workload"),
            json.dumps(record.get("params") or {}, sort_keys=True),
            record.get("optimize"), record.get("machine"))


@dataclass
class Reference:
    """Expected outcome of every job of one workload grid."""

    jobs: int
    #: grid point -> (cycles, state_digest) from a second engine; empty when
    #: the check is a comparison with the committed baseline run.
    expected: Dict[tuple, tuple] = field(default_factory=dict)
    baseline_dir: Optional[str] = None


def check_run(run_dir: str, reference: Reference) -> Dict[str, str]:
    """Every failed job of one measured run: job -> the first reason found."""
    records = load_records(run_dir)
    failures: Dict[str, str] = {}

    def fail(job: str, reason: str) -> None:
        failures.setdefault(job, reason)

    for record in records.values():
        if record.get("status") != "ok" or record.get("verified") is not True:
            fail(record["job_id"], f"{record.get('label')}: status "
                 f"{record.get('status')}, verified {record.get('verified')} "
                 f"{record.get('error', '')}")
    if reference.baseline_dir is not None:
        from repro.runner.compare import compare_runs

        report = compare_runs(reference.baseline_dir, run_dir)
        for job_id in report.only_in_a:
            fail(job_id, f"missing job {job_id}")
        for job_id in report.only_in_b:
            fail(job_id, f"unexpected job {job_id}")
        for diff in report.diffs:
            fail(diff.job_id, f"baseline mismatch: {diff.render()}")
        return failures
    seen = set()
    for record in records.values():
        point = grid_point(record)
        seen.add(point)
        expected = reference.expected.get(point)
        if expected is None:
            fail(record["job_id"], f"unexpected job {record.get('label')}")
        elif (record.get("cycles"), record.get("state_digest")) != expected:
            fail(record["job_id"],
                 f"{record.get('label')}: cycles/state_digest "
                 f"{record.get('cycles')}/{record.get('state_digest')} "
                 f"!= fast engine {expected[0]}/{expected[1]}")
    for point in reference.expected:
        if point not in seen:
            fail(repr(point), f"missing job {point}")
    return failures


def build_reference(spec: Optional[dict], spec_path: str) -> Reference:
    """Untimed reference for a grid (see the module docstring)."""
    if spec is None:
        records = load_records(BASELINE_RUN)
        if not records:
            raise BenchError(f"no baseline run at {BASELINE_RUN}")
        return Reference(jobs=len(records), baseline_dir=BASELINE_RUN)
    run_dir = os.path.join(os.path.dirname(spec_path), "reference-fast")
    ref_spec_path = spec_path + ".fast.json"
    with open(ref_spec_path, "w", encoding="utf-8") as handle:
        json.dump(dict(spec, engines=["fast"]), handle, sort_keys=True)
    call = run_call([sys.executable, "-m", "repro.cli", "sweep",
                     "--backend", "multiprocessing", "--jobs", "2",
                     "--spec", ref_spec_path, "--out", run_dir],
                    child_env(None), ref_spec_path + ".log", timeout=120.0)
    records = load_records(run_dir)
    bad = [record.get("label") for record in records.values()
           if record.get("status") != "ok" or not record.get("verified")]
    if call.code != 0 or bad:
        raise BenchError(f"fast-engine reference run failed (exit {call.code}, "
                         f"bad jobs {bad[:5]}):\n{call.output[-2000:]}")
    expected = {grid_point(record): (record["cycles"], record["state_digest"])
                for record in records.values()}
    return Reference(jobs=len(expected), expected=expected)


# -- per-layer metrics from spans --------------------------------------------------

def layer_metrics(all_spans: List[dict], counters: Dict[str, int],
                  wall_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric (bar trace.overhead_frac) of one traced run."""
    by_name: Dict[str, List[dict]] = {}
    for entry in all_spans:
        by_name.setdefault(entry["name"], []).append(entry)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(entry["end"] - entry["start"] for entry in named(name))

    def rate(name):
        seconds = total(name)
        insns = sum(entry.get("insns", 0) for entry in named(name))
        return insns / seconds if seconds > 0 else 0.0

    selfs = benchstats.self_times(all_spans)
    main_pid = named("cli.import")[0]["pid"]
    metrics = {
        "cli.import_s": total("cli.import"),
        "runner.expand_s": total("runner.expand"),
        "runner.store.append.count": len(named("runner.store.append")),
        "runner.store.append_s": total("runner.store.append"),
        "runner.store.load_s": total("runner.store.load"),
        "runner.store.summary_s": total("runner.store.summary"),
        "runner.execute_job.count": len(named("runner.execute_job")),
        "runner.execute_job.self_s": sum(
            selfs[entry["id"]] for entry in named("runner.execute_job")),
        "xlate.compile.count": len(named("xlate.compile")),
        "xlate.compile_s": total("xlate.compile"),
        "sim.fast.table_build_s": total("sim.fast.table_build"),
        "baselines.execute_s": total("baselines.execute"),
        "baselines.insns_per_s": rate("baselines.execute"),
        "sim.compiled.codegen.count": counters.get(
            "sim.compiled.codegen.blocks", 0),
        "sim.compiled.codegen_s": total("sim.compiled.codegen"),
        "sim.compiled.cover_frac": total("sim.compiled.execute") / wall_s,
        "service.journal.append.count": len(named("service.journal.append")),
        "service.journal.append_s": total("service.journal.append"),
        "service.requeues": counters.get("service.requeues", 0),
        "service.cover_frac": total("service.queue") / wall_s,
    }
    for engine in ART9_ENGINES:
        metrics[f"sim.{engine}.execute_s"] = total(f"sim.{engine}.execute")
        metrics[f"sim.{engine}.insns_per_s"] = rate(f"sim.{engine}.execute")

    gets = named("cache.get")
    hits = [entry for entry in gets if entry.get("hit")]
    metrics["cache.hit_ratio"] = len(hits) / len(gets) if gets else 0.0
    metrics["cache.hit_s"] = sum(entry["end"] - entry["start"] for entry in hits)

    # Batching: groups of more than one job that reached the batch engine,
    # versus jobs that fell back to one-at-a-time execution.
    groups = {entry["id"]: entry for entry in named("runner.execute_job_batch")
              if entry.get("jobs", 1) > 1}
    attempted = sum(entry["jobs"] for entry in groups.values())
    lanes = sum(entry.get("lanes", 0) for entry in named("sim.batch.execute"))
    metrics["sim.batch.groups"] = len(named("sim.batch.execute"))
    metrics["sim.batch.fallback.count"] = sum(
        1 for entry in named("runner.execute_job") if entry["parent"] in groups)
    metrics["sim.batch.useful_frac"] = lanes / attempted if attempted else 0.0
    metrics["sim.batch.execute_s"] = total("sim.batch.execute")

    pool_s = sum((entry["end"] - entry["start"]) * entry["processes"]
                 for entry in named("runner.pool"))
    tasks = [entry for name in ("runner.execute_job", "runner.execute_job_batch")
             for entry in named(name)
             if entry["pid"] != main_pid and entry["parent"] is None]
    service_pids = {entry["pid"] for entry in named("service.worker")}
    pool_busy = sum(entry["end"] - entry["start"] for entry in tasks
                    if entry["pid"] not in service_pids)
    metrics["runner.pool.busy_frac"] = pool_busy / pool_s if pool_s else 0.0

    # The queue service: worker-side job spans against coordinator appends.
    worker_jobs: Dict[int, List[dict]] = {}
    for entry in named("runner.execute_job"):
        if entry["pid"] in service_pids:
            worker_jobs.setdefault(entry["pid"], []).append(entry)
    waits = []
    for jobs in worker_jobs.values():
        jobs.sort(key=lambda entry: entry["start"])
        waits.extend(after["start"] - before["end"]
                     for before, after in zip(jobs, jobs[1:]))
    finished = {entry["job_id"]: entry["end"]
                for jobs in worker_jobs.values() for entry in jobs}
    appends = [entry for entry in named("runner.store.append")
               if entry["pid"] == main_pid]
    latencies = [entry["start"] - finished[entry["job_id"]]
                 for entry in appends if entry.get("job_id") in finished]
    busy = sum(entry["end"] - entry["start"]
               for jobs in worker_jobs.values() for entry in jobs)
    alive = total("service.worker")
    boots = [entry["end"] - entry["start"]
             for entry in named("service.worker_boot")]
    metrics.update({
        "service.worker_boot_s": benchstats.median(boots) if boots else 0.0,
        "service.dispatch_wait_p50_s": _p50(waits),
        "service.dispatch_wait_tail_s": _tail(waits),
        "service.result_latency_p50_s": _p50(latencies),
        "service.result_latency_tail_s": _tail(latencies),
        "service.worker_busy_frac": busy / alive if alive else 0.0,
        "service.drain_s": (
            named("cli.main")[0]["end"] - max(entry["end"] for entry in appends)
            if service_pids and appends else 0.0),
    })
    return metrics


def _p50(values: List[float]) -> float:
    return benchstats.median(values) if values else 0.0


def _tail(values: List[float]) -> float:
    """The tail percentile; with 10 samples or fewer, the largest one."""
    tail = benchstats.tail_percentile(values)
    return tail[1] if tail else (max(values) if values else 0.0)


# -- the run ------------------------------------------------------------------------

def calibrate() -> float:
    """Mean seconds a fixed pure-Python loop takes on this host right now.

    Neighbours on a shared host slow every process by up to 2x, drifting
    over tens of seconds.  The loop is timed on every core just before and
    just after each measured step, and the step's times are scaled by the
    reference speed over the mean of the two: a program change moves the
    scaled time as it moves the raw one, the host's drift mostly cancels.
    """
    processes = [subprocess.Popen([sys.executable, "-c", CALIBRATION_LOOP],
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(CALIBRATION_PROCESSES)]
    times = []
    try:
        for process in processes:
            output, _ = process.communicate(timeout=CALL_TIMEOUT_S)
            if process.returncode != 0:
                raise BenchError(
                    f"calibration loop exited {process.returncode}")
            times.append(float(output))
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    return sum(times) / len(times)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.dir = os.path.join(WORK, f"run-{os.getpid()}")
        #: metric name -> every sample of it taken in this run
        self.samples: Dict[str, List[float]] = {}
        #: the same for the timed metrics before host-speed scaling
        self.raw_samples: Dict[str, List[float]] = {}
        #: (name, seconds, work) of timed samples of the current step
        self.pending: List[Tuple[str, float, Optional[float]]] = []
        self.calibrations: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.calls = 0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_timed(self, name: str, seconds: float,
                  work: Optional[float] = None) -> None:
        """A time (``work`` None) or the rate ``work / seconds``, scaled to
        the reference host speed once the step that measured it ends."""
        self.pending.append((name, seconds, work))

    def step(self, action: Callable[[], None]) -> None:
        """Run ``action`` between two calibrations; scale what it timed."""
        if not self.calibrations:
            self.calibrations.append(calibrate())
        action()
        self.calibrations.append(calibrate())
        host_s = (self.calibrations[-2] + self.calibrations[-1]) / 2
        scale = CALIBRATION_REFERENCE_S / host_s
        for name, seconds, work in self.pending:
            value = seconds if work is None else work / seconds
            self.raw_samples.setdefault(name, []).append(value)
            self.add(name, seconds * scale if work is None
                     else work / (seconds * scale))
        self.pending.clear()

    def timeout(self) -> float:
        """Seconds a command may take before it is killed and fails."""
        left = self.started + RUN_DEADLINE_S - time.monotonic()
        return max(1.0, min(CALL_TIMEOUT_S, left))

    def path(self, name: str) -> str:
        self.calls += 1
        return os.path.join(self.dir, f"{self.calls:03d}-{name}")

    def argv(self, out_dir: str, traced: bool = False) -> List[str]:
        entry = ([os.path.join(HERE, "traced_cli.py")] if traced
                 else ["-m", "repro.cli"])
        spec = ["--spec", self.spec_path] if self.spec is not None else []
        return [sys.executable, *entry, *self.workload.argv, *spec,
                "--out", out_dir]

    def prepare(self) -> None:
        if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
            raise BenchError(f"no art9 sources under {SRC}")
        sys.path.insert(0, SRC)
        os.makedirs(self.dir)
        self.spec = (self.workload.grid(self.seed)
                     if self.workload.grid else None)
        self.spec_path = os.path.join(self.dir, "spec.json")
        if self.spec is not None:
            with open(self.spec_path, "w", encoding="utf-8") as handle:
                json.dump(self.spec, handle, sort_keys=True)
        self.reference = build_reference(self.spec, self.spec_path)
        self.warm_cache = os.path.join(self.dir, "cache-warm")
        self.complete_dir = self.path("complete")

    def measure(self, out_dir: str, cache_dir: str,
                trace_dir: Optional[str]) -> Call:
        call = run_call(self.argv(out_dir, traced=trace_dir is not None),
                        child_env(cache_dir, trace_dir), out_dir + ".log",
                        self.timeout())
        self.attempted += self.reference.jobs
        failures = check_run(out_dir, self.reference)
        self.failures.extend(failures.values())
        if call.code != 0:
            self.failures.append(f"{out_dir}: exit code {call.code}")
        if call.code != 0 or failures:
            raise BenchError(f"{len(failures)} failed jobs, exit code "
                             f"{call.code}:\n{call.output[-2000:]}")
        return call

    def sample(self, cold: bool, traced: bool = False,
               keep: bool = False) -> None:
        """One measured run of the workload's command.

        A cold run gets an empty artifact cache, a warm one the shared warm
        cache.  ``keep`` makes the run's directory and cache the complete
        run directory and warm cache of every later sample.
        """
        if keep:
            out_dir, cache = self.complete_dir, self.warm_cache
        else:
            out_dir = self.path(("traced-" if traced else "")
                                + ("cold" if cold else "warm"))
            cache = out_dir + "-cache" if cold else self.warm_cache
        trace_dir = out_dir + "-spans" if traced else None
        if trace_dir:
            os.makedirs(trace_dir)
        call = self.measure(out_dir, cache, trace_dir)
        if traced:
            all_spans, counters = spans.load(trace_dir)
            metrics = layer_metrics(all_spans, counters, call.wall_s)
            for name, value in metrics.items():
                if (name in COLD_LAYER_METRICS) == cold:
                    self.add(name, value)
            if not cold:
                self.add_timed("traced_wall_s", call.wall_s)
            shutil.rmtree(trace_dir)
        elif cold:
            self.add_timed("cold_wall_s", call.wall_s)
        else:
            records = load_records(out_dir)
            insns = sum(record.get("instructions", 0)
                        for record in records.values()
                        if record.get("engine") in ART9_ENGINES)
            self.add_timed("wall_s", call.wall_s)
            self.add_timed("jobs_per_s", call.wall_s, len(records))
            self.add_timed("sim_insns_per_s", call.wall_s, insns)
            self.add("peak_rss_mb", call.peak_rss_mb)
        if not keep:
            shutil.rmtree(out_dir)
            if cold:
                shutil.rmtree(cache, ignore_errors=True)

    def setup_samples(self) -> None:
        """Two set-up runs: they are short and noisy."""
        for _ in range(2):
            log_path = self.path("setup.log")
            call = run_call(self.argv(self.complete_dir),
                            child_env(self.warm_cache), log_path,
                            self.timeout())
            if call.code != 0 or "(0 executed," not in call.output:
                self.failures.append(
                    f"set-up run executed jobs or failed "
                    f"(exit {call.code}):\n{call.output[-2000:]}")
                raise BenchError("set-up run failed")
            self.add_timed("setup_s", call.wall_s)

    def round_steps(self) -> List[Callable[[], None]]:
        if self.trace:
            return [lambda: self.sample(cold=False, traced=True),
                    lambda: self.sample(cold=True, traced=True),
                    lambda: self.sample(cold=False)]
        return [lambda: self.sample(cold=False),
                lambda: self.sample(cold=True),
                self.setup_samples]

    def run(self) -> None:
        self.prepare()
        began = time.monotonic()
        # The first sample is cold and fills the warm cache.
        self.step(lambda: self.sample(cold=True, traced=self.trace, keep=True))
        rounds = 0
        while True:
            for action in self.round_steps():
                self.step(action)
            rounds += 1
            now = time.monotonic()
            per_round = (now - began) / rounds
            # Stop where the next round would end nearer past --seconds
            # than this one ends before it.
            least = MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS
            if (rounds >= least
                    and now - began + per_round / 2 > self.seconds):
                break
            if now - self.started + per_round > RUN_BUDGET_S:
                break
        if self.trace:
            traced = benchstats.median(self.samples["traced_wall_s"])
            plain = benchstats.median(self.samples["wall_s"])
            self.add("trace.overhead_frac", traced / plain - 1.0)

    def metrics(self) -> Dict[str, dict]:
        wanted = PER_LAYER if self.trace else END_TO_END
        return {name: {"value": benchstats.median(self.samples[name]),
                       "unit": unit}
                for name, unit in wanted}

    def report_lines(self) -> List[str]:
        wanted = PER_LAYER if self.trace else END_TO_END
        lines = [f"# perfbench workload={self.workload.name} seed={self.seed} "
                 f"trace={int(self.trace)} seconds={self.seconds:g}",
                 f"# calibration loop: median "
                 f"{benchstats.median(self.calibrations):.4g} s over "
                 f"{len(self.calibrations)}, reference "
                 f"{CALIBRATION_REFERENCE_S:g} s; 'raw' is the unscaled median",
                 f"# {'metric':32s} {'unit':8s} {'median':>12s} {'q1':>12s} "
                 f"{'q3':>12s} {'tail':>18s} {'n':>4s} {'raw':>12s} seed"]
        for name, unit in wanted:
            values = self.samples[name]
            q1, q2, q3 = benchstats.quartiles(values)
            tail = benchstats.tail_percentile(values)
            tail_text = f"p{tail[0]:.0f}={tail[1]:.6g}" if tail else "n<=10"
            raw = self.raw_samples.get(name)
            raw_text = f"{benchstats.median(raw):12.6g}" if raw else f"{'-':>12s}"
            lines.append(f"  {name:32s} {unit:8s} {q2:12.6g} {q1:12.6g} "
                         f"{q3:12.6g} {tail_text:>18s} {len(values):4d} "
                         f"{raw_text} {self.seed}")
        failed = len(self.failures)
        lines.append(f"  {'failed_frac':32s} {'ratio':8s} "
                     f"{failed / max(1, self.attempted):12.6g} "
                     f"({failed} of {self.attempted} jobs attempted) "
                     f"{self.seed}")
        return lines


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    try:
        bench.run()
    except BenchError as exc:
        for failure in bench.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
        print(f"perfbench: {exc}", file=sys.stderr)
        if not bench.failures:
            return 2
        print(json.dumps({"correct": False, "attempted": max(1, bench.attempted),
                          "failed": len(bench.failures), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    for line in bench.report_lines():
        print(line)
    print(json.dumps({"correct": True, "attempted": bench.attempted,
                      "failed": 0, "metrics": bench.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
