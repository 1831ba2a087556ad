"""Tests of the perfbench statistics helpers and span-derived layer metrics."""

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchstats  # noqa: E402
import run  # noqa: E402


def test_median_and_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert benchstats.median(values) == 4.0
    assert benchstats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert benchstats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        benchstats.median([])


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert benchstats.tail_percentile(list(range(10))) is None
    assert benchstats.tail_percentile(list(range(11))) == (100.0 / 11, 0)
    pct, value = benchstats.tail_percentile(list(range(1, 101)))
    assert (pct, value) == (90.0, 90)
    assert sum(1 for sample in range(1, 101) if sample > value) == 10
    pct, value = benchstats.tail_percentile(list(range(1000)))
    assert pct == 99.0 and value == 989


def test_covered_length_merges_overlaps():
    assert benchstats.covered_length([]) == 0.0
    assert benchstats.covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert benchstats.covered_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        # Overlaps b (another thread): the overlap counts once.
        {"id": "c", "parent": "a", "start": 3.0, "end": 5.0},
        # Runs past its parent's end: clipped to the parent.
        {"id": "d", "parent": "a", "start": 9.0, "end": 12.0},
        {"id": "e", "parent": "b", "start": 2.0, "end": 3.0},
    ]
    selfs = benchstats.self_times(spans)
    assert selfs["a"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["b"] == pytest.approx(2.0)
    assert selfs["d"] == pytest.approx(3.0)
    assert selfs["e"] == pytest.approx(1.0)


def _span(span_id, name, pid, start, end, parent=None, **attrs):
    return dict(id=span_id, parent=parent, pid=pid, name=name, start=start,
                end=end, **attrs)


def test_layer_metrics_relate_worker_and_coordinator_spans():
    coordinator, worker = 100, 200
    spans = [
        _span("1", "cli.import", coordinator, 0.0, 0.3),
        _span("2", "cli.main", coordinator, 0.3, 4.0),
        _span("3", "service.queue", coordinator, 0.5, 3.5, parent="2"),
        _span("4", "runner.store.append", coordinator, 1.25, 1.3, parent="3",
              job_id="j1"),
        _span("5", "runner.store.append", coordinator, 2.5, 2.6, parent="3",
              job_id="j2"),
        _span("6", "service.worker", worker, 0.6, 3.6),
        _span("7", "service.worker_boot", worker, 0.5, 1.0),
        _span("8", "runner.execute_job", worker, 1.0, 1.2, job_id="j1"),
        _span("9", "sim.compiled.execute", worker, 1.05, 1.15, parent="8",
              insns=1000),
        _span("10", "runner.execute_job", worker, 1.5, 2.4, job_id="j2"),
    ]
    metrics = run.layer_metrics(spans, {"service.requeues": 1}, wall_s=4.0)
    assert metrics["cli.import_s"] == pytest.approx(0.3)
    assert metrics["runner.execute_job.count"] == 2
    assert metrics["runner.execute_job.self_s"] == pytest.approx(1.0)
    assert metrics["sim.compiled.insns_per_s"] == pytest.approx(1000 / 0.1)
    assert metrics["service.worker_boot_s"] == pytest.approx(0.5)
    assert metrics["service.dispatch_wait_p50_s"] == pytest.approx(0.3)
    assert metrics["service.result_latency_p50_s"] == pytest.approx(0.075)
    assert metrics["service.worker_busy_frac"] == pytest.approx(1.1 / 3.0)
    assert metrics["service.drain_s"] == pytest.approx(4.0 - 2.6)
    assert metrics["service.cover_frac"] == pytest.approx(3.0 / 4.0)
    assert metrics["service.requeues"] == 1
    names = {name for name, _ in run.PER_LAYER} - {"trace.overhead_frac"}
    assert set(metrics) == names


def test_step_scales_timed_samples_to_the_reference_host_speed(monkeypatch):
    loop_times = iter([0.4, 0.6, 0.25])
    monkeypatch.setattr(run, "calibrate", lambda: next(loop_times))
    bench = run.Bench(run.WORKLOADS["paper-grid"], 1, 1.0, False)

    def measure():
        bench.add_timed("wall_s", 2.0)
        bench.add_timed("jobs_per_s", 2.0, 10)
        bench.add("peak_rss_mb", 40.0)

    # Loops of 0.4 s and 0.6 s around the step: the host ran at half the
    # reference speed, so the 2 s it timed count as 1 s.
    bench.step(measure)
    scale = run.CALIBRATION_REFERENCE_S / 0.5
    assert bench.samples["wall_s"] == [pytest.approx(2.0 * scale)]
    assert bench.samples["jobs_per_s"] == [pytest.approx(10 / (2.0 * scale))]
    assert bench.raw_samples == {"wall_s": [2.0], "jobs_per_s": [5.0]}
    assert bench.samples["peak_rss_mb"] == [40.0]
    # The next step starts from the loop time the previous one ended with.
    bench.step(lambda: bench.add_timed("setup_s", 1.0))
    scale = run.CALIBRATION_REFERENCE_S / ((0.6 + 0.25) / 2)
    assert bench.samples["setup_s"] == [pytest.approx(scale)]
    assert bench.pending == []


def test_seeded_grids_depend_only_on_the_seed():
    first = run.WORKLOADS["seed-fleet"].grid(7)
    assert first == run.WORKLOADS["seed-fleet"].grid(7)
    assert first != run.WORKLOADS["seed-fleet"].grid(8)
    seeds = [variant["seed"] for variant in first["params"]["bubble_sort"]]
    assert len(seeds) == len(set(seeds)) == 250


def test_check_run_counts_every_bad_job_once(tmp_path):
    def record(job_id, seed, cycles, verified=True, status="ok"):
        return {"job_id": job_id, "label": job_id, "workload": "gemm",
                "params": {"seed": seed}, "optimize": True,
                "machine": "paper3stage", "status": status,
                "verified": verified, "cycles": cycles, "state_digest": "d"}

    point = lambda seed: run.grid_point(record("x", seed, 0))  # noqa: E731
    reference = run.Reference(jobs=4, expected={
        point(seed): (100, "d") for seed in (1, 2, 3, 4)})
    records = [record("ok", 1, 100), record("slow", 2, 101),
               # Unverified and mismatched: still one failed job.
               record("bad", 3, 99, verified=False)]
    with open(tmp_path / "results.jsonl", "w") as handle:
        handle.write("\n".join(run.json.dumps(r) for r in records) + "\n")
    failures = run.check_run(str(tmp_path), reference)
    assert sorted(failures) == sorted(["bad", "slow", repr(point(4))])
    assert "missing job" in failures[repr(point(4))]
