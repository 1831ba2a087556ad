"""numpy stays off the start-up path: only a ``BatchEngine`` needs it.

Each check runs in a fresh interpreter, because the test process itself
has long imported the batch engine.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_and_worker_imports_leave_numpy_out():
    out = _python("""
        import sys
        pulled = []
        for module in ("repro.cli", "repro.service.workerclient"):
            __import__(module)
            if "numpy" in sys.modules:
                pulled.append(module)
        print(pulled)
    """)
    assert out == "[]"


def test_batch_names_still_resolve_from_repro_sim():
    out = _python("""
        import repro.sim
        from repro.sim import *
        from repro.sim import batch
        assert repro.sim.BatchEngine is BatchEngine is batch.BatchEngine
        assert BatchError is batch.BatchError
        assert LaneOutcome is batch.LaneOutcome
        assert batchable_programs is batch.batchable_programs
        print("ok")
    """)
    assert out == "ok"


_POOL_PROBE = """
    import multiprocessing
    import sys

    class PoolCreated(Exception):
        pass

    def probe_pool(*args, **kwargs):
        print("repro.sim.batch" in sys.modules)
        raise PoolCreated

    multiprocessing.Pool = probe_pool
"""


def test_batched_pool_imports_the_batch_engine_before_forking():
    out = _python(_POOL_PROBE + """
    from repro.runner.spec import SweepJob
    from repro.service.backends import MultiprocessingBackend

    jobs = [SweepJob("bubble_sort", "compiled", True, params=(("seed", seed),))
            for seed in (1, 2)]
    try:
        MultiprocessingBackend(processes=2, batch=True).execute(jobs, print)
    except PoolCreated:
        pass
    """)
    assert out == "True"


def test_fuzz_pool_imports_the_batch_engine_before_forking():
    out = _python(_POOL_PROBE + """
    from repro.runner.fuzzpool import run_parallel_fuzz

    try:
        run_parallel_fuzz(count=4, seed=0, jobs=2)
    except PoolCreated:
        pass
    """)
    assert out == "True"
