"""Fixtures shared by the engine tests."""

import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

# One fleet member: solve a pickled job through the shared cache server and
# pickle back the plans with this interpreter's cache counters.
_WORKER_SCRIPT = """
import pickle, sys
from repro.engine import BatchPlanner, PlanCache
from repro.engine.backends import RemoteBackend

with open(sys.argv[1], "rb") as job:
    (host, port), problems, solver = pickle.load(job)
cache = PlanCache(backend=RemoteBackend(host, port))
batch = BatchPlanner(cache=cache).solve_many(problems, solver=solver)
cache.close()
pickle.dump(
    ([item.result.plan for item in batch],
     batch.stats.cache_hits, batch.stats.cache_misses),
    sys.stdout.buffer,
)
"""


@pytest.fixture
def solve_in_processes(tmp_path):
    """Solve a batch in fresh interpreters that share one cache server.

    Returns ``run(server, problems, solver, workers)``.  The processes run
    at once; worker ``w`` takes instances ``w``, ``w + workers``, ...  The
    call returns the plans in submission order and each worker's
    ``(hits, misses)``.
    """
    env = dict(os.environ)
    src_root = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = f"{src_root}{os.pathsep}{env.get('PYTHONPATH', '')}"
    jobs = itertools.count()

    def run(server, problems, solver, workers):
        procs = []
        try:
            for worker in range(workers):
                job = tmp_path / f"job-{next(jobs)}.pickle"
                job.write_bytes(pickle.dumps(
                    ((server.host, server.port), problems[worker::workers], solver)
                ))
                procs.append(subprocess.Popen(
                    [sys.executable, "-c", _WORKER_SCRIPT, str(job)],
                    env=env, stdout=subprocess.PIPE,
                ))
            plans = [None] * len(problems)
            counters = []
            for worker, proc in enumerate(procs):
                out, _ = proc.communicate(timeout=120)
                assert proc.returncode == 0
                worker_plans, hits, misses = pickle.loads(out)
                plans[worker::workers] = worker_plans
                counters.append((hits, misses))
            return plans, counters
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

    return run
