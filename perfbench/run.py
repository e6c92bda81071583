"""The repository benchmark: one command per workload.

Run from the repository root::

    python3 perfbench/run.py --workload rl_train --seed 1 --seconds 10 --trace 0

Workloads: ``rl_train``, ``rl_sharded``, ``sa_hotspot``, ``serve_mixed``
(see ``workloads.py``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that records per-layer spans and prints
the per-layer metrics instead.  Before the result, stdout carries one
``host`` line (core count, BLAS build, Python/numpy/scipy versions) and
any notes; the last line is the result object::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

Every unit of work (a training or annealing run, a served request) is
checked: legal placements, bitwise re-scoring of the reported best,
``evaluate`` answers equal to a direct evaluation, memoized ``place``
hits equal to the cold miss.  A unit that raises or fails a check counts
in ``failed``.  Scratch files go under ``.perfbench_tmp/`` and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

#: (name, unit) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("best_cost", "cost"),
    ("thermal_mae_k", "K"),
)


def per_layer_metrics(run, tracer, values) -> dict:
    """The per-layer metrics of a traced run, as {name: (value, unit)}.

    Layers a workload does not reach read 0.
    """
    busy = tracer.busy
    own = tracer.self_time
    counts = tracer.counts

    def count(key):
        return counts.get(key, 0)

    proposals = count("sa.propose.proposals")
    feasible = count("sa.propose.feasible")
    return {
        "thermal.characterize.calls": (count("thermal.characterize.calls"), "count"),
        "thermal.characterize.busy_s": (busy["thermal.characterize"], "s"),
        "thermal.fast.placements": (count("thermal.fast.placements"), "count"),
        "thermal.fast.busy_s": (busy["thermal.fast"], "s"),
        "thermal.solver.calls": (count("thermal.solver.calls"), "count"),
        "thermal.solver.placements": (count("thermal.solver.placements"), "count"),
        "thermal.solver.busy_s": (busy["thermal.solver"], "s"),
        "bumps.assign.calls": (count("bumps.assign.calls"), "count"),
        "bumps.assign.busy_s": (busy["bumps.assign"], "s"),
        "reward.placements": (count("reward.placements"), "count"),
        "reward.self_s": (own["reward"], "s"),
        "env.steps": (count("env.step.steps"), "count"),
        "env.step.self_s": (own["env.step"], "s"),
        "env.episodes": (count("env.step.episodes"), "count"),
        "env.deadlocks": (count("env.step.deadlocks"), "count"),
        "rl.deadlock_rate": (run.extra.get("rl.deadlock_rate", 0.0), "ratio"),
        "rl.first_epoch_s": (run.extra.get("rl.first_epoch_s", 0.0), "s"),
        "agent.act.calls": (count("agent.act.calls"), "count"),
        "agent.act.busy_s": (busy["agent.act"], "s"),
        "rl.ppo.updates": (count("rl.ppo.calls"), "count"),
        "rl.ppo.busy_s": (busy["rl.ppo"], "s"),
        "nn.payload.calls": (count("nn.payload.calls"), "count"),
        "nn.payload.bytes": (count("nn.payload.bytes"), "bytes"),
        "nn.payload.busy_s": (busy["nn.payload"], "s"),
        "parallel.collect.calls": (count("parallel.collect.calls"), "count"),
        "parallel.collect.wait_s": (own["parallel.collect"], "s"),
        "sa.proposals": (proposals, "count"),
        "sa.feasible": (feasible, "count"),
        "sa.feasible_ratio": (feasible / proposals if proposals else 0.0, "ratio"),
        "sa.propose.busy_s": (busy["sa.propose"], "s"),
        "store.fetch.calls": (count("store.fetch.calls"), "count"),
        "store.fetch.hits": (count("store.fetch.hits"), "count"),
        "store.fetch.busy_s": (busy["store.fetch"], "s"),
        "serve.evaluate.busy_s": (busy["serve.evaluate"], "s"),
        "serve.place.busy_s": (busy["serve.place"], "s"),
        "serve.batch.items_per_batch": (
            run.extra.get("serve.batch.items_per_batch", 0.0),
            "items",
        ),
        "serve.http_overhead_ms": (run.extra.get("serve.http_overhead_ms", 0.0), "ms"),
        "serve.latency_p90_ms": (run.extra.get("serve.latency_p90_ms", 0.0), "ms"),
        "serve.latency_p99_ms": (run.extra.get("serve.latency_p99_ms", 0.0), "ms"),
        "trace.spans": (tracer.spans, "count"),
        # The traced run's end-to-end throughput: the untraced run's
        # throughput_per_s minus this is the tracing overhead.
        "trace.throughput_per_s": (values["throughput_per_s"], "1/s"),
    }


def host_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def format_result(run, values, tracer) -> dict:
    """The result object: end-to-end metrics, or per-layer when traced."""
    if tracer is not None:
        metrics = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in per_layer_metrics(run, tracer, values).items()
        }
    else:
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END
        }
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument(
        "--workload",
        required=True,
        choices=("rl_train", "rl_sharded", "sa_hotspot", "serve_mixed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path("src")
    if not (source / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source.resolve()))
    import workloads

    scratch_root = Path(".perfbench_tmp")
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root)).resolve()
    # Keep every temporary file (ours, the program's, worker processes')
    # inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    try:
        print(json.dumps({"host": host_stamp()}), flush=True)
        run, values, tracer = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:  # another run's scratch is still there
            pass
    result = format_result(run, values, tracer)
    for note in run.notes:
        print(f"note: {note}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
