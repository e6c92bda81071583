"""Serving throughput and tail latency: cold start vs the warm path.

Starts one in-process :class:`~repro.serve.FloorplanServer` (real HTTP,
one thread per request) over fresh store/cache roots and measures the
three request regimes the serve layer distinguishes:

* **cold start** — the first place request: thermal characterization,
  evaluator construction, and the full method arm, end to end.  This is
  what every invocation paid before the service existed.
* **memoized repeat** — the identical request again: answered from the
  content-addressed run store with zero evaluator calls.  Latency is
  measured per request under concurrent client threads; p50/p99 and
  sustained requests/sec are reported.
* **warm evaluate** — placement-evaluation requests against the warm
  ``FastThermalModel`` bundle, fired from concurrent clients so the
  micro-batcher coalesces them into ``evaluate_batch`` calls.

A machine-readable summary lands in ``BENCH_serve.json`` after every
run (smoke included).  The headline target — memoized repeats >= 10x
faster than cold start — holds on any host (the cold path runs seconds
of annealing; the warm path is one store read), so it is enforced even
in ``--smoke`` mode and hard-enforced under ``--strict``.

The bench also asserts, bitwise, that the memoized repeat returns the
same semantic fields the cold request computed — a perf number for a
cache that returned different answers would be meaningless.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_serve.py --strict   # enforce
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.experiments.runner import ExperimentBudget
from repro.serve import FloorplanServer, ServeClient
from repro.serve.schema import budget_to_dict

METHOD = "TAP-2.5D*(FastThermal)"


def percentiles(latencies_ms: list) -> dict:
    ordered = sorted(latencies_ms)
    # Nearest-rank percentiles: honest for the small-n smoke runs where
    # interpolated quantiles would invent latencies no request had.
    def rank(q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    return {
        "p50_ms": rank(0.50),
        "p99_ms": rank(0.99),
        "max_ms": ordered[-1],
        "n": len(ordered),
    }


def fire(client_fn, total: int, threads: int) -> dict:
    """Run ``total`` requests over ``threads`` clients; latency stats."""
    latencies: list = []

    def one(_index: int) -> float:
        start = time.perf_counter()
        client_fn()
        return (time.perf_counter() - start) * 1000.0

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        latencies = list(pool.map(one, range(total)))
    wall = time.perf_counter() - wall_start
    stats = percentiles(latencies)
    stats["requests_per_second"] = total / wall
    stats["threads"] = threads
    return stats


def semantic_fields(response: dict) -> tuple:
    result = response["result"]
    return (
        result["reward"],
        result["wirelength"],
        result["temperature_c"],
        response["placement"],
    )


def run(args) -> int:
    cpu_count = os.cpu_count() or 1
    budget = ExperimentBudget(
        rl_epochs=1,
        episodes_per_epoch=2,
        grid_size=args.grid,
        sa_iterations_hotspot=args.sa_iterations,
        sa_chains=args.sa_chains,
        rollout_batch_size=2,
        position_samples=(args.positions, args.positions),
        seed=args.seed,
    )
    budget_dict = budget_to_dict(budget)
    print(
        f"scenario: system={args.system} method={METHOD} "
        f"grid={args.grid} sa_iterations={args.sa_iterations} "
        f"on {cpu_count} cpu core(s)"
    )
    with tempfile.TemporaryDirectory() as tmp:
        server = FloorplanServer(
            "127.0.0.1",
            0,
            store_dir=f"{tmp}/store",
            cache_dir=f"{tmp}/cache",
            max_batch=args.max_batch,
        ).start()
        try:
            client = ServeClient(server.url)

            # -- cold start (characterization + evaluators + full arm) --
            start = time.perf_counter()
            cold = client.place(args.system, METHOD, budget_dict)
            cold_s = time.perf_counter() - start
            assert cold["cache"] == "miss", cold["cache"]
            print(f"cold start: {cold_s * 1000.0:9.1f} ms (cache=miss)")

            # -- memoized repeats (store hits, zero evaluator calls) ----
            def repeat():
                response = client.place(args.system, METHOD, budget_dict)
                if response["cache"] != "hit":
                    raise AssertionError(
                        f"expected a store hit, got {response['cache']}"
                    )
                if response["evaluator_calls"] != 0:
                    raise AssertionError("memoized repeat ran the evaluator")
                if semantic_fields(response) != semantic_fields(cold):
                    raise AssertionError(
                        "memoized repeat diverged from the cold result"
                    )

            memoized = fire(repeat, args.requests, args.threads)
            print(
                f"memoized:  p50 {memoized['p50_ms']:7.1f} ms  "
                f"p99 {memoized['p99_ms']:7.1f} ms  "
                f"{memoized['requests_per_second']:8.1f} req/s "
                f"({args.requests} requests, {args.threads} threads)"
            )

            # -- warm evaluates through the micro-batcher ---------------
            placement = cold["placement"]

            def evaluate():
                client.evaluate(args.system, placement, "fast", budget_dict)

            warm_eval = fire(evaluate, args.requests, args.threads)
            batcher = client.stats()["batchers"]["evaluate"]
            warm_eval["largest_batch"] = batcher["largest_batch"]
            print(
                f"evaluate:  p50 {warm_eval['p50_ms']:7.1f} ms  "
                f"p99 {warm_eval['p99_ms']:7.1f} ms  "
                f"{warm_eval['requests_per_second']:8.1f} req/s "
                f"(largest coalesced batch: {batcher['largest_batch']})"
            )
        finally:
            server.close()

    speedup = (cold_s * 1000.0) / memoized["p50_ms"]
    target_met = speedup >= args.target
    verdict = "  [ok]" if target_met else f"  [below {args.target:.0f}x target]"
    print(f"warm-path speedup vs cold start: {speedup:.1f}x{verdict}")
    status = 0 if target_met or not args.strict else 1

    payload = {
        "benchmark": "bench_serve",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": cpu_count,
        "scenario": {
            "system": args.system,
            "method": METHOD,
            "grid_size": args.grid,
            "sa_iterations": args.sa_iterations,
            "sa_chains": args.sa_chains,
            "position_samples": args.positions,
            "requests": args.requests,
            "threads": args.threads,
        },
        "cold_start_ms": cold_s * 1000.0,
        "memoized_repeat": memoized,
        "warm_evaluate": warm_eval,
        "warm_speedup_vs_cold": speedup,
        "target": args.target,
        # The cold path anneals for seconds while the warm path reads
        # one store entry, so unlike the multi-core benches this target
        # binds on any host, single-core included.
        "target_enforceable_on_host": True,
        "target_met": target_met,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", type=str, default="synthetic1")
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--sa-iterations", type=int, default=60)
    parser.add_argument("--sa-chains", type=int, default=4)
    parser.add_argument(
        "--positions",
        type=int,
        default=3,
        help="characterization samples per axis (the cold-start cost)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests",
        type=int,
        default=200,
        help="requests per warm-path measurement",
    )
    parser.add_argument(
        "--threads", type=int, default=8, help="concurrent client threads"
    )
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument(
        "--target",
        type=float,
        default=10.0,
        help="required cold/warm latency multiple (binds on any host)",
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_serve.json",
        help="machine-readable result path",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when the warm path misses the target",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload for CI (the 10x target still applies)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.grid = min(args.grid, 12)
        args.sa_iterations = min(args.sa_iterations, 24)
        args.positions = min(args.positions, 2)
        args.requests = min(args.requests, 60)
        args.threads = min(args.threads, 4)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
