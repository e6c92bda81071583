"""End-to-end smoke of the floorplanning service (CI job).

Drives the serve stack exactly as deployed — a real server subprocess
(``scripts/serve.py``) answering real HTTP from concurrent client
threads — and checks every guarantee the serve layer makes:

1. **Reference** — run the request's method arm directly through the
   harness (``run_all_methods``, the ``repro.cli train``/``sa`` code
   path) at the same tiny budget.
2. **Mixed concurrent traffic** — fire, simultaneously: cold place
   requests for two different benchmarks, a burst of *identical* place
   requests (the single-flight path: exactly one computes, the rest
   coalesce), and warm-cache evaluate requests.  All must succeed.
3. **Bitwise parity** — every served place response must match the
   reference run bit for bit in all semantic fields (reward,
   wirelength, temperature, extra counters; runtimes are wall clock
   and excluded), and every response to the identical-request burst
   must be identical.
4. **Memoized repeat** — a server *restart* later, the same request
   must come back ``cache=hit`` with ``evaluator_calls == 0`` and zero
   registry builds (the store outlives the process; nothing recomputes,
   nothing even re-characterizes).
5. **Keep-alive** — the warm evaluates, sent through one shared client,
   must open fewer connections than they send requests.

Exit code 0 = all assertions hold.  Designed to finish in ~2 minutes
on a single CI core.

Usage:
    PYTHONPATH=src python scripts/ci_serve_smoke.py [--workdir DIR]
"""

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import ExperimentBudget, run_all_methods  # noqa: E402
from repro.serve import ServeClient, ServeError  # noqa: E402
from repro.serve.schema import budget_to_dict  # noqa: E402
from repro.systems import get_benchmark  # noqa: E402

METHOD = "TAP-2.5D*(FastThermal)"
SYSTEMS = ("synthetic1", "synthetic2")


def tiny_budget() -> ExperimentBudget:
    return ExperimentBudget(
        rl_epochs=1,
        episodes_per_epoch=2,
        grid_size=10,
        sa_iterations_hotspot=16,
        sa_chains=2,
        rollout_batch_size=2,
        position_samples=(2, 2),
        seed=3,
    )


def bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def assert_bitwise_equal(served: dict, reference, label: str) -> None:
    """Served response vs a locally computed MethodResult, bit for bit."""
    result = served["result"]
    for field, expected in (
        ("reward", reference.reward),
        ("wirelength", reference.wirelength),
        ("temperature_c", reference.temperature_c),
    ):
        if bits(result[field]) != bits(expected):
            raise AssertionError(
                f"{label}: {field} differs — served {result[field]!r}, "
                f"direct run {expected!r}"
            )
    served_extra = dict(result["extra"])
    reference_extra = dict(reference.extra)
    # time_limit_s is the injected wall-clock cap (None in both single-
    # method paths); everything else must agree exactly.
    served_extra.pop("time_limit_s", None)
    reference_extra.pop("time_limit_s", None)
    if served_extra != reference_extra:
        raise AssertionError(
            f"{label}: extra differs — served {served_extra!r}, "
            f"direct run {reference_extra!r}"
        )


class Server:
    """scripts/serve.py subprocess; URL parsed from its banner line."""

    def __init__(self, workdir: Path, store_dir: Path, cache_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{REPO_ROOT / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "serve.py"),
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--store-dir",
                str(store_dir),
                "--cache-dir",
                str(cache_dir),
            ],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.url = self._await_banner()

    def _await_banner(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before binding")
            if "listening on" in line:
                return line.rsplit(" ", 1)[-1].strip()
        raise RuntimeError("server never printed its address")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def wait_healthy(client: ServeClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            if client.health().get("ok"):
                return
        except (ServeError, OSError):
            if time.monotonic() > deadline:
                raise
        time.sleep(0.2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=str, default=None)
    parser.add_argument(
        "--burst", type=int, default=6,
        help="identical concurrent requests in the single-flight leg",
    )
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="serve_smoke_"))
    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = workdir / "store"
    cache_dir = workdir / "cache"
    budget = tiny_budget()
    budget_dict = budget_to_dict(budget)

    # -- 1. reference: the direct CLI code path (shared thermal cache,
    # which round-trips bit-exactly, so sharing it changes nothing) ----
    print("[1/4] computing direct-run references")
    references = {
        system: run_all_methods(
            get_benchmark(system),
            budget,
            cache_dir=cache_dir,
            methods=(METHOD,),
        )[0]
        for system in SYSTEMS
    }

    server = Server(workdir, store_dir, cache_dir)
    try:
        client = ServeClient(server.url, timeout=600.0)
        wait_healthy(client)
        print(f"[2/4] server up at {server.url}; firing mixed traffic")

        with ThreadPoolExecutor(max_workers=2 + args.burst + 4) as pool:
            # Cold places for two different benchmarks, concurrently.
            cold_futures = {
                system: pool.submit(
                    client.place, system, METHOD, budget_dict
                )
                for system in SYSTEMS
            }
            # A burst of identical requests for SYSTEMS[0]: single-flight
            # must collapse them onto the leader's computation.
            burst_futures = [
                pool.submit(client.place, SYSTEMS[0], METHOD, budget_dict)
                for _ in range(args.burst)
            ]
            cold = {
                system: future.result()
                for system, future in cold_futures.items()
            }
            burst = [future.result() for future in burst_futures]

        # Warm-cache evaluates against the now-warm bundles.
        connections_before = client.stats()["connections"]
        with ThreadPoolExecutor(max_workers=4) as pool:
            evaluations = list(
                pool.map(
                    lambda _: client.evaluate(
                        SYSTEMS[0],
                        cold[SYSTEMS[0]]["placement"],
                        "fast",
                        budget_dict,
                    ),
                    range(8),
                )
            )
        evaluate_connections = (
            client.stats()["connections"] - connections_before
        )

        print("[3/4] checking bitwise parity and single-flight coalescing")
        for system in SYSTEMS:
            assert_bitwise_equal(cold[system], references[system], system)
        compute_count = sum(
            1
            for response in [cold[SYSTEMS[0]], *burst]
            if response["cache"] == "miss"
        )
        if compute_count != 1:
            raise AssertionError(
                f"single-flight failure: {compute_count} of the identical "
                f"concurrent requests computed (expected exactly 1)"
            )
        for index, response in enumerate(burst):
            assert_bitwise_equal(
                response, references[SYSTEMS[0]], f"burst[{index}]"
            )
            if response["placement"] != cold[SYSTEMS[0]]["placement"]:
                raise AssertionError(f"burst[{index}]: placement differs")
        expected_reward = bits(references[SYSTEMS[0]].reward)
        for evaluation in evaluations:
            # The served placement re-evaluates to the exact reward the
            # arm reported — through the warm, micro-batched path.
            if bits(evaluation["reward"]) != expected_reward:
                raise AssertionError(
                    "warm evaluate disagrees with the arm's reward"
                )
        if evaluate_connections >= len(evaluations):
            raise AssertionError(
                f"{len(evaluations)} warm evaluates opened "
                f"{evaluate_connections} connections: keep-alive is not "
                "reusing them"
            )
        stats = client.stats()
        if stats["registry"]["builds"] != len(SYSTEMS):
            raise AssertionError(
                f"expected {len(SYSTEMS)} evaluator builds, registry says "
                f"{stats['registry']['builds']}"
            )
    finally:
        server.close()

    # -- 4. a fresh server over the same store: memoized repeat --------
    print("[4/4] restarting server; memoized repeat must not recompute")
    server = Server(workdir, store_dir, cache_dir)
    try:
        client = ServeClient(server.url, timeout=600.0)
        wait_healthy(client)
        repeat = client.place(SYSTEMS[0], METHOD, budget_dict)
        if repeat["cache"] != "hit":
            raise AssertionError(
                f"repeat after restart: cache={repeat['cache']!r}, "
                "expected 'hit'"
            )
        if repeat["evaluator_calls"] != 0:
            raise AssertionError(
                f"repeat ran {repeat['evaluator_calls']} evaluator calls "
                "(expected 0)"
            )
        assert_bitwise_equal(repeat, references[SYSTEMS[0]], "repeat")
        if repeat["placement"] != cold[SYSTEMS[0]]["placement"]:
            raise AssertionError("repeat placement differs")
        stats = client.stats()
        if stats["registry"]["builds"] != 0:
            raise AssertionError(
                "memoized repeat triggered an evaluator build"
            )
        if stats["store"]["hits"] < 1:
            raise AssertionError("store did not record the hit")
    finally:
        server.close()

    print("serve smoke OK")
    print(
        json.dumps(
            {
                "cold_caches": {s: cold[s]["cache"] for s in SYSTEMS},
                "burst_caches": [r["cache"] for r in burst],
                "repeat_cache": repeat["cache"],
                "repeat_evaluator_calls": repeat["evaluator_calls"],
                "evaluate_connections": evaluate_connections,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
