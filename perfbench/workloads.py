"""The benchmark's four workloads, their output checks and their metrics.

Each workload drives the same public calls the experiment runner and the
serving layer make (``build_evaluators``, ``FloorplanEnv`` +
``RLPlannerTrainer.train``, ``dispatch_method_arm``, ``FloorplanServer``
+ ``ServeClient``) and touches nothing under ``src/``.

* ``rl_train``    RLPlanner (fast thermal model) training on ``multi_gpu``
  at grid 32 with per-wire bump assignment: the paper's main arm.
* ``rl_sharded``  the same system and grid, collected by two worker
  processes, with the bundle wirelength estimator: bumps do no work and
  the weight broadcast and pool traffic dominate.  BLAS threads are not
  pinned, so oversubscription stays visible.
* ``sa_hotspot``  TAP-2.5D on the grid solver (the HotSpot stand-in) on
  the dense ``ascend910``, at a fixed proposal budget: the baseline.
* ``serve_mixed`` a closed-loop client process against a server in the
  benchmark's process, on ``synthetic1``: ~80 % ``evaluate`` requests
  over a seeded pool of distinct legal placements, ~20 % memoized
  ``place`` repeats.  One client: with two, their requests overlap in
  the server and its threads' interleaving settles per run into latency
  modes 40 % apart (measured on a 2-core host), beyond any bound.

Every workload reports the same end-to-end metrics: ``setup_s``;
``throughput_per_s``, in episodes over the steady epochs (RL), scored
placements per second of arm time (SA) or answered requests (serve);
``latency_p50_ms`` of a steady epoch, an arm run or a request;
``best_cost``, minus the reward of the best placement found (or served);
``thermal_mae_k``, the fast model's error against the grid solver on the
workload's system.

Training and annealing seeds are the shipped budget's (``seed=0``), so
``best_cost`` repeats exactly.  The workload seed generates the serve
placement pool and request mix.  The held-out placements of the thermal
fidelity check (``thermal_mae_k``) come from a fixed stream instead: over
affordable set sizes (16-96 placements) the MAE of a freshly drawn set
moves 10-20 % from seed to seed, which would hide any fidelity change
smaller than that, while on a fixed set it moves only when a thermal
model does.

Every run sets up into fresh cache and store directories, so set-up
always pays for characterization, and sets up once: ``setup_s`` is a
cold start, characterization included (4-12 s), and repeating it would
add a third to a run.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import repro
from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.baselines.random_search import random_legal_placement
from repro.chiplet.validate import placement_violations
from repro.env import EnvConfig, FloorplanEnv
from repro.experiments.runner import (
    ExperimentBudget,
    build_evaluators,
    dispatch_method_arm,
)
from repro.reward import RewardCalculator
from repro.rl import PPOConfig, RNDConfig
from repro.serve import FloorplanServer, ServeClient
from repro.serve.schema import breakdown_to_dict, budget_to_dict
from repro.systems import get_benchmark
from repro.thermal import FastThermalModel
from repro.utils import SeedSequence

import clients
from spans import Tracer, paused

__all__ = ["FULL", "TINY", "WORKLOADS", "Sizes", "run_workload"]

#: Fast SA at a tiny budget: the cheapest ``place`` that still anneals,
#: so the cold miss that seeds the store stays a small part of set-up.
SERVE_PLACE_METHOD = "TAP-2.5D*(FastThermal)"
SERVE_PLACE_SHARE = 0.2
#: The client is killed after this long; a run must end within 180 s.
SERVE_CLIENT_TIMEOUT_S = 120.0
MAE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  ``FULL`` is what the command runs."""

    position_samples: tuple
    grid: int
    rl_epochs: int
    episodes: int
    sa_chains: int
    sa_iterations: int
    mae_placements: int
    serve_pool: int
    #: The closed loop runs for ``--seconds`` and at least this many
    #: requests, so ten or more latencies lie beyond the p99.
    serve_min_requests: int
    #: Thermal grid override for the smoke (None = the benchmark's own).
    thermal_grid: int | None = None


FULL = Sizes(
    position_samples=(7, 7),
    grid=32,
    rl_epochs=5,
    episodes=16,
    sa_chains=8,
    sa_iterations=16,
    mae_placements=16,
    serve_pool=64,
    serve_min_requests=1000,
)

#: Smoke sizes for the self-tests: every code path, seconds of work.
TINY = Sizes(
    position_samples=(3, 3),
    grid=16,
    rl_epochs=2,
    episodes=4,
    sa_chains=2,
    sa_iterations=2,
    mae_placements=4,
    serve_pool=4,
    serve_min_requests=20,
    thermal_grid=24,
)


class Run:
    """State of one benchmark run: inputs, scratch space, failures."""

    def __init__(self, seed: int, seconds: float, sizes: Sizes, tracer, scratch):
        self.seeds = SeedSequence(seed)
        self.seconds = seconds
        self.sizes = sizes
        self.tracer = tracer
        self.scratch = Path(scratch)
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        self.extra: dict = {}  # per-layer values measured outside spans

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def unit(self, problems: list, what: str) -> bool:
        """Count one attempted unit of work; False (and a failure) when
        ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: {what} failed: {'; '.join(problems)}", file=sys.stderr)
            return False
        return True

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what} raised:", file=sys.stderr)
        traceback.print_exc()


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


def _spec(run: Run, name: str):
    spec = get_benchmark(name)
    if run.sizes.thermal_grid is not None:
        grid = run.sizes.thermal_grid
        spec = replace(
            spec, thermal_config=replace(spec.thermal_config, rows=grid, cols=grid)
        )
    return spec


def _budget(run: Run, **overrides) -> ExperimentBudget:
    return replace(
        ExperimentBudget(), position_samples=run.sizes.position_samples, **overrides
    )


def _set_up(run: Run, build):
    """``build(fresh_dir)``, timed; returns ``(product, seconds)``."""
    directory = run.fresh_dir("setup-")
    start = time.perf_counter()
    product = build(directory)
    return product, time.perf_counter() - start


def _placement_problems(placement) -> list:
    if placement is None:
        return ["no placement returned"]
    return placement_violations(placement)


def _thermal_mae_k(run: Run, spec, evaluators) -> float:
    """Fast model vs grid solver peak temperatures on held-out placements."""
    rng = SeedSequence(MAE_SEED).rng("perfbench.mae")
    placements = [
        random_legal_placement(spec.system, rng)
        for _ in range(run.sizes.mae_placements)
    ]
    with paused(run.tracer):
        fast = np.asarray(evaluators["fast_model"].max_temperatures(placements))
        grid = np.asarray(evaluators["solver"].max_temperatures(placements))
    return float(np.mean(np.abs(fast - grid)))


def _percentile(samples, q: float) -> float:
    """Nearest-rank percentile (a value some unit actually took)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _until_deadline(run: Run):
    """Yield rep indices: the first always, each further one only if a
    rep as long as the previous one would still end within ``--seconds``."""
    deadline = time.perf_counter() + run.seconds
    rep = 0
    while True:
        started = time.perf_counter()
        yield rep
        rep += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return


def _require_success(samples, what: str) -> None:
    if not samples:
        raise RuntimeError(f"every {what} failed; no metrics to report")


# ----------------------------------------------------------------------
# RL training (in-process and sharded)
# ----------------------------------------------------------------------


def _rl(run: Run, sharded: bool) -> dict:
    sizes = run.sizes
    spec = _spec(run, "multi_gpu")
    budget = _budget(
        run,
        grid_size=sizes.grid,
        rl_epochs=sizes.rl_epochs,
        episodes_per_epoch=sizes.episodes,
        rollout_batch_size=sizes.episodes,
        collect_jobs=2 if sharded else 1,
    )
    reward_config = (
        replace(spec.reward_config, use_bump_assignment=False)
        if sharded
        else spec.reward_config
    )

    def trainer_for(evaluators) -> RLPlannerTrainer:
        calculator = RewardCalculator(evaluators["fast_model"], reward_config)
        env = FloorplanEnv(
            spec.system, calculator, EnvConfig(grid_size=budget.grid_size)
        )
        # The configuration the experiment runner trains RLPlanner with.
        return RLPlannerTrainer(
            env,
            TrainerConfig(
                epochs=budget.rl_epochs,
                episodes_per_epoch=budget.episodes_per_epoch,
                batch_size=budget.rollout_batch_size,
                collect_jobs=budget.collect_jobs,
                seed=budget.seed,
                rnd=RNDConfig(bonus_scale=0.5),
                ppo=PPOConfig(),
                log_every=0,
            ),
        )

    def build(directory):
        evaluators = build_evaluators(spec, budget, directory)
        return evaluators, trainer_for(evaluators)

    (evaluators, trainer), setup_s = _set_up(run, build)
    rescorer = RewardCalculator(
        FastThermalModel(evaluators["tables"], spec.thermal_config), reward_config
    )

    epoch_s = []
    first_epoch_s = []
    outcomes = set()
    deadlock_rate = None
    for rep in _until_deadline(run):
        try:
            if rep:
                trainer = trainer_for(evaluators)
            result = trainer.train()
        except Exception:  # noqa: BLE001 - counted and reported
            run.crashed("training run")
            continue
        problems = _placement_problems(result.best_placement)
        if not problems:
            with paused(run.tracer):
                rescored = rescorer.evaluate(result.best_placement).reward
            if rescored != result.best_reward:
                problems.append(
                    f"best reward {result.best_reward!r} re-scores to {rescored!r}"
                )
        outcomes.add((result.best_reward, result.deadlock_count))
        if len(outcomes) > 1:
            problems.append(f"runs disagree: {sorted(outcomes)}")
        if run.unit(problems, "training run"):
            elapsed = [0.0] + [entry["elapsed"] for entry in result.history]
            durations = np.diff(elapsed).tolist()
            # The first epoch also starts the collection pool and warms
            # allocations; it is reported per layer, not as a latency.
            first_epoch_s.append(durations[0])
            epoch_s.extend(durations[1:])
            best_reward = result.best_reward
            episodes = budget.episodes_per_epoch * result.epochs_run
            deadlock_rate = result.deadlock_count / episodes
    _require_success(epoch_s, "training run")
    run.extra["rl.deadlock_rate"] = deadlock_rate
    run.extra["rl.first_epoch_s"] = statistics.median(first_epoch_s)
    if sharded and run.tracer is not None:
        run.notes.append(
            "rl_sharded: spans cover the parent process only; worker-side "
            "spans (env, agent, reward inside the collection workers) are "
            "not recorded"
        )
    return {
        "setup_s": setup_s,
        # Steady epochs differ systematically (deadlocked episodes end
        # early), so their total is steadier than any one epoch's time.
        "throughput_per_s": budget.episodes_per_epoch * len(epoch_s) / sum(epoch_s),
        "latency_p50_ms": statistics.median(epoch_s) * 1000.0,
        "best_cost": -best_reward,
        "thermal_mae_k": _thermal_mae_k(run, spec, evaluators),
    }


def rl_train(run: Run) -> dict:
    return _rl(run, sharded=False)


def rl_sharded(run: Run) -> dict:
    return _rl(run, sharded=True)


# ----------------------------------------------------------------------
# TAP-2.5D on the grid solver
# ----------------------------------------------------------------------


def sa_hotspot(run: Run) -> dict:
    sizes = run.sizes
    spec = _spec(run, "ascend910")
    budget = _budget(
        run, sa_chains=sizes.sa_chains, sa_iterations_hotspot=sizes.sa_iterations
    )
    evaluators, setup_s = _set_up(
        run, lambda directory: build_evaluators(spec, budget, directory)
    )
    rescorer = RewardCalculator(evaluators["solver"], spec.reward_config)

    arm_s = []
    rates = []
    rewards = set()
    for _ in _until_deadline(run):
        capture: dict = {}
        start = time.perf_counter()
        try:
            result = dispatch_method_arm(
                spec, "TAP-2.5D(HotSpot)", budget, evaluators, capture=capture
            )
        except Exception:  # noqa: BLE001 - counted and reported
            run.crashed("annealing run")
            continue
        wall = time.perf_counter() - start
        placement = capture.get("placement")
        problems = _placement_problems(placement)
        if not problems:
            with paused(run.tracer):
                rescored = rescorer.evaluate(placement).reward
            if rescored != result.reward:
                problems.append(
                    f"best reward {result.reward!r} re-scores to {rescored!r}"
                )
        rewards.add(result.reward)
        if len(rewards) > 1:
            problems.append(f"runs disagree: {sorted(rewards)}")
        if run.unit(problems, "annealing run"):
            arm_s.append(wall)
            rates.append(result.extra["evaluations"] / wall)
            best_reward = result.reward
    _require_success(arm_s, "annealing run")
    return {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(arm_s) * 1000.0,
        "best_cost": -best_reward,
        "thermal_mae_k": _thermal_mae_k(run, spec, evaluators),
    }


# ----------------------------------------------------------------------
# serving: evaluate + memoized place, closed loop
# ----------------------------------------------------------------------


def _closed_loop_in_child(job: dict) -> dict:
    """Run :func:`clients.closed_loop` in a child process and reap it.

    A plain child, not a multiprocessing pool: the pool's spawn context
    also starts a resource-tracker process that outlives the benchmark.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    command = [sys.executable, str(Path(clients.__file__).resolve())]
    with subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
    ) as child:
        try:
            out, _ = child.communicate(json.dumps(job), timeout=SERVE_CLIENT_TIMEOUT_S)
        except BaseException:
            child.kill()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"the serve client exited with code {child.returncode}")
    return json.loads(out)


def serve_mixed(run: Run) -> dict:
    sizes = run.sizes
    system = "synthetic1"
    spec = get_benchmark(system)
    budget = _budget(run)
    budget_dict = budget_to_dict(budget)
    place_budget = budget_to_dict(replace(budget, sa_chains=2, sa_iterations_hotspot=1))

    def build(directory):
        server = FloorplanServer(
            "127.0.0.1",
            0,
            store_dir=directory / "store",
            cache_dir=directory / "cache",
        ).start()
        try:
            cold = ServeClient(server.url).place(system, SERVE_PLACE_METHOD, place_budget)
        except BaseException:
            server.close()
            raise
        return server, cold, directory / "cache"

    (server, cold, cache_dir), setup_s = _set_up(run, build)
    try:
        if cold["cache"] != "miss":
            raise RuntimeError(f"the seeding place was a {cold['cache']}, not a miss")
        # The program's answers are checked against a direct evaluation
        # through a fresh calculator on the same tables.
        with paused(run.tracer):
            evaluators = build_evaluators(spec, budget, cache_dir)
            direct = RewardCalculator(
                FastThermalModel(evaluators["tables"], spec.thermal_config),
                spec.reward_config,
            )
            rng = run.seeds.rng("perfbench.serve.pool")
            pool = [
                random_legal_placement(spec.system, rng)
                for _ in range(sizes.serve_pool)
            ]
            expected = [breakdown_to_dict(direct.evaluate(p)) for p in pool]
        mix_rng = run.seeds.rng("perfbench.serve.mix")
        cap = 50_000
        job = {
            "url": server.url,
            "system": system,
            "seconds": run.seconds,
            "min_requests": sizes.serve_min_requests,
            "is_place": (mix_rng.random(cap) < SERVE_PLACE_SHARE).tolist(),
            "targets": mix_rng.integers(len(pool), size=cap).tolist(),
            "pool": [placement.as_dict() for placement in pool],
            "expected": expected,
            "budget": budget_dict,
            "place_method": SERVE_PLACE_METHOD,
            "place_budget": place_budget,
            "cold_fields": clients.place_fields(cold),
        }
        before = run.tracer.busy_snapshot() if run.tracer is not None else None
        loop = _closed_loop_in_child(job)
        latencies = []
        for elapsed, problems in loop["outcomes"]:
            if run.unit(problems, "request"):
                latencies.append(elapsed)
        wall = loop["wall"]
        _require_success(latencies, "request")

        if run.tracer is not None:
            after = run.tracer.busy_snapshot()
            handler_s = sum(
                after.get(layer, 0.0) - before.get(layer, 0.0)
                for layer in ("serve.evaluate", "serve.place")
            )
            run.extra["serve.http_overhead_ms"] = (
                (sum(latencies) - handler_s) / len(latencies) * 1000.0
            )
            batcher = ServeClient(server.url).stats()["batchers"]["evaluate"]
            run.extra["serve.batch.items_per_batch"] = batcher["items"] / max(
                batcher["batches"], 1
            )
        # The tail is reported per layer, not gated: on a 2-core host the
        # run-to-run spread of the p99 over 1000 requests measured 0.53
        # of its median, and of the p90 0.25.
        run.extra["serve.latency_p90_ms"] = _percentile(latencies, 0.90) * 1000.0
        run.extra["serve.latency_p99_ms"] = _percentile(latencies, 0.99) * 1000.0
        run.notes.append(f"serve_mixed: {len(latencies)} latency samples")
        return {
            "setup_s": setup_s,
            "throughput_per_s": len(latencies) / wall,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "best_cost": -cold["result"]["reward"],
            "thermal_mae_k": _thermal_mae_k(run, spec, evaluators),
        }
    finally:
        server.close()


WORKLOADS = {
    "rl_train": rl_train,
    "rl_sharded": rl_sharded,
    "sa_hotspot": sa_hotspot,
    "serve_mixed": serve_mixed,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scratch, sizes: Sizes = FULL
):
    """Run one workload; returns ``(run, end-to-end values, tracer)``."""
    tracer = Tracer() if trace else None
    run = Run(seed, seconds, sizes, tracer, scratch)
    if tracer is None:
        return run, WORKLOADS[name](run), None
    with tracer:
        values = WORKLOADS[name](run)
    return run, values, tracer
