"""Micro-benchmarks of the performance-critical components.

Not a paper table, but the numbers that explain the tables: microbump
assignment, action-mask computation, observation encoding, the CNN
forward/backward pass and a full PPO update.
"""

import numpy as np
import pytest

from repro.agent import ActorCritic
from repro.baselines.random_search import random_legal_placement
from repro.bumps import BumpAssigner, estimate_wirelength
from repro.env import ObservationBuilder, feasible_cells
from repro.geometry import PlacementGrid
from repro.nn import Adam
from repro.rl import Episode, PPOConfig, PPOUpdater, RolloutBuffer
from repro.systems import get_benchmark
from repro.utils import new_rng


@pytest.fixture(scope="module")
def placed_multi_gpu():
    spec = get_benchmark("multi_gpu")
    placement = random_legal_placement(
        spec.system, new_rng(1), allow_rotation=False
    )
    return spec, placement


def test_bench_bump_assignment_greedy(benchmark, placed_multi_gpu):
    """Per-reward-evaluation bump assignment (grouped wires)."""
    _, placement = placed_multi_gpu
    assigner = BumpAssigner(wire_group_size=8)
    assignment = benchmark(assigner.assign, placement)
    assert assignment.total_wirelength > 0


def test_bench_bump_assignment_greedy_batch16(benchmark):
    """One ``assign_many`` call over an evaluation batch of 16 placements.

    The shape a rollout wave or a serve batch hands the reward; divide
    by 16 to compare with the single-placement case above.
    """
    spec = get_benchmark("multi_gpu")
    rng = new_rng(1)
    placements = [
        random_legal_placement(spec.system, rng, allow_rotation=False)
        for _ in range(16)
    ]
    assigner = BumpAssigner(wire_group_size=8)
    assignments = benchmark(assigner.assign_many, placements)
    assert len(assignments) == 16
    assert all(assignment.total_wirelength > 0 for assignment in assignments)


def test_bench_bump_assignment_hungarian(benchmark, placed_multi_gpu):
    _, placement = placed_multi_gpu
    assigner = BumpAssigner(wire_group_size=8, method="hungarian")
    assignment = benchmark(assigner.assign, placement)
    assert assignment.total_wirelength > 0


def test_bench_wirelength_estimate(benchmark, placed_multi_gpu):
    _, placement = placed_multi_gpu
    total = benchmark(estimate_wirelength, placement)
    assert total > 0


def test_bench_action_mask(benchmark, placed_multi_gpu):
    spec, placement = placed_multi_gpu
    grid = PlacementGrid(55.0, 55.0, 32, 32)
    rects = list(placement.footprints().values())[:8]
    mask = benchmark(feasible_cells, grid, 12.0, 12.0, rects, 0.2)
    assert mask.shape == (32, 32)


def test_bench_observation_encoding(benchmark, placed_multi_gpu):
    spec, placement = placed_multi_gpu
    grid = PlacementGrid(55.0, 55.0, 32, 32)
    builder = ObservationBuilder(spec.system, grid)
    obs = benchmark(builder.build, placement, "gpu0")
    assert obs.shape == builder.shape


def test_bench_network_forward(benchmark):
    rng = np.random.default_rng(0)
    net = ActorCritic((7, 32, 32), 1024, rng=rng)
    obs = rng.normal(size=(16, 7, 32, 32))
    masks = np.ones((16, 1024), bool)

    def forward():
        return net.evaluate(obs, masks)

    dist, values = benchmark(forward)
    assert values.shape == (16,)


def test_bench_ppo_update(benchmark):
    rng = np.random.default_rng(0)
    net = ActorCritic((7, 24, 24), 576, channels=(8, 16, 16), rng=rng)
    updater = PPOUpdater(
        net, Adam(net.parameters(), lr=3e-4), PPOConfig(minibatch_size=32)
    )
    buffer = RolloutBuffer()
    for _ in range(8):
        episode = Episode()
        for _ in range(8):
            episode.add_step(
                rng.normal(size=(7, 24, 24)),
                np.ones(576, bool),
                int(rng.integers(576)),
                -6.3,
                0.0,
            )
        episode.set_terminal_reward(-10.0)
        buffer.add_episode(episode)
    batch = buffer.compute()
    stats = benchmark.pedantic(
        updater.update, args=(batch, rng), rounds=2, iterations=1
    )
    assert stats["n_updates"] >= 1
