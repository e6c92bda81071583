"""Fixed scenario shared by the golden bump-assignment test and its generator.

The golden regression (``tests/data/golden_bumps.json``) pins per-wire
microbump assignment — the wirelength term of the paper's reward — to
the exact pin maps the per-net, per-placement greedy loop produced
before the batched engine replaced it.  Every other golden runs with
``use_bump_assignment=False``, so this is the one that covers the path.

The scenario: seeded complete placements of all eight benchmarks, one
partial placement per benchmark (nets with an unplaced endpoint are
skipped), and a small-die system whose fat buses force the capacity
fallback (merged wire groups) on dies shared by several nets.  Each
placement is assigned with the reward calculator's default assigner
(pitch 0.25 mm, 6 rings, 8 wires per group), greedy and Hungarian.

For every placement the record holds ``repr`` of the total wirelength
and a SHA-256 over the full pin map (net names, bump coordinates and
wires per pair), so the comparison is bitwise.  Both the checked-in
generator (``scripts/gen_golden_bumps.py``) and the regression test
import this module so the scenario can never drift between them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.baselines.random_search import random_legal_placement
from repro.bumps import BumpAssigner
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net
from repro.systems import benchmark_names, get_benchmark

GOLDEN_BUMPS_PATH = "tests/data/golden_bumps.json"
GOLDEN_BUMPS_SEED = 1313
COMPLETE_PER_BENCHMARK = 3
METHODS = ("greedy", "hungarian")


def golden_assigner(method: str) -> BumpAssigner:
    """The ``RewardCalculator`` default assigner with ``method``."""
    return BumpAssigner(pitch=0.25, rings=6, wire_group_size=8, method=method)


def build_tight_system() -> ChipletSystem:
    """Small dies with kilowire buses: every net needs merged groups."""
    return ChipletSystem(
        "tight",
        Interposer(20.0, 20.0),
        (
            Chiplet("hub", 3.0, 2.0, 5.0),
            Chiplet("a", 2.0, 2.0, 1.0),
            Chiplet("b", 2.5, 1.5, 1.0),
            Chiplet("c", 1.0, 1.0, 1.0),
        ),
        (
            Net("hub", "a", wires=3000, name="ha"),
            Net("hub", "b", wires=1200, name="hb"),
            Net("a", "b", wires=640, name="ab"),
            Net("hub", "c", wires=96, name="hc"),
            Net("b", "c", wires=40, name="bc"),
        ),
    )


def golden_placements() -> list:
    """``(label, placement)`` pairs of the scenario, in a fixed order."""
    cases = []
    systems = [(name, get_benchmark(name).system) for name in benchmark_names()]
    systems.append(("tight", build_tight_system()))
    for index, (name, system) in enumerate(systems):
        rng = np.random.default_rng([GOLDEN_BUMPS_SEED, index])
        complete = [
            random_legal_placement(system, rng)
            for _ in range(COMPLETE_PER_BENCHMARK)
        ]
        for k, placement in enumerate(complete):
            cases.append((f"{name}/{k}", placement))
        partial = complete[0].copy()
        names = list(system.chiplet_names)
        for drop in rng.permutation(len(names))[: len(names) // 2]:
            partial.unplace(names[int(drop)])
        cases.append((f"{name}/partial", partial))
    return cases


def assignment_record(assignment) -> dict:
    """``repr`` of the total wirelength and a digest of the pin map."""
    digest = hashlib.sha256()
    for net in assignment.nets:
        digest.update(f"{net.net_name}:{net.src}:{net.dst};".encode())
        digest.update(np.ascontiguousarray(net.pairs, dtype=np.float64).tobytes())
        digest.update(
            np.ascontiguousarray(net.wires_per_pair, dtype=np.int64).tobytes()
        )
    return {
        "total_wirelength": repr(assignment.total_wirelength),
        "pin_map_sha256": digest.hexdigest(),
    }


def run_golden_bumps() -> dict:
    """``{method: {label: record}}`` from one ``assign`` call each."""
    cases = golden_placements()
    return {
        method: {
            label: assignment_record(golden_assigner(method).assign(placement))
            for label, placement in cases
        }
        for method in METHODS
    }
