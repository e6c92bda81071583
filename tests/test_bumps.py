"""Tests for microbump site generation, assignment and wirelength."""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bumps import (
    BumpAssigner,
    estimate_wirelength,
    netlist_hpwl,
    perimeter_site_array,
    perimeter_sites,
)
from repro.bumps.assign import _CHUNK, _pair_greedy_many
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Net, Placement
from repro.geometry import Rect

from golden_bumps_utils import (
    GOLDEN_BUMPS_PATH,
    METHODS,
    assignment_record,
    golden_assigner,
    golden_placements,
)


@pytest.fixture
def two_die_system():
    return ChipletSystem(
        "pair",
        Interposer(30, 30),
        (Chiplet("a", 8, 8, 10.0), Chiplet("b", 8, 8, 10.0)),
        (Net("a", "b", wires=32, name="bus"),),
    )


def placed(system, positions):
    p = Placement(system)
    for name, (x, y) in positions.items():
        p.place(name, x, y)
    return p


class TestSites:
    def test_sites_on_perimeter_band(self):
        rect = Rect(5, 5, 8, 8)
        sites = perimeter_sites(rect, pitch=0.5, rings=2, edge_margin=0.2)
        assert len(sites) > 0
        for site in sites:
            assert rect.contains_point(site.x, site.y) or (
                site.x == rect.x2 or site.y == rect.y2
            )
            inset = 0.2 + site.ring * 0.5
            inner = Rect(
                rect.x + inset + 1e-9,
                rect.y + inset + 1e-9,
                rect.w - 2 * inset - 2e-9,
                rect.h - 2 * inset - 2e-9,
            )
            # Site sits on the ring boundary, not strictly inside it.
            on_boundary = (
                abs(site.x - (rect.x + inset)) < 1e-6
                or abs(site.x - (rect.x2 - inset)) < 1e-6
                or abs(site.y - (rect.y + inset)) < 1e-6
                or abs(site.y - (rect.y2 - inset)) < 1e-6
            )
            assert on_boundary, site

    def test_no_duplicate_sites(self):
        sites = perimeter_sites(Rect(0, 0, 6, 6), pitch=0.5, rings=3)
        coords = {(round(s.x, 6), round(s.y, 6)) for s in sites}
        assert len(coords) == len(sites)

    def test_ring_count_capacity(self):
        one = perimeter_sites(Rect(0, 0, 10, 10), pitch=0.5, rings=1)
        three = perimeter_sites(Rect(0, 0, 10, 10), pitch=0.5, rings=3)
        assert len(three) > 2 * len(one)

    def test_tiny_die_fewer_rings(self):
        sites = perimeter_sites(Rect(0, 0, 1.0, 1.0), pitch=0.4, rings=5)
        rings_present = {s.ring for s in sites}
        assert max(rings_present) < 5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            perimeter_sites(Rect(0, 0, 5, 5), pitch=0.0)
        with pytest.raises(ValueError):
            perimeter_sites(Rect(0, 0, 5, 5), rings=0)
        with pytest.raises(ValueError):
            perimeter_site_array(Rect(0, 0, 5, 5), pitch=-1.0)


def _reference_sites(rect, pitch, rings, edge_margin=0.15):
    """The original per-site loop: ``(x, y, edge, ring)`` tuples."""

    def positions(lo, hi):
        span = hi - lo
        count = max(int(span / pitch) + 1, 1)
        start = lo + (span - (count - 1) * pitch) / 2.0
        return start + np.arange(count) * pitch

    sites = []
    for ring in range(rings):
        inset = edge_margin + ring * pitch
        x1, x2 = rect.x + inset, rect.x2 - inset
        y1, y2 = rect.y + inset, rect.y2 - inset
        if x1 >= x2 or y1 >= y2:
            break
        xs, ys = positions(x1, x2), positions(y1, y2)
        for x in xs:
            sites.append((x, y2, "n", ring))
            sites.append((x, y1, "s", ring))
        for y in ys[1:-1] if len(ys) > 2 else []:
            sites.append((x2, y, "e", ring))
            sites.append((x1, y, "w", ring))
    return sites


class TestSiteArray:
    """``perimeter_site_array`` reproduces the per-site loop bit for bit."""

    CHIPLET = Chiplet("die", 7.3, 3.1, 1.0)
    RECTS = [
        Rect(0.0, 0.0, 10.0, 10.0),
        Rect(3.7, 11.13, 8.2, 5.05),
        Rect(0.0, 0.0, 1.0, 1.0),  # loses rings
        Rect(2.0, 2.0, 0.6, 3.0),  # a single ring
        Rect(5.0, 5.0, 0.2, 0.2),  # no site at all
        # Spans that are exact multiples of the pitch (0.25 mm).
        Rect(0.0, 0.0, 2.8, 2.8),
        Rect(1.25, 0.5, 5.3, 1.3),
        CHIPLET.footprint(4.4, 6.6, rotated=False),
        CHIPLET.footprint(4.4, 6.6, rotated=True),
    ]

    @pytest.mark.parametrize("rect", RECTS, ids=lambda rect: repr(rect))
    @pytest.mark.parametrize("pitch,rings", [(0.25, 6), (0.4, 4), (0.5, 2)])
    def test_matches_the_per_site_loop(self, rect, pitch, rings):
        reference = _reference_sites(rect, pitch, rings)
        xy = perimeter_site_array(rect, pitch=pitch, rings=rings)
        assert xy.shape == (len(reference), 2)
        assert xy.dtype == np.float64
        expected = np.array([(x, y) for x, y, _, _ in reference]).reshape(-1, 2)
        assert np.array_equal(xy, expected)
        wrapped = [
            (s.x, s.y, s.edge, s.ring)
            for s in perimeter_sites(rect, pitch=pitch, rings=rings)
        ]
        assert wrapped == reference

    def test_tiny_die_loses_rings(self):
        reference = _reference_sites(Rect(0.0, 0.0, 1.0, 1.0), 0.25, 6)
        assert 0 < max(ring for *_, ring in reference) < 5
        empty = perimeter_site_array(Rect(0.0, 0.0, 0.2, 0.2), 0.25, 6)
        assert empty.shape == (0, 2)


class TestEstimators:
    def test_estimate_matches_manual(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 10)})
        # centers (4,4) and (24,14): manhattan = 20 + 10 = 30; 32 wires
        assert estimate_wirelength(p) == pytest.approx(32 * 30.0)

    def test_estimate_ignores_unplaced(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0)})
        assert estimate_wirelength(p) == 0.0

    def test_hpwl_equals_center_manhattan_for_two_pin(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (15, 3)})
        assert netlist_hpwl(p) == pytest.approx(estimate_wirelength(p))


class TestPairGreedy:
    """The pass-wise acceptance contract of ``BumpAssigner._pair_greedy``.

    Sites are laid out so the distance-sorted sweep order is (0,0),
    (1,0), (1,1), (2,2) and every other pair is farther.
    """

    XY_A = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
    XY_B = np.array([[0.0, 0.0], [3.0, 0.0], [100.0, 2.5]])

    def _pairs(self, n_pairs):
        chosen_a, chosen_b = BumpAssigner._pair_greedy(
            self.XY_A, self.XY_B, n_pairs
        )
        return list(zip(chosen_a.tolist(), chosen_b.tolist()))

    def test_cap_truncates_the_first_pass(self):
        # A sequential sweep would stop at [(0, 0), (1, 1)]: (1, 1) is
        # earlier than (2, 2), but it only becomes free in pass two.
        assert self._pairs(2) == [(0, 0), (2, 2)]

    def test_exhausted_passes_match_the_sequential_sweep(self):
        # Same set as a sequential sweep, in pass order.
        assert self._pairs(3) == [(0, 0), (2, 2), (1, 1)]

    def test_single_pair_is_the_closest(self):
        assert self._pairs(1) == [(0, 0)]


def _reference_pair_greedy(xy_a, xy_b, n_pairs, chunk=_CHUNK):
    """The pass contract in plain Python, one problem, chunk by chunk.

    Returns ``(chosen_a, chosen_b, chunks)``: the pairs in acceptance
    order and how many chunks of the sweep were opened.
    """
    keep = min(max(2 * n_pairs, n_pairs + 16), len(xy_a), len(xy_b))
    near_a = np.argsort(
        np.abs(xy_a - xy_b.mean(axis=0)).sum(axis=1), kind="stable"
    )[:keep]
    near_b = np.argsort(
        np.abs(xy_b - xy_a.mean(axis=0)).sum(axis=1), kind="stable"
    )[:keep]
    sub_a, sub_b = xy_a[near_a], xy_b[near_b]
    dist = np.abs(sub_a[:, None, :] - sub_b[None, :, :]).sum(axis=2)
    sweep = [divmod(int(k), keep) for k in np.argsort(dist, axis=None, kind="stable")]
    chosen, used_rows, used_cols, chunks = [], set(), set(), 0
    for start in range(0, len(sweep), chunk):
        if len(chosen) >= n_pairs:
            break
        chunks += 1
        entries = [
            (r, c)
            for r, c in sweep[start : start + chunk]
            if r not in used_rows and c not in used_cols
        ]
        while entries and len(chosen) < n_pairs:
            seen_rows, seen_cols, passed = set(), set(), []
            for r, c in entries:
                if r not in seen_rows and c not in seen_cols:
                    passed.append((r, c))
                seen_rows.add(r)
                seen_cols.add(c)
            passed = passed[: n_pairs - len(chosen)]
            chosen += passed
            used_rows.update(r for r, _ in passed)
            used_cols.update(c for _, c in passed)
            entries = [
                (r, c) for r, c in entries if r not in used_rows and c not in used_cols
            ]
    rows = [r for r, _ in chosen]
    cols = [c for _, c in chosen]
    return near_a[rows].tolist(), near_b[cols].tolist(), chunks


def _greedy_problems():
    rng = np.random.default_rng(7)
    # Rows far apart, columns close together: every row sweeps through
    # all columns before the next row starts, so each pass accepts one
    # pair and the 60 pairs reach past the first chunk.
    ladder_a = np.stack([np.zeros(120), 100.0 * np.arange(120)], axis=1)
    ladder_b = np.stack([0.01 * np.arange(120), np.full(120, -1.0)], axis=1)
    return [
        (TestPairGreedy.XY_A, TestPairGreedy.XY_B, 2),
        (ladder_a, ladder_b, 60),
        (rng.uniform(0, 5, (40, 2)), rng.uniform(8, 12, (50, 2)), 10),
        # keep capped by the smaller side (35 sites < 2 * 30).
        (rng.uniform(0, 5, (35, 2)), rng.uniform(6, 9, (90, 2)), 30),
        # Tied distances on a 0.1 mm lattice; keep 160, so six chunks.
        (
            rng.uniform(0, 3, (200, 2)).round(1),
            rng.uniform(4, 7, (200, 2)).round(1),
            80,
        ),
    ]


class TestPairGreedyMany:
    """Problems solved together equal each problem solved alone."""

    def test_ladder_spills_into_a_second_chunk(self):
        ladder = _greedy_problems()[1]
        assert _reference_pair_greedy(*ladder)[2] >= 2

    def test_each_problem_matches_the_reference(self):
        for problem in _greedy_problems():
            chosen_a, chosen_b = BumpAssigner._pair_greedy(*problem)
            reference_a, reference_b, _ = _reference_pair_greedy(*problem)
            assert chosen_a.tolist() == reference_a
            assert chosen_b.tolist() == reference_b

    @pytest.mark.parametrize("order", ["forward", "reversed", "duplicated"])
    def test_batch_equals_solo_in_acceptance_order(self, order):
        problems = _greedy_problems()
        if order == "reversed":
            problems = problems[::-1]
        elif order == "duplicated":
            problems = problems + problems[::2]
        together = _pair_greedy_many(problems)
        assert len(together) == len(problems)
        for problem, (chosen_a, chosen_b) in zip(problems, together):
            solo_a, solo_b = BumpAssigner._pair_greedy(*problem)
            assert chosen_a.tolist() == solo_a.tolist()
            assert chosen_b.tolist() == solo_b.tolist()
            assert len(chosen_a) == problem[2]

    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 2**32 - 1), pitch=st.sampled_from([0.1, 0.5]))
    def test_random_tied_lattices_match_the_reference(self, seed, pitch):
        # Sites rounded to a lattice tie many distances; with up to 90
        # sites a side, some problems spill into later chunks.
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(4):
            n_pairs = int(rng.integers(1, 45))
            size_a, size_b = rng.integers(n_pairs, 2 * n_pairs + 2, size=2)
            xy_a = (rng.uniform(0, 4, (size_a, 2)) / pitch).round() * pitch
            xy_b = (rng.uniform(3, 7, (size_b, 2)) / pitch).round() * pitch
            problems.append((xy_a, xy_b, n_pairs))
        for problem, (chosen_a, chosen_b) in zip(problems, _pair_greedy_many(problems)):
            reference_a, reference_b, _ = _reference_pair_greedy(*problem)
            assert chosen_a.tolist() == reference_a
            assert chosen_b.tolist() == reference_b

    def test_zero_pairs_take_nothing(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        together = _pair_greedy_many([(xy, xy + 1.0, 0), (xy, xy + 1.0, 2)])
        assert [len(chosen_a) for chosen_a, _ in together] == [0, 2]


class TestGoldenBumps:
    """Bump assignment stays bitwise equal to ``golden_bumps.json``.

    The golden was generated by the per-net, per-placement greedy loop
    the batched engine replaced (``scripts/gen_golden_bumps.py``).
    """

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).resolve().parent.parent / GOLDEN_BUMPS_PATH
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def cases(self):
        return golden_placements()

    @pytest.mark.parametrize("method", METHODS)
    def test_assign_matches_golden(self, golden, cases, method):
        assigner = golden_assigner(method)
        for label, placement in cases:
            record = assignment_record(assigner.assign(placement))
            assert record == golden[method][label], label

    @pytest.mark.parametrize("method", METHODS)
    def test_assign_many_matches_golden(self, golden, cases, method):
        assignments = golden_assigner(method).assign_many([p for _, p in cases])
        assert len(assignments) == len(cases)
        for (label, _), assignment in zip(cases, assignments):
            assert assignment_record(assignment) == golden[method][label], label

    @pytest.mark.parametrize("method", METHODS)
    def test_shuffled_mixed_system_batch_matches_golden(self, golden, cases, method):
        shuffled = list(cases)
        random.Random(13).shuffle(shuffled)
        batch = shuffled[:20]
        assert len({p.system.name for _, p in batch}) > 3
        assignments = golden_assigner(method).assign_many([p for _, p in batch])
        for (label, _), assignment in zip(batch, assignments):
            assert assignment_record(assignment) == golden[method][label], label

    def test_empty_batch(self):
        assert golden_assigner("greedy").assign_many([]) == []


class TestAssignment:
    def test_total_wires_preserved(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 0)})
        assignment = BumpAssigner(pitch=0.5, rings=2).assign(p)
        assert assignment.net("bus").total_wires == 32

    def test_wirelength_positive_and_reasonable(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 0)})
        assignment = BumpAssigner(pitch=0.5, rings=2).assign(p)
        wl = assignment.total_wirelength
        estimate = estimate_wirelength(p)
        # Bumps sit near facing edges, so assigned < center estimate here.
        assert 0 < wl < estimate

    def test_closer_dies_shorter_wires(self, two_die_system):
        assigner = BumpAssigner(pitch=0.5, rings=2)
        near = assigner.assign(placed(two_die_system, {"a": (0, 0), "b": (9, 0)}))
        far = assigner.assign(placed(two_die_system, {"a": (0, 0), "b": (22, 0)}))
        assert near.total_wirelength < far.total_wirelength

    def test_greedy_vs_hungarian_consistent(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (14, 9)})
        greedy = BumpAssigner(pitch=0.5, rings=2, method="greedy").assign(p)
        hungarian = BumpAssigner(pitch=0.5, rings=2, method="hungarian").assign(p)
        ratio = hungarian.total_wirelength / greedy.total_wirelength
        assert 0.8 < ratio < 1.2

    def test_wire_grouping_reduces_pairs(self, two_die_system):
        p = placed(two_die_system, {"a": (0, 0), "b": (20, 0)})
        fine = BumpAssigner(pitch=0.5, rings=2, wire_group_size=1).assign(p)
        coarse = BumpAssigner(pitch=0.5, rings=2, wire_group_size=8).assign(p)
        assert len(coarse.net("bus").pairs) == 4
        assert len(fine.net("bus").pairs) == 32
        assert coarse.net("bus").total_wires == fine.net("bus").total_wires == 32
        # Grouped wirelength approximates the fine-grained one.
        assert coarse.total_wirelength == pytest.approx(
            fine.total_wirelength, rel=0.35
        )

    def test_capacity_fallback_merges_groups(self):
        """When sites run short, wires share bump pairs instead of failing."""
        system = ChipletSystem(
            "tight",
            Interposer(20, 20),
            (Chiplet("a", 2, 2, 1.0), Chiplet("b", 2, 2, 1.0)),
            (Net("a", "b", wires=100000, name="fat"),),
        )
        p = placed(system, {"a": (0, 0), "b": (10, 0)})
        assignment = BumpAssigner(pitch=0.5, rings=1).assign(p)
        net = assignment.net("fat")
        assert net.total_wires == 100000
        assert net.wires_per_pair.max() > 8  # groups were merged

    def test_capacity_exhaustion_raises(self):
        """Dies too small for any bump site cannot be assigned at all."""
        system = ChipletSystem(
            "nosites",
            Interposer(20, 20),
            (Chiplet("a", 0.2, 0.2, 1.0), Chiplet("b", 2, 2, 1.0)),
            (Net("a", "b", wires=4),),
        )
        p = placed(system, {"a": (0, 0), "b": (10, 0)})
        with pytest.raises(RuntimeError, match="free sites"):
            BumpAssigner(pitch=0.5, rings=1).assign(p)

    def test_sites_not_shared_between_nets(self):
        system = ChipletSystem(
            "tri",
            Interposer(40, 40),
            (
                Chiplet("a", 8, 8, 1.0),
                Chiplet("b", 8, 8, 1.0),
                Chiplet("c", 8, 8, 1.0),
            ),
            (Net("a", "b", wires=20), Net("a", "c", wires=20)),
        )
        p = placed(system, {"a": (16, 16), "b": (0, 16), "c": (32, 16)})
        assignment = BumpAssigner(pitch=0.5, rings=2).assign(p)
        a_sites = set()
        for net in assignment.nets:
            side = 0 if net.src == "a" else 1
            for pair in net.pairs:
                key = (round(pair[side][0], 6), round(pair[side][1], 6))
                assert key not in a_sites, "bump site used twice"
                a_sites.add(key)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BumpAssigner(method="magic")
        with pytest.raises(ValueError):
            BumpAssigner(wire_group_size=0)

    @settings(deadline=None, max_examples=15)
    @given(
        bx=st.floats(10, 22, allow_nan=False),
        by=st.floats(0, 22, allow_nan=False),
        wires=st.integers(1, 64),
    )
    def test_assigned_never_much_longer_than_estimate(self, bx, by, wires):
        system = ChipletSystem(
            "prop",
            Interposer(30, 30),
            (Chiplet("a", 8, 8, 1.0), Chiplet("b", 8, 8, 1.0)),
            (Net("a", "b", wires=wires, name="n"),),
        )
        p = placed(system, {"a": (0, 0), "b": (bx, by)})
        if p.footprint("a").inflated(0.1).overlaps(p.footprint("b")):
            return  # overlapping sample; assignment assumes legal placements
        assignment = BumpAssigner(pitch=0.5, rings=3).assign(p)
        # Perimeter bumps sit within half a die of the centers, so the
        # assigned length can exceed the center estimate by at most one
        # die extent per endpoint (+ slack for site congestion).
        estimate = estimate_wirelength(p)
        assert assignment.total_wirelength <= estimate + wires * 17.0
        assert assignment.total_wirelength >= 0.0
