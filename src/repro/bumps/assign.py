"""Per-wire microbump assignment (TAP-2.5D's wirelength optimization).

Every inter-chiplet net is a bundle of ``wires`` point-to-point links.
Each wire occupies one bump site on each endpoint die; a site carries at
most one wire (per ``wire_group_size`` wires — real D2D buses cluster
several signals per bump group, and grouping also bounds the assignment
cost for multi-thousand-wire bundles).

Nets are processed in descending wire count (fattest bundles get first
pick, as in TAP-2.5D); :meth:`BumpAssigner.assign_many` runs the nets
of a whole batch of placements together, level by level (see there).
Within a net, site pairs are chosen either

* ``"greedy"`` — repeatedly take the closest free (site_a, site_b) pair
  (sorted-distance sweep, near-optimal for convex perimeter geometries), or
* ``"hungarian"`` — optimal pairing between the k best candidate sites on
  each side via :func:`scipy.optimize.linear_sum_assignment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.chiplet import Placement
from repro.bumps.sites import perimeter_site_array

__all__ = ["NetAssignment", "BumpAssignment", "BumpAssigner"]


def _first_occurrence(
    values: np.ndarray, buffer: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Mask of positions holding the first occurrence of each value.

    ``values`` are ints indexing ``buffer``, an int64 array this
    overwrites (no reset needed: only the slots of ``values`` are read);
    ``positions`` is ``np.arange(len(values))``.  O(n), no sorting: a
    reversed scatter makes the earliest position win.
    """
    buffer[values[::-1]] = positions[::-1]
    return buffer[values] == positions


@dataclass(frozen=True)
class NetAssignment:
    """Assigned bump pairs for one net.

    ``pairs`` has shape ``(n_groups, 2, 2)``: for each wire group, the
    (x, y) of the source-side and destination-side bump.  ``wires_per_pair``
    records how many physical wires each group carries.
    """

    net_name: str
    src: str
    dst: str
    pairs: np.ndarray
    wires_per_pair: np.ndarray

    @property
    def wirelength(self) -> float:
        """Total Manhattan wirelength of this net in mm."""
        deltas = np.abs(self.pairs[:, 0, :] - self.pairs[:, 1, :]).sum(axis=1)
        return float((deltas * self.wires_per_pair).sum())

    @property
    def total_wires(self) -> int:
        return int(self.wires_per_pair.sum())


@dataclass
class BumpAssignment:
    """Complete assignment for a placement."""

    nets: list = field(default_factory=list)

    @property
    def total_wirelength(self) -> float:
        """Sum of per-net Manhattan wirelengths in mm."""
        return sum(net.wirelength for net in self.nets)

    def net(self, name: str) -> NetAssignment:
        for assignment in self.nets:
            if assignment.net_name == name:
                return assignment
        raise KeyError(f"no assignment for net {name!r}")


class BumpAssigner:
    """Assign microbumps for complete placements of one system.

    Parameters
    ----------
    pitch:
        Bump-site pitch along the perimeter in mm.
    rings:
        Number of perimeter rings per die (more rings = more capacity).
    wire_group_size:
        Wires sharing one bump pair.  1 assigns every wire its own pair;
        larger values trade accuracy for speed on huge bundles.
    method:
        ``"greedy"`` (default) or ``"hungarian"``.
    """

    def __init__(
        self,
        pitch: float = 0.4,
        rings: int = 4,
        wire_group_size: int = 1,
        method: str = "greedy",
    ):
        if method not in ("greedy", "hungarian"):
            raise ValueError(f"unknown assignment method {method!r}")
        if wire_group_size < 1:
            raise ValueError("wire_group_size must be >= 1")
        self.pitch = pitch
        self.rings = rings
        self.wire_group_size = wire_group_size
        self.method = method

    def assign(self, placement: Placement) -> BumpAssignment:
        """Run the assignment over all nets with placed endpoints."""
        return self.assign_many([placement])[0]

    def assign_many(self, placements) -> list:
        """Assign every placement of a batch; one :class:`BumpAssignment` each.

        Within a placement, nets are taken in descending wire count
        (stable), and a net only sees the sites its two dies have left
        after every earlier net on either die.  So each net gets the
        level ``1 + max(level of its dies so far)``: nets on one level
        share no die, and every net on a level, across the whole batch,
        is an independent pairing problem.  Levels run in order; the
        problems of one level are solved together (the greedy pass
        loop runs once over all of them).  The result equals assigning
        each placement alone, bit for bit.
        """
        placements = list(placements)
        site_xy, site_free, nets_out = [], [], []
        levels: list = []  # levels[k]: (placement index, slot, net) at k + 1
        for index, placement in enumerate(placements):
            xy = {
                name: perimeter_site_array(
                    placement.footprint(name), pitch=self.pitch, rings=self.rings
                )
                for name in placement.placed_names
            }
            site_xy.append(xy)
            site_free.append(
                {name: np.ones(len(coords), dtype=bool) for name, coords in xy.items()}
            )
            ordered = sorted(
                (
                    net
                    for net in placement.system.nets
                    if placement.is_placed(net.src) and placement.is_placed(net.dst)
                ),
                key=lambda net: -net.wires,
            )
            nets_out.append([None] * len(ordered))
            die_level: dict = {}
            for slot, net in enumerate(ordered):
                level = max(die_level.get(net.src, 0), die_level.get(net.dst, 0))
                die_level[net.src] = die_level[net.dst] = level + 1
                if level == len(levels):
                    levels.append([])
                levels[level].append((index, slot, net))

        for level in levels:
            jobs, problems = [], []
            for index, slot, net in level:
                xy_a, xy_b = site_xy[index][net.src], site_xy[index][net.dst]
                idx_a = np.flatnonzero(site_free[index][net.src])
                idx_b = np.flatnonzero(site_free[index][net.dst])
                groups = self._fallback_groups(net.wires, min(len(idx_a), len(idx_b)))
                n_pairs = len(groups)
                if len(idx_a) < n_pairs or len(idx_b) < n_pairs:
                    raise RuntimeError(
                        f"net {net.src}->{net.dst} needs {n_pairs} bump pairs but "
                        f"only {len(idx_a)}/{len(idx_b)} free sites remain; "
                        f"increase rings or wire_group_size"
                    )
                jobs.append((index, slot, net, idx_a, idx_b, groups))
                problems.append((xy_a[idx_a], xy_b[idx_b], n_pairs))
            if self.method == "hungarian":
                chosen = [self._pair_hungarian(*problem) for problem in problems]
            else:
                chosen = _pair_greedy_many(problems)
            for job, (chosen_a, chosen_b) in zip(jobs, chosen):
                index, slot, net, idx_a, idx_b, groups = job
                sel_a = idx_a[chosen_a]
                sel_b = idx_b[chosen_b]
                site_free[index][net.src][sel_a] = False
                site_free[index][net.dst][sel_b] = False
                xy_a, xy_b = site_xy[index][net.src], site_xy[index][net.dst]
                nets_out[index][slot] = NetAssignment(
                    net_name=net.name or f"net{slot}",
                    src=net.src,
                    dst=net.dst,
                    pairs=np.stack([xy_a[sel_a], xy_b[sel_b]], axis=1),
                    wires_per_pair=groups,
                )
        return [BumpAssignment(nets=nets) for nets in nets_out]

    # ------------------------------------------------------------------

    def _fallback_groups(self, wires: int, free_sites: int) -> np.ndarray:
        """Wire counts of a net's bump groups, given ``free_sites`` per die.

        Groups of ``wire_group_size`` wires (the last one takes the
        rest).  Capacity fallback: when free sites run short (dense
        buses on small dies), merge more wires per bump group rather
        than fail — the grouping is recorded in ``wires_per_pair``.
        """
        group = self.wire_group_size
        while True:
            full, rest = divmod(wires, group)
            if full + bool(rest) <= free_sites or group >= wires:
                sizes = [group] * full + ([rest] if rest else [])
                return np.array(sizes, dtype=np.int64)
            group *= 2

    @staticmethod
    def _pair_greedy(xy_a: np.ndarray, xy_b: np.ndarray, n_pairs: int):
        """Greedy pairing of one problem; see :func:`_pair_greedy_many`."""
        return _pair_greedy_many([(xy_a, xy_b, n_pairs)])[0]

    @staticmethod
    def _pair_hungarian(xy_a: np.ndarray, xy_b: np.ndarray, n_pairs: int):
        """Optimal pairing among the candidate sites nearest the peer die."""
        center_b = xy_b.mean(axis=0)
        center_a = xy_a.mean(axis=0)
        # Prefilter to the 2x nearest candidates per side to keep the
        # Hungarian cost matrix small on big perimeters.
        keep = 2 * n_pairs
        near_a = np.argsort(
            np.abs(xy_a - center_b).sum(axis=1), kind="stable"
        )[:keep]
        near_b = np.argsort(
            np.abs(xy_b - center_a).sum(axis=1), kind="stable"
        )[:keep]
        cost = np.abs(
            xy_a[near_a][:, None, :] - xy_b[near_b][None, :, :]
        ).sum(axis=2)
        rows, cols = linear_sum_assignment(cost)
        order = np.argsort(cost[rows, cols], kind="stable")[:n_pairs]
        return near_a[rows[order]], near_b[cols[order]]


# Sorted candidate entries are swept in chunks of this many per problem.
_CHUNK = 4096


def _pair_greedy_many(problems) -> list:
    """Greedy pairing over distance-sorted candidate pairs, many problems at once.

    ``problems`` is a list of ``(xy_a, xy_b, n_pairs)``; the result holds
    one ``(chosen_a, chosen_b)`` index pair per problem, in acceptance
    order, equal to solving that problem alone.

    Per problem, candidates are prefiltered to the sites nearest the
    peer die so the sweep touches a small matrix; the winning pairs
    always lie on the facing perimeters, so the filter does not change
    the result in practice.  The sweep visits the (row, col) entries of
    that matrix by ascending distance, ties in row-major order.

    Acceptance runs in passes, not one pair at a time.  Each pass
    takes every remaining pair that is the earliest remaining pair (in
    sweep order) of both its row and its column, then retires those
    rows and columns.  Run to exhaustion, the passes select exactly the
    pairs of a sequential greedy sweep.  But the ``n_pairs`` cap
    truncates the last pass in sweep order, so the result is
    ``n_pairs`` pairs of that sweep's matching, not always its first
    ``n_pairs``: for the sweep order (0,0), (1,0), (1,1), (2,2) and
    ``n_pairs=2``, pass one picks {(0,0), (2,2)} where a sequential
    sweep stops at {(0,0), (1,1)}.

    The sweep is lazy: a problem's sorted entries are loaded ``_CHUNK``
    at a time, dropping already-used rows/cols, and its next chunk is
    only loaded once the current one runs dry short of ``n_pairs``.
    The problems' row and column ids are offset so no two share one;
    every pass then runs over one array of all problems' loaded entries
    (each problem's in sweep order), and the cap applies per problem by
    rank among its own takes.
    """
    n_problems = len(problems)
    near, orders = [], []
    keeps = np.empty(n_problems, dtype=np.int64)
    need = np.empty(n_problems, dtype=np.int64)
    for p, (xy_a, xy_b, n_pairs) in enumerate(problems):
        keep = min(max(2 * n_pairs, n_pairs + 16), len(xy_a), len(xy_b))
        center_b = xy_b.mean(axis=0)
        center_a = xy_a.mean(axis=0)
        near_a = np.argsort(
            np.abs(xy_a - center_b).sum(axis=1), kind="stable"
        )[:keep]
        near_b = np.argsort(
            np.abs(xy_b - center_a).sum(axis=1), kind="stable"
        )[:keep]
        sub_a = xy_a[near_a]
        sub_b = xy_b[near_b]
        dist = np.subtract.outer(sub_a[:, 0], sub_b[:, 0])
        np.abs(dist, out=dist)
        dist_y = np.subtract.outer(sub_a[:, 1], sub_b[:, 1])
        dist += np.abs(dist_y, out=dist_y)
        near.append((near_a, near_b))
        orders.append(np.argsort(dist, axis=None, kind="stable"))
        keeps[p] = keep
        need[p] = n_pairs
    base = np.concatenate(([0], np.cumsum(keeps)))  # row/col id offsets
    n_ids = int(base[-1])
    row_owner = np.repeat(np.arange(n_problems), keeps)
    n_chunks = -(-keeps * keeps // _CHUNK)

    count = np.zeros(n_problems, dtype=np.int64)
    next_chunk = np.zeros(n_problems, dtype=np.int64)
    free_rows = np.ones(n_ids, dtype=bool)
    free_cols = np.ones(n_ids, dtype=bool)
    first_row = np.empty(n_ids, dtype=np.int64)
    first_col = np.empty(n_ids, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    rows, cols, positions = empty, empty, empty
    taken_rows, taken_cols = [], []
    starving = np.flatnonzero(need > 0)
    while True:
        # Problems whose chunk ran dry short of n_pairs load their next one
        # (skipping chunks with nothing left on free rows and columns).
        # A dry problem has no entries left, so appending keeps each
        # problem's entries in sweep order.
        loaded_rows, loaded_cols = [rows], [cols]
        for p in starving.tolist():
            lo, keep = base[p], keeps[p]
            while next_chunk[p] < n_chunks[p]:
                start = next_chunk[p] * _CHUNK
                next_chunk[p] += 1
                chunk_rows, chunk_cols = np.divmod(
                    orders[p][start : start + _CHUNK], keep
                )
                chunk_rows += lo
                chunk_cols += lo
                alive = free_rows[chunk_rows] & free_cols[chunk_cols]
                if alive.any():
                    loaded_rows.append(chunk_rows[alive])
                    loaded_cols.append(chunk_cols[alive])
                    break
        if len(loaded_rows) > 1:
            rows = np.concatenate(loaded_rows)
            cols = np.concatenate(loaded_cols)
            if len(positions) < len(rows):
                positions = np.arange(len(rows))
        if not len(rows):
            # Every problem ran dry: load on for those short of n_pairs.
            starving = np.flatnonzero((count < need) & (next_chunk < n_chunks))
            if not len(starving):
                break
            continue
        here = positions[: len(rows)]
        first = _first_occurrence(rows, first_row, here)
        first &= _first_occurrence(cols, first_col, here)
        take = np.flatnonzero(first)
        take_rows, take_cols = rows[take], cols[take]
        take_owner = row_owner[take_rows]
        taken = np.bincount(take_owner, minlength=n_problems)
        room = need - count
        if (taken > room).any():
            # Cap each problem at n_pairs: rank its takes in array order,
            # which within one problem is sweep order.
            by_owner = np.argsort(take_owner, kind="stable")
            owners = take_owner[by_owner]
            rank = np.empty(len(take), dtype=np.int64)
            rank[by_owner] = np.arange(len(take)) - np.searchsorted(owners, owners)
            capped = rank < room[take_owner]
            take_rows, take_cols = take_rows[capped], take_cols[capped]
            taken = np.minimum(taken, room)
        count += taken
        # A problem that is done retires all its rows (and so its entries).
        for p in np.flatnonzero((taken > 0) & (count == need)).tolist():
            free_rows[base[p] : base[p + 1]] = False
        taken_rows.append(take_rows)
        taken_cols.append(take_cols)
        free_rows[take_rows] = False
        free_cols[take_cols] = False
        alive = free_rows[rows]
        alive &= free_cols[cols]
        rows, cols = rows[alive], cols[alive]
        # A problem's earliest remaining entry is always taken, so one
        # that took nothing has run dry.  (One that ran dry in this pass
        # waits a pass; problems never touch each other's entries.)
        starving = np.flatnonzero(
            (taken == 0) & (count < need) & (next_chunk < n_chunks)
        )

    taken_rows = np.concatenate(taken_rows) if taken_rows else empty
    taken_cols = np.concatenate(taken_cols) if taken_cols else empty
    taken_owner = row_owner[taken_rows]
    by_problem = np.argsort(taken_owner, kind="stable")
    bounds = np.searchsorted(taken_owner[by_problem], np.arange(n_problems + 1))
    taken_rows = taken_rows[by_problem]
    taken_cols = taken_cols[by_problem]
    chosen = []
    for p, (near_a, near_b) in enumerate(near):
        lo, hi = bounds[p], bounds[p + 1]
        chosen.append(
            (
                near_a[taken_rows[lo:hi] - base[p]],
                near_b[taken_cols[lo:hi] - base[p]],
            )
        )
    return chosen
