"""Candidate microbump sites on a chiplet's perimeter.

Die-to-die signals escape through microbumps near the die edge (the
interior is taken by power/ground).  Sites are generated as concentric
perimeter rings with a given pitch, innermost ring first, in interposer
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Rect

__all__ = ["BumpSite", "perimeter_sites", "perimeter_site_array"]


@dataclass(frozen=True)
class BumpSite:
    """One candidate bump location on a die.

    Attributes
    ----------
    x, y:
        Position in interposer coordinates (mm).
    edge:
        Which die edge the site belongs to: ``"n" | "e" | "s" | "w"``.
    ring:
        0 for the outermost ring, increasing inward.
    """

    x: float
    y: float
    edge: str
    ring: int


def perimeter_sites(
    rect: Rect,
    pitch: float = 0.4,
    rings: int = 2,
    edge_margin: float = 0.15,
) -> list:
    """Generate bump sites along the perimeter of ``rect``.

    Parameters
    ----------
    rect:
        Die footprint in interposer coordinates.
    pitch:
        Site spacing along an edge in mm (also the ring-to-ring spacing).
    rings:
        Number of concentric rings.
    edge_margin:
        Distance from the die edge to the outermost ring, in mm.

    Returns
    -------
    list of :class:`BumpSite`, in the order of
    :func:`perimeter_site_array`: outermost ring first; within a ring,
    N/S pairs ascending in x, then E/W pairs ascending in y.  Corner
    positions are excluded from the vertical edges to avoid duplicates.
    """
    xy, n_x, n_y = _site_layout(rect, pitch, rings, edge_margin)
    sites = []
    offset = 0
    for ring, (count_x, count_y) in enumerate(zip(n_x.tolist(), n_y.tolist())):
        edges = "ns" * count_x + "ew" * count_y
        block = xy[offset : offset + len(edges)].tolist()
        sites += [BumpSite(x, y, edge, ring) for (x, y), edge in zip(block, edges)]
        offset += len(edges)
    return sites


def perimeter_site_array(
    rect: Rect,
    pitch: float = 0.4,
    rings: int = 2,
    edge_margin: float = 0.15,
) -> np.ndarray:
    """Coordinates of :func:`perimeter_sites` as an ``(n, 2)`` array.

    Same sites, same order, same float operations, without building a
    :class:`BumpSite` per site (the bump assigner's hot path).
    """
    return _site_layout(rect, pitch, rings, edge_margin)[0]


def _site_layout(rect: Rect, pitch: float, rings: int, edge_margin: float):
    """All rings' sites at once: ``(xy, n_x, n_y)``.

    Per ring present, ``n_x`` N/S site pairs (the N and S site of each x
    position, N first) are followed by ``n_y`` E/W pairs (E first, over
    the y positions minus the two corners).  Each coordinate takes the
    float operations of the ring-by-ring loop: inset, corners, then
    :func:`_positions`.
    """
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    if rings < 1:
        raise ValueError("need at least one ring")
    inset = edge_margin + np.arange(rings) * pitch
    x1, x2 = rect.x + inset, rect.x2 - inset
    y1, y2 = rect.y + inset, rect.y2 - inset
    fits = (x1 < x2) & (y1 < y2)
    if not fits.all():  # rings stop at the first one the die is too small for
        present = int(np.argmin(fits))
        x1, x2, y1, y2 = x1[:present], x2[:present], y1[:present], y2[:present]
    xs, n_x, ring_x, k_x = _positions(x1, x2, pitch)
    ys, n_y, ring_y, k_y = _positions(y1, y2, pitch)
    inner = (k_y > 0) & (k_y < n_y[ring_y] - 1)
    ys, ring_y, k_y = ys[inner], ring_y[inner], k_y[inner] - 1
    n_y = np.maximum(n_y - 2, 0)
    ring_end = np.cumsum(2 * (n_x + n_y))
    ring_start = ring_end - 2 * (n_x + n_y)
    xy = np.empty((int(ring_end[-1]) if len(ring_end) else 0, 2))
    north = ring_start[ring_x] + 2 * k_x
    xy[north, 0] = xs
    xy[north, 1] = y2[ring_x]
    xy[north + 1, 0] = xs
    xy[north + 1, 1] = y1[ring_x]
    east = ring_start[ring_y] + 2 * n_x[ring_y] + 2 * k_y
    xy[east, 0] = x2[ring_y]
    xy[east, 1] = ys
    xy[east + 1, 0] = x1[ring_y]
    xy[east + 1, 1] = ys
    return xy, n_x, n_y


def _positions(lo: np.ndarray, hi: np.ndarray, pitch: float):
    """Evenly pitched positions in each ``[lo, hi]``, centered in the span.

    Returns the positions of every span concatenated, the count per
    span, and each position's span and index within it.
    """
    span = hi - lo
    count = np.maximum((span / pitch).astype(np.int64) + 1, 1)
    used = (count - 1) * pitch
    start = lo + (span - used) / 2.0
    owner = np.repeat(np.arange(len(count)), count)
    index = np.arange(len(owner)) - (np.cumsum(count) - count)[owner]
    return start[owner] + index * pitch, count, owner, index
