"""Half-square depth maps, hole detection, and shape classification.

Every edge of the grid graph determines one half-square (an area-1/2 cell
of the 45-degree rotated lattice). Half-squares are addressed by rotated
integer coordinates (i, j):

    horizontal edge (x,y)-(x+1,y)  ->  (x + y, y - x - 1)
    vertical   edge (x,y)-(x,y+1)  ->  (x + y, y - x)

Under this bijection (parity of i + j encodes the orientation), sharing an
edge on the rotated lattice is exactly 4-adjacency in (i, j), and the m x n
dimensions of a region along the two diagonal axes are its (i, j) bounding
box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gridcast.core import (
    BroadcastSpec,
    PeriodicPattern,
    Vertex,
    canonicalize,
    reduce_vertex,
)
from gridcast.signal import KernelRow, scatter

RotCoord = tuple[int, int]

HORIZONTAL = "h"
VERTICAL = "v"


def rot_of_edge(orient: str, x: int, y: int) -> RotCoord:
    if orient == HORIZONTAL:
        return (x + y, y - x - 1)
    return (x + y, y - x)


def edge_of_rot(c: RotCoord) -> tuple[str, int, int]:
    i, j = c
    if (i + j) % 2 == 0:
        return (VERTICAL, (i - j) // 2, (i + j) // 2)
    return (HORIZONTAL, (i - j - 1) // 2, (i + j + 1) // 2)


def endpoints_of_rot(c: RotCoord) -> tuple[Vertex, Vertex]:
    orient, x, y = edge_of_rot(c)
    if orient == HORIZONTAL:
        return ((x, y), (x + 1, y))
    return ((x, y), (x, y + 1))


def incident_halfsquares(v: Vertex) -> tuple[RotCoord, RotCoord, RotCoord, RotCoord]:
    """The four half-squares touching a grid vertex (its incident edges)."""
    s = v[0] + v[1]
    d = v[1] - v[0]
    return ((s, d), (s, d - 1), (s - 1, d), (s - 1, d - 1))


def reduce_halfsquare(p: PeriodicPattern, c: RotCoord) -> RotCoord:
    """Canonical representative of a half-square modulo the pattern lattice.

    p must be canonical; the edge's base vertex is reduced into the
    fundamental domain with the orientation kept.
    """
    orient, x, y = edge_of_rot(c)
    rx, ry = reduce_vertex(p, (x, y))
    return rot_of_edge(orient, rx, ry)


@dataclass(frozen=True)
class DepthMap:
    """Depth and covering-tower count for one fundamental domain of half-squares."""

    pattern: PeriodicPattern  # canonical
    spec: BroadcastSpec
    depth: dict[RotCoord, int]
    cover_count: dict[RotCoord, int]


def _edge_kernels(spec: BroadcastSpec, step: Vertex) -> tuple[list[KernelRow], list[KernelRow]]:
    """Depth and cover kernels over the base u of the edge (u, u + step).

    A kernel cell is u minus the tower. The tower covers the edge when both
    endpoints are within t-1 of it, with depth min(K(u), K(u + step), r)
    for the tower's uncapped signal K.
    """
    t, r = spec.t, spec.r
    sx, sy = step
    depth_rows: list[KernelRow] = []
    cover_rows: list[KernelRow] = []
    for dy in range(1 - t, t):
        # dist: from the tower to the farther endpoint of the edge
        cells = [(dx, max(abs(dx) + abs(dy), abs(dx + sx) + abs(dy + sy))) for dx in range(1 - t, t)]
        near = [(dx, dist) for dx, dist in cells if dist < t]
        if near:
            depth_rows.append((dy, near[0][0], [min(t - dist, r) for _, dist in near]))
            cover_rows.append((dy, near[0][0], [1] * len(near)))
    return depth_rows, cover_rows


def depth_map(p: PeriodicPattern, spec: BroadcastSpec) -> DepthMap:
    """Depths of the 2*|det| half-squares of one fundamental domain.

    One residue scatter per orientation and quantity: each tower adds the
    edge kernel to the edges based at the residues around it.
    """
    canon = canonicalize(p)
    a = canon.basis_u[0]
    c = canon.basis_v[1]
    fields = []
    for orient, step in ((HORIZONTAL, (1, 0)), (VERTICAL, (0, 1))):
        depth_kernel, cover_kernel = _edge_kernels(spec, step)
        fields.append((orient, scatter(canon, depth_kernel), scatter(canon, cover_kernel)))
    depth: dict[RotCoord, int] = {}
    cover: dict[RotCoord, int] = {}
    for x in range(a):
        for y in range(c):
            for orient, depth_field, cover_field in fields:
                key = rot_of_edge(orient, x, y)
                depth[key] = depth_field[y * a + x]
                cover[key] = cover_field[y * a + x]
    return DepthMap(pattern=canon, spec=spec, depth=depth, cover_count=cover)


@dataclass(frozen=True)
class Hole:
    """One maximal edge-connected component of half-squares at the hole depth."""

    half_squares: tuple[RotCoord, ...]  # canonical representatives, sorted
    size: int
    dimensions: tuple[int, int | None]  # (m, n) with m <= n; n None when infinite
    spur_points: tuple[Vertex, ...]  # reduced to the fundamental domain
    convex: bool
    infinite: bool  # connects to its own lattice translate

    @property
    def shape_class(self) -> str:
        return classify_hole(self)

    def to_dict(self) -> dict:
        m, n = self.dimensions
        return {
            "half_squares": [list(c) for c in self.half_squares],
            "size": self.size,
            "dimensions": [m, n],
            "spur_points": [list(v) for v in self.spur_points],
            "convex": self.convex,
            "infinite": self.infinite,
            "shape_class": self.shape_class,
        }


def classify_hole(hole: Hole) -> str:
    """One of {"2x2", "1xN", "1xInf", "other"}."""
    if not hole.convex:
        return "other"
    if hole.infinite:
        return "1xInf" if hole.dimensions[0] == 1 else "other"
    m, n = hole.dimensions
    if (m, n) == (2, 2) and hole.size == 4:
        return "2x2"
    if m == 1:
        return "1xN"
    return "other"


@dataclass(frozen=True)
class HoleReport:
    pattern: PeriodicPattern  # canonical
    spec: BroadcastSpec
    hole_depth: int
    holes: tuple[Hole, ...]

    def to_dict(self) -> dict:
        return {
            "t": self.spec.t,
            "r": self.spec.r,
            "hole_depth": self.hole_depth,
            "holes": [h.to_dict() for h in self.holes],
        }


def _neighbors(c: RotCoord) -> tuple[RotCoord, ...]:
    i, j = c
    return ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))


def find_holes(p: PeriodicPattern, spec: BroadcastSpec, hole_depth: int) -> HoleReport:
    """Connected components of half-squares at depth r - hole_depth.

    Components are traversed with lattice wraparound: reaching the same
    canonical half-square through two different lifts means the component
    connects to its own translate, i.e. it is infinite.
    """
    return _holes_in(depth_map(p, spec), hole_depth)


def _holes_in(dm: DepthMap, hole_depth: int) -> HoleReport:
    """find_holes on an already built depth map."""
    spec = dm.spec
    if not 1 <= hole_depth <= spec.r:
        raise ValueError(f"hole_depth must be in [1, r={spec.r}], got {hole_depth}")
    canon = dm.pattern
    target = spec.r - hole_depth
    cells = {key for key, d in dm.depth.items() if d == target}
    assigned: set[RotCoord] = set()
    holes: list[Hole] = []
    for start in sorted(cells):
        if start in assigned:
            continue
        # lift[k] = lifted position minus canonical position, a lattice vector
        lifts: dict[RotCoord, RotCoord] = {start: (0, 0)}
        infinite = False
        stack = [start]
        while stack:
            key = stack.pop()
            li, lj = lifts[key]
            lifted = (key[0] + li, key[1] + lj)
            for nb in _neighbors(lifted):
                ckey = reduce_halfsquare(canon, nb)
                if ckey not in cells:
                    continue
                nlift = (nb[0] - ckey[0], nb[1] - ckey[1])
                if ckey in lifts:
                    if lifts[ckey] != nlift:
                        infinite = True
                else:
                    lifts[ckey] = nlift
                    stack.append(ckey)
        assigned |= lifts.keys()
        holes.append(_build_hole(canon, lifts, infinite))
    return HoleReport(pattern=canon, spec=spec, hole_depth=hole_depth, holes=tuple(holes))


def _build_hole(canon: PeriodicPattern, lifts: dict[RotCoord, RotCoord], infinite: bool) -> Hole:
    members = set(lifts)
    lifted = [(k[0] + off[0], k[1] + off[1]) for k, off in lifts.items()]
    span_i = max(c[0] for c in lifted) - min(c[0] for c in lifted) + 1
    span_j = max(c[1] for c in lifted) - min(c[1] for c in lifted) + 1
    if infinite:
        dimensions: tuple[int, int | None] = (min(span_i, span_j), None)
    else:
        dimensions = (min(span_i, span_j), max(span_i, span_j))

    # Spur point: grid vertex with exactly 3 of its 4 incident half-squares
    # in this hole (the fourth is then covered).
    spurs: set[Vertex] = set()
    seen_vertices: set[Vertex] = set()
    for cell in lifted:
        for v in endpoints_of_rot(cell):
            if v in seen_vertices:
                continue
            seen_vertices.add(v)
            in_hole = sum(
                1 for inc in incident_halfsquares(v) if reduce_halfsquare(canon, inc) in members
            )
            if in_hole == 3:
                spurs.add(reduce_vertex(canon, v))
    spur_points = tuple(sorted(spurs, key=lambda v: (v[1], v[0])))
    return Hole(
        half_squares=tuple(sorted(members)),
        size=len(members),
        dimensions=dimensions,
        spur_points=spur_points,
        convex=not spur_points,
        infinite=infinite,
    )


def hole_overlap_densities(p: PeriodicPattern, spec: BroadcastSpec) -> tuple[Fraction, Fraction]:
    """(hole density, overlap density) as exact fractions over 2*|det|.

    A hole half-square has depth 0; an overlap half-square is covered by at
    least two distinct towers.
    """
    return _densities_in(depth_map(p, spec))


def hole_summary(
    p: PeriodicPattern, spec: BroadcastSpec, hole_depth: int
) -> tuple[HoleReport, Fraction, Fraction]:
    """find_holes and hole_overlap_densities from one shared depth map."""
    dm = depth_map(p, spec)
    return (_holes_in(dm, hole_depth), *_densities_in(dm))


def _densities_in(dm: DepthMap) -> tuple[Fraction, Fraction]:
    """hole_overlap_densities on an already built depth map."""
    total = len(dm.depth)
    holes = sum(1 for d in dm.depth.values() if d == 0)
    overlaps = sum(1 for c in dm.cover_count.values() if c >= 2)
    return Fraction(holes, total), Fraction(overlaps, total)
