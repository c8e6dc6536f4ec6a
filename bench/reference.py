"""Independent reference answers for checking gridcast's CLI output.

Nothing here imports gridcast. The library computes every periodic quantity
by gathering: each vertex of a fundamental domain sums its L1 ball, calling
`contains` once per ball cell. This module scatters instead: each tower's
kernel is added into an array indexed by lattice residue, so every lift of a
tower onto the same residue adds up. The two algorithms share no code, so a
bug in one does not hide in the other. Finite-grid answers come from
published closed forms for the grid domination number and from re-checking
the witness tower set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Vertex = tuple[int, int]

# The published table of best standard broadcasts (rows t = 2..6; columns
# (t,1), (t+1,3), (t+2,5), (t+3,7)), copied from the paper, not from gridcast.
PUBLISHED_TABLE1 = {
    2: ((5, 3), (5, 3), (8, 2), (11, 2)),
    3: ((13, 5), (13, 5), (14, 4), (19, 7)),
    4: ((25, 7), (25, 7), (26, 10), (29, 12)),
    5: ((41, 9), (41, 9), (42, 16), (43, 12)),
    6: ((61, 11), (61, 11), (62, 26), (65, 18)),
}

HOLE_LEMMA_CLASSES = frozenset({"2x2", "1xN", "1xInf"})


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Lattice:
    """A tower set in triangular form: basis {(a,0),(b,c)}, 0 <= b < a, a,c > 0.

    Offsets lie in the box [0,a) x [0,c). This is the unique representative
    gridcast's CLI reports, so witnesses and half-square keys compare directly.
    """

    a: int
    b: int
    c: int
    offsets: tuple[Vertex, ...]

    @property
    def size(self) -> int:
        return self.a * self.c

    def residue(self, x: int, y: int) -> int:
        """Index j*a + i of the box cell (i, j) equivalent to (x, y)."""
        j = y % self.c
        k = (y - j) // self.c
        return j * self.a + (x - k * self.b) % self.a

    def cell(self, index: int) -> Vertex:
        return (index % self.a, index // self.a)

    @cached_property
    def tower_residues(self) -> frozenset[int]:
        return frozenset(self.residue(x, y) for x, y in self.offsets)

    def is_tower(self, x: int, y: int) -> bool:
        return self.residue(x, y) in self.tower_residues


def standard_lattice(d: int, e: int) -> Lattice:
    return Lattice(d, e % d, 1, ((0, 0),))


def ball(t: int) -> list[tuple[int, int, int]]:
    """(dx, dy, |dx|+|dy|) for every cell a tower of strength t reaches."""
    return [
        (dx, dy, abs(dx) + abs(dy))
        for dy in range(-(t - 1), t)
        for dx in range(-(t - 1 - abs(dy)), t - abs(dy))
    ]


def emission_total(t: int, r: int) -> int:
    """Capped signal one tower emits: min(t,r) + sum over k of 4k*min(t-k, r)."""
    return min(t, r) + sum(4 * k * min(t - k, r) for k in range(1, t))


def vertex_field(lat: Lattice, t: int, r: int | None) -> list[int]:
    """Total signal at each residue; each tower's share capped at r (None: uncapped)."""
    field = [0] * lat.size
    for ox, oy in lat.offsets:
        for dx, dy, dist in ball(t):
            w = t - dist if r is None else min(t - dist, r)
            field[lat.residue(ox + dx, oy + dy)] += w
    return field


def verify_report(lat: Lattice, t: int, r: int) -> dict:
    """The dict `gridcast --json verify` prints for this tower set."""
    field = vertex_field(lat, t, r)
    low = min(field)
    # Index order j*a + i is (y, x) order, so the first minimum is the
    # lexicographically least witness.
    witness = lat.cell(field.index(low))
    dens = Fraction(len(lat.offsets), lat.size)
    return {
        "valid": low >= r,
        "t": t,
        "r": r,
        "density": {"num": dens.numerator, "den": dens.denominator},
        "min_total_signal": low,
        "witness": list(witness),
        "domain_size": lat.size,
    }


def min_uncapped_signal(lat: Lattice, t: int) -> int:
    return min(vertex_field(lat, t, None))


def _standard_kernel(t: int, r: int) -> list[tuple[int, int, int]]:
    return [(dx, dy, min(t - dist, r)) for dx, dy, dist in ball(t)]


def standard_valid_e(d: int, t: int, r: int) -> list[int]:
    """Every e in [0, d) making standard(d, e) a (t,r) broadcast.

    For standard(d, e) the residue of (x, y) is (x - e*y) mod d.
    """
    kernel = _standard_kernel(t, r)
    found = []
    for e in range(d):
        field = [0] * d
        for dx, dy, w in kernel:
            field[(dx - e * dy) % d] += w
        if min(field) >= r:
            found.append(e)
    return found


def best_standard(t: int, r: int) -> dict:
    """The dict `gridcast --json search` prints for (t,r)."""
    bound = emission_total(t, r) // r
    for d in range(bound, 0, -1):
        valid = standard_valid_e(d, t, r)
        if valid:
            return {"t": t, "r": r, "d": d, "valid_e": valid, "d_bound": bound}
    return {"t": t, "r": r, "d": 0, "valid_e": [], "d_bound": bound}


def search_counters(result: dict) -> dict:
    """Work a downward d-scan of one search performs, derived from its result."""
    d, bound = result["d"], result["d_bound"]
    return {
        "search.d_scanned": bound - d + 1,
        "search.e_tested": sum(range(d, bound + 1)),
        "search.e_valid": len(result["valid_e"]),
    }


def rot_of_edge(orient: str, x: int, y: int) -> Vertex:
    """gridcast's half-square coordinates of the edge based at (x, y)."""
    return (x + y, y - x - 1) if orient == "h" else (x + y, y - x)


_STEP = {"h": (1, 0), "v": (0, 1)}


def edge_fields(lat: Lattice, t: int, r: int) -> dict[str, tuple[list[int], list[int]]]:
    """Per orientation, (depth, covering-tower count) of each edge residue.

    A tower at offset w from the edge base u covers the edge when both
    endpoints are within t-1 of it, with depth min(t - farther distance, r).
    """
    out = {}
    for orient, (sx, sy) in _STEP.items():
        depth = [0] * lat.size
        cover = [0] * lat.size
        for ox, oy in lat.offsets:
            for dx, dy, du in ball(t):
                dv = abs(dx - sx) + abs(dy - sy)
                if dv > t - 1:
                    continue
                idx = lat.residue(ox - dx, oy - dy)
                depth[idx] += min(t - max(du, dv), r)
                cover[idx] += 1
        out[orient] = (depth, cover)
    return out


def _fraction_dict(num: int, den: int) -> dict:
    f = Fraction(num, den)
    return {"num": f.numerator, "den": f.denominator}


def _spur_points(lat: Lattice, cells: set[Vertex]) -> list[list[int]]:
    """Box vertices, in (y, x) order, with exactly 3 of their 4 incident half-squares in `cells`."""

    def key(orient: str, x: int, y: int) -> Vertex:
        return rot_of_edge(orient, *lat.cell(lat.residue(x, y)))

    spurs = []
    for idx in range(lat.size):
        x, y = lat.cell(idx)
        incident = (key("h", x, y), key("h", x - 1, y), key("v", x, y), key("v", x, y - 1))
        if sum(k in cells for k in incident) == 3:
            spurs.append([x, y])
    return spurs


def _shape_class(hole: dict) -> str:
    """The paper's shape classes, from a hole's reported convexity, span and size."""
    m, n = hole["dimensions"]
    if not hole["convex"]:
        return "other"
    if hole["infinite"]:
        return "1xInf" if m == 1 else "other"
    if (m, n) == (2, 2) and hole["size"] == 4:
        return "2x2"
    return "1xN" if m == 1 else "other"


def check_holes(payload: dict, lat: Lattice, t: int, r: int, depth: int, lemma: bool) -> None:
    """Compare `gridcast --json holes` output with the scattered edge depths.

    The union of the holes must be exactly the half-squares at depth r - depth,
    each hole's spur points must be the vertices with three of their four
    half-squares in it, and both densities must match. With `lemma`, the
    pattern is a valid (t,2) broadcast and every depth-2 hole must have one of
    the shapes the paper's hole lemmas allow.
    """
    fields = edge_fields(lat, t, r)
    target = r - depth
    expected = set()
    zero = overlap = 0
    for orient, (dep, cov) in fields.items():
        for idx in range(lat.size):
            if dep[idx] == target:
                i, j = lat.cell(idx)
                expected.add(rot_of_edge(orient, i, j))
            zero += dep[idx] == 0
            overlap += cov[idx] >= 2
    require((payload["t"], payload["r"], payload["hole_depth"]) == (t, r, depth), "echoed spec differs")
    got = set()
    total = 0
    for hole in payload["holes"]:
        cells = {tuple(c) for c in hole["half_squares"]}
        require(hole["size"] == len(cells), "hole size differs from its half-square count")
        require(hole["spur_points"] == _spur_points(lat, cells), "spur points differ")
        require(hole["convex"] == (not hole["spur_points"]), "convexity disagrees with spur points")
        require(hole["infinite"] == (hole["dimensions"][1] is None), "infinite hole has a finite span")
        require(hole["shape_class"] == _shape_class(hole), "shape class does not follow from the hole")
        if lemma:
            require(hole["shape_class"] in HOLE_LEMMA_CLASSES, f"hole lemma violated: {hole['shape_class']}")
        got |= cells
        total += len(cells)
    require(total == len(got), "holes overlap")
    require(got == expected, f"hole half-squares differ: {len(got)} reported, {len(expected)} expected")
    require(payload["hole_density"] == _fraction_dict(zero, 2 * lat.size), "hole density differs")
    require(payload["overlap_density"] == _fraction_dict(overlap, 2 * lat.size), "overlap density differs")


def ascii_render(lat: Lattice, t: int, r: int, window: tuple[int, int, int, int]) -> str:
    """Expected `gridcast render` ASCII output with the default show flags."""
    field = vertex_field(lat, t, r)
    x0, y0, x1, y1 = window
    lines = []
    for y in range(y1, y0 - 1, -1):
        chars = []
        for x in range(x0, x1 + 1):
            if lat.is_tower(x, y):
                chars.append("T")
            else:
                s = field[lat.residue(x, y)]
                chars.append(str(s) if s <= 9 else "+")
        lines.append(" ".join(chars))
    return "\n".join(lines) + "\n"


def check_svg(svg: str, lat: Lattice, t: int, r: int, window: tuple[int, int, int, int], show: frozenset[str]) -> None:
    """Count the SVG's elements against the towers, signals and half-squares in the window."""
    x0, y0, x1, y1 = window
    require(svg.startswith("<svg") and svg.endswith("</svg>"), "not an SVG document")
    in_window = [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)]
    towers = sum(lat.is_tower(x, y) for x, y in in_window)
    require(svg.count("<circle ") == (towers if "towers" in show else 0), "tower count differs")
    if "signal" in show:
        field = vertex_field(lat, t, r)
        texts = [int(s) for s in re.findall(r"<text [^>]*>(-?\d+)</text>", svg)]
        require(texts == [field[lat.residue(x, y)] for x, y in in_window], "signal values differ")
    polygons = 0
    if "halfsquares" in show:
        fields = edge_fields(lat, t, r)
        for x, y in in_window:
            for dep, cov in fields.values():
                idx = lat.residue(x, y)
                polygons += dep[idx] == 0 or cov[idx] >= 2
    if "outlines" in show and t >= 2:
        polygons += sum(
            lat.is_tower(x, y) for y in range(y0 - t, y1 + t + 1) for x in range(x0 - t, x1 + t + 1)
        )
    require(svg.count("<polygon ") == polygons, "polygon count differs")


def classical_domination(m: int, n: int) -> int | None:
    """Domination number of the m x n grid graph, from the published closed forms.

    Returns None outside the shapes those forms cover (min side 1..5).
    """
    m, n = min(m, n), max(m, n)
    if m == 1:
        return math.ceil(n / 3)
    if m == 2:
        return (n + 2) // 2
    if m == 3:
        return (3 * n + 4) // 4
    if m == 4:
        return n + 1 if n in (5, 6, 9) else n
    if m == 5:
        return (6 * n + 6) // 5 if n in (2, 3, 7) else (6 * n + 8) // 5
    return None


def check_oracle(payload: dict, m: int, n: int, t: int, r: int, pinned: int) -> int:
    """Check `gridcast --json oracle` output; return the number of k levels tried."""
    number = payload["number"]
    require((payload["m"], payload["n"], payload["t"], payload["r"]) == (m, n, t, r), "echoed input differs")
    require(number == pinned, f"domination number {number}, pinned {pinned}")
    if (t, r) == (2, 1):
        require(number == classical_domination(m, n), "differs from the classical domination number")
    towers = [tuple(v) for v in payload["witness"]]
    require(len(set(towers)) == len(towers) == number, "witness size differs from the number")
    require(all(0 <= x < n and 0 <= y < m for x, y in towers), "witness tower outside the grid")
    for x in range(n):
        for y in range(m):
            got = sum(min(max(t - abs(x - tx) - abs(y - ty), 0), r) for tx, ty in towers)
            require(got >= r, f"witness leaves ({x},{y}) with signal {got} < {r}")
    k_min = -(-m * n * r // emission_total(t, r))
    return number - k_min + 1
