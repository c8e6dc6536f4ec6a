"""Integer-lattice geometry: vertices, periodic tower patterns, densities.

All arithmetic is exact (Python integers and Fractions); no floats appear
anywhere in membership or density computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Vertex = tuple[int, int]


def l1_distance(a: Vertex, b: Vertex) -> int:
    """Manhattan distance; equals graph distance on the full grid."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class BroadcastSpec:
    """Tower signal strength t and required reception r, both >= 1."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"signal strength t must be >= 1, got {self.t}")
        if self.r < 1:
            raise ValueError(f"required reception r must be >= 1, got {self.r}")


@dataclass(frozen=True)
class PeriodicPattern:
    """A periodic tower set: an integer lattice basis plus offset cosets.

    The vertex set is { a*basis_u + b*basis_v + o : a, b in Z, o in offsets }.
    The basis may be any pair of integer vectors with nonzero determinant;
    use canonicalize() to obtain the unique triangular representative.
    Offsets must be pairwise inequivalent modulo the lattice, so that
    density() counts each tower class once.
    """

    basis_u: Vertex
    basis_v: Vertex
    offsets: tuple[Vertex, ...] = ((0, 0),)

    def __post_init__(self) -> None:
        if self.det == 0:
            raise ValueError("lattice basis has zero determinant")
        if not self.offsets:
            raise ValueError("pattern needs at least one offset")
        if len(self.offsets) > 1 and len(_triangular_form(self)[3]) != len(self.offsets):
            raise ValueError("offsets are not pairwise inequivalent modulo the lattice")

    @property
    def det(self) -> int:
        ux, uy = self.basis_u
        vx, vy = self.basis_v
        return ux * vy - uy * vx


def standard(d: int, e: int) -> PeriodicPattern:
    """The one-tower-per-row pattern {(d*x + e*y, y)}, stored with e mod d.

    Membership satisfies (x, y) in standard(d, e) iff x == e*y (mod d).
    """
    if d < 1:
        raise ValueError(f"horizontal period d must be >= 1, got {d}")
    return PeriodicPattern((d, 0), (e % d, 1))


def contains(p: PeriodicPattern, v: Vertex) -> bool:
    """Exact membership test: v - o in the lattice for some offset o."""
    ux, uy = p.basis_u
    vx, vy = p.basis_v
    d = p.det
    for ox, oy in p.offsets:
        wx = v[0] - ox
        wy = v[1] - oy
        # Cramer solve of a*basis_u + b*basis_v = w over the integers.
        if (wx * vy - wy * vx) % d == 0 and (ux * wy - uy * wx) % d == 0:
            return True
    return False


def density(p: PeriodicPattern) -> Fraction:
    """Proportion of grid vertices that are towers, in lowest terms."""
    return Fraction(len(p.offsets), abs(p.det))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _triangular_form(p: PeriodicPattern) -> tuple[int, int, int, set[Vertex]]:
    """(a, b, c, reduced offsets) for the lattice basis {(a,0),(b,c)}, a,c > 0, 0 <= b < a.

    Each offset is reduced into the box [0, a) x [0, c), so two offsets are
    equivalent modulo the lattice iff they reduce to the same point.
    """
    ux, uy = p.basis_u
    vx, vy = p.basis_v
    c, s, t = _ext_gcd(uy, vy)
    a = abs(p.det) // c
    b = (s * ux + t * vx) % a
    reduced = set()
    for x, y in p.offsets:
        j = y % c
        k = (y - j) // c
        reduced.add(((x - k * b) % a, j))
    return a, b, c, reduced


def canonicalize(p: PeriodicPattern) -> PeriodicPattern:
    """Unique representative: basis {(a,0),(b,c)} with a,c > 0, 0 <= b < a.

    Offsets are reduced into the fundamental domain and sorted by (y, x).
    Two patterns describing the same vertex set canonicalize identically.
    """
    a, b, c, reduced = _triangular_form(p)
    offsets = tuple(sorted(reduced, key=lambda o: (o[1], o[0])))
    return PeriodicPattern((a, 0), (b, c), offsets)


def fundamental_domain(p: PeriodicPattern) -> list[Vertex]:
    """One vertex per lattice residue class, |det| in total (column-major)."""
    canon = canonicalize(p)
    a = canon.basis_u[0]
    c = canon.basis_v[1]
    return [(i, j) for i in range(a) for j in range(c)]


def reduce_vertex(p: PeriodicPattern, v: Vertex) -> Vertex:
    """Map v to its representative in the canonical fundamental domain.

    p must already be canonical (basis {(a,0),(b,c)}).
    """
    a = p.basis_u[0]
    b, c = p.basis_v
    j = v[1] % c
    k = (v[1] - j) // c
    i = (v[0] - k * b) % a
    return (i, j)


def translate(p: PeriodicPattern, w: Vertex) -> PeriodicPattern:
    """The pattern shifted by the integer vector w."""
    offsets = tuple((ox + w[0], oy + w[1]) for ox, oy in p.offsets)
    return PeriodicPattern(p.basis_u, p.basis_v, offsets)


def same_pattern(p: PeriodicPattern, q: PeriodicPattern) -> bool:
    """True iff p and q describe the same vertex set."""
    return canonicalize(p) == canonicalize(q)
