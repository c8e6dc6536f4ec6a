"""Signal, excess, and per-tower emission under the capped signal model.

`signal_field` computes the signal at every vertex of a fundamental domain
at once by scattering each tower's kernel over the lattice residues.
`total_signal` gathers over the L1 ball around one vertex instead; it and
its wrappers `uncapped_signal` and `signal_at_least` are the tests' oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import add

from gridcast.core import BroadcastSpec, PeriodicPattern, Vertex, contains, l1_distance

# One row of a kernel: (dy, dx, weights) puts weights[k] at offset (dx + k, dy)
# from a tower.
KernelRow = tuple[int, int, list[int]]


def sig_from_tower(v: Vertex, tower: Vertex, spec: BroadcastSpec) -> int:
    """Capped signal v receives from one tower: min(max(t - dist, 0), r)."""
    return min(max(spec.t - l1_distance(v, tower), 0), spec.r)


def l1_ball(center: Vertex, radius: int) -> Iterator[Vertex]:
    """All vertices within Manhattan distance `radius` of center."""
    cx, cy = center
    for dy in range(-radius, radius + 1):
        rem = radius - abs(dy)
        for dx in range(-rem, rem + 1):
            yield (cx + dx, cy + dy)


def towers_near(p: PeriodicPattern, v: Vertex, radius: int) -> list[Vertex]:
    """Towers of p within Manhattan distance `radius` of v."""
    return [w for w in l1_ball(v, radius) if contains(p, w)]


def total_signal(v: Vertex, p: PeriodicPattern, spec: BroadcastSpec) -> int:
    """Sum of capped per-tower signal over all towers (sum itself uncapped)."""
    total = 0
    for tower in towers_near(p, v, spec.t - 1):
        total += sig_from_tower(v, tower, spec)
    return total


def signal_at_least(v: Vertex, p: PeriodicPattern, spec: BroadcastSpec, bound: int) -> bool:
    """True iff total_signal(v, p, spec) >= bound."""
    return total_signal(v, p, spec) >= bound


def uncapped_signal(v: Vertex, p: PeriodicPattern, t: int) -> int:
    """Sum of max(t - dist, 0) over all towers, without the per-tower cap."""
    return total_signal(v, p, BroadcastSpec(t, t))  # no share exceeds t


def scatter(canon: PeriodicPattern, kernel: list[KernelRow]) -> list[int]:
    """Sum the kernel around every tower of canon into one value per residue.

    canon must be canonical (basis {(a,0),(b,c)}). Entry j*a + i of the
    result belongs to domain vertex (i, j), so index order is (y, x) order.
    Lifts of the kernel that land on the same residue add up, which handles
    kernels wider than the domain. Costs O(k * kernel size + |det|).
    """
    a = canon.basis_u[0]
    b, c = canon.basis_v
    field = [0] * (a * c)
    for ox, oy in canon.offsets:
        for dy, dx, weights in kernel:
            y = oy + dy
            j = y % c
            base = j * a
            i = (ox + dx - (y - j) // c * b) % a
            lo = base + i
            hi = lo + len(weights)
            if hi <= base + a:
                field[lo:hi] = map(add, field[lo:hi], weights)
                continue
            for w in weights:  # the row wraps around its residue row
                field[base + i] += w
                i = i + 1 if i + 1 < a else 0
    return field


def _tent(top: int, cap: int) -> list[int]:
    """min(top - |dx|, cap) for dx = -(top-1) .. top-1."""
    m = min(top, cap)
    return [*range(1, m), *[m] * (2 * (top - m) + 1), *range(m - 1, 0, -1)]


def signal_field(canon: PeriodicPattern, t: int, cap: int | None = None) -> list[int]:
    """Total signal at every residue of canonical canon, indexed as by scatter().

    Each tower contributes min(t - dist, cap); cap=None gives the uncapped
    field. Equals total_signal (cap = r) or uncapped_signal (cap None) at the
    domain vertex of each index.
    """
    cap = t if cap is None else cap
    return scatter(canon, [(dy, abs(dy) + 1 - t, _tent(t - abs(dy), cap)) for dy in range(1 - t, t)])


def excess(v: Vertex, p: PeriodicPattern, spec: BroadcastSpec) -> int:
    """Total signal minus required reception; negative when v is underserved."""
    return total_signal(v, p, spec) - spec.r


def emission_total(spec: BroadcastSpec) -> int:
    """Total capped signal one tower emits; equals 2t^2 - 2t + 1 when r = 1.

    There are 4k vertices at distance k >= 1 from the tower, one at k = 0.
    """
    t, r = spec.t, spec.r
    total = min(t, r)
    for k in range(1, t):
        total += 4 * k * min(t - k, r)
    return total
