"""Exhaustive search for the best (largest-d) standard (t,r) broadcast.

The search ceiling is provable, not heuristic: any (t,r) broadcast has
density at least r / emission_total, so a standard broadcast needs
d <= emission_total / r. Scanning d downward from that bound certifies
that the returned d is globally maximal among standard patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from gridcast.core import BroadcastSpec, standard
from gridcast.signal import emission_total
from gridcast.verifier import is_broadcast


@dataclass(frozen=True)
class BestStandardResult:
    spec: BroadcastSpec
    d: int
    valid_e: tuple[int, ...]  # every e in [0, d) making standard(d, e) valid
    d_bound: int

    def to_dict(self) -> dict:
        return {
            "t": self.spec.t,
            "r": self.spec.r,
            "d": self.d,
            "valid_e": list(self.valid_e),
            "d_bound": self.d_bound,
        }


def d_upper_bound(spec: BroadcastSpec) -> int:
    """Largest d any standard (t,r) broadcast can have."""
    return emission_total(spec) // spec.r


def valid_e_for(d: int, spec: BroadcastSpec) -> tuple[int, ...]:
    """All e in [0, d) such that standard(d, e) is a (t,r) broadcast.

    Only e <= d/2 are tested. The reflection x -> -x maps standard(d, e) onto
    standard(d, d - e), so the rest are their mirror images.
    """
    found = {e for e in range(d // 2 + 1) if is_broadcast(standard(d, e), spec)}
    return tuple(sorted(found | {(d - e) % d for e in found}))


def best_standard(spec: BroadcastSpec, d_max: int | None = None) -> BestStandardResult:
    """Scan d downward from the emission bound; return the first d that works.

    If no d in [1, bound] admits a valid e (possible when the emission bound
    itself is 0), the result carries d = 0 and an empty valid_e.
    """
    bound = d_upper_bound(spec)
    if d_max is not None:
        bound = min(bound, d_max)
    for d in range(bound, 0, -1):
        valid_e = valid_e_for(d, spec)
        if valid_e:
            return BestStandardResult(spec=spec, d=d, valid_e=valid_e, d_bound=bound)
    return BestStandardResult(spec=spec, d=0, valid_e=(), d_bound=bound)


def all_valid_standard(spec: BroadcastSpec, d_max: int | None = None) -> list[tuple[int, int]]:
    """Every (d, e) with d <= bound whose standard pattern is a valid broadcast."""
    bound = d_upper_bound(spec)
    if d_max is not None:
        bound = min(bound, d_max)
    out = []
    for d in range(1, bound + 1):
        for e in valid_e_for(d, spec):
            out.append((d, e))
    return out


# Published reference values: one (d, e) cell per column, rows t = 2..6.
# Columns: optimal (t,1); best standard (t+1,3); (t+2,5); (t+3,7).
TABLE1_EXPECTED: dict[int, tuple[tuple[int, int], ...]] = {
    2: ((5, 3), (5, 3), (8, 2), (11, 2)),
    3: ((13, 5), (13, 5), (14, 4), (19, 7)),
    4: ((25, 7), (25, 7), (26, 10), (29, 12)),
    5: ((41, 9), (41, 9), (42, 16), (43, 12)),
    6: ((61, 11), (61, 11), (62, 26), (65, 18)),
}

TABLE1_ROWS = tuple(sorted(TABLE1_EXPECTED))


def table1_specs(t: int) -> tuple[BroadcastSpec, ...]:
    return (
        BroadcastSpec(t, 1),
        BroadcastSpec(t + 1, 3),
        BroadcastSpec(t + 2, 5),
        BroadcastSpec(t + 3, 7),
    )


@dataclass(frozen=True)
class Table1Row:
    t: int
    cells: tuple[BestStandardResult, ...]  # 4 columns

    @property
    def d_values(self) -> tuple[int, ...]:
        return tuple(c.d for c in self.cells)

    @property
    def representative_e(self) -> tuple[int, ...]:
        return tuple(min(c.valid_e) for c in self.cells)


def reproduce_table1() -> list[Table1Row]:
    """Recompute every cell of the published table by exhaustive search.

    Column 1 is also pinned by the closed form d = 2t^2 - 2t + 1, which the
    search must reproduce.
    """
    rows = []
    for t in TABLE1_ROWS:
        cells = tuple(best_standard(spec) for spec in table1_specs(t))
        closed_form = 2 * t * t - 2 * t + 1
        if cells[0].d != closed_form:
            raise AssertionError(
                f"search found best standard ({t},1) at d={cells[0].d}, closed form says {closed_form}"
            )
        rows.append(Table1Row(t=t, cells=cells))
    return rows


def table1_matches(rows: list[Table1Row]) -> bool:
    """True iff every recomputed cell agrees with the reference values.

    A cell matches when its d is the reference d and the reference e is
    among the valid e values (the reference lists one e per cell without
    stating a selection rule).
    """
    for row in rows:
        expected = TABLE1_EXPECTED[row.t]
        for cell, (d_exp, e_exp) in zip(row.cells, expected):
            if cell.d != d_exp or e_exp not in cell.valid_e:
                return False
    return True
