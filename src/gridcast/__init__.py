"""(t,r) broadcast domination on the infinite grid.

Periodic tower patterns, exact rational densities, broadcast verification,
exhaustive best-standard-broadcast search, half-square hole analysis, and a
finite-grid brute-force oracle.
"""

from gridcast.core import (
    BroadcastSpec,
    PeriodicPattern,
    Vertex,
    canonicalize,
    contains,
    density,
    fundamental_domain,
    l1_distance,
    same_pattern,
    standard,
    translate,
)
from gridcast.finite import DominationResult, FiniteGrid, domination_number, verify_finite
from gridcast.halfsquares import (
    DepthMap,
    Hole,
    HoleReport,
    classify_hole,
    depth_map,
    find_holes,
    hole_overlap_densities,
    hole_summary,
)
from gridcast.parsing import PatternSyntaxError, parse_pattern, serialize_pattern
from gridcast.render import RenderSpec, render
from gridcast.search import (
    BestStandardResult,
    all_valid_standard,
    best_standard,
    d_upper_bound,
    reproduce_table1,
    table1_matches,
)
from gridcast.signal import emission_total, excess, sig_from_tower, signal_field, total_signal
from gridcast.verifier import (
    UpgradeCheck,
    VerificationReport,
    is_broadcast,
    min_signal,
    min_t,
    upgrade_check,
    verify,
)

__all__ = [
    "BroadcastSpec",
    "PeriodicPattern",
    "Vertex",
    "canonicalize",
    "contains",
    "density",
    "fundamental_domain",
    "l1_distance",
    "same_pattern",
    "standard",
    "translate",
    "DominationResult",
    "FiniteGrid",
    "domination_number",
    "verify_finite",
    "DepthMap",
    "Hole",
    "HoleReport",
    "classify_hole",
    "depth_map",
    "find_holes",
    "hole_overlap_densities",
    "hole_summary",
    "PatternSyntaxError",
    "parse_pattern",
    "serialize_pattern",
    "RenderSpec",
    "render",
    "BestStandardResult",
    "all_valid_standard",
    "best_standard",
    "d_upper_bound",
    "reproduce_table1",
    "table1_matches",
    "emission_total",
    "excess",
    "sig_from_tower",
    "signal_field",
    "total_signal",
    "UpgradeCheck",
    "VerificationReport",
    "is_broadcast",
    "min_signal",
    "min_t",
    "upgrade_check",
    "verify",
]
