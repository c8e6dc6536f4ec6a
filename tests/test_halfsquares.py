import random
from fractions import Fraction

import pytest

from conftest import random_pattern, random_spec
from gridcast.core import BroadcastSpec, PeriodicPattern, contains, standard
from gridcast.halfsquares import (
    depth_map,
    edge_of_rot,
    endpoints_of_rot,
    find_holes,
    hole_overlap_densities,
    hole_summary,
    incident_halfsquares,
    reduce_halfsquare,
    rot_of_edge,
)
from gridcast.signal import sig_from_tower


def tiling(t):
    return PeriodicPattern((t - 1, t - 1), (t - 1, -(t - 1)))


def punctured(period, removed):
    """All-towers pattern with `removed` vertices deleted from each period."""
    offs = tuple(
        (x, y) for x in range(period) for y in range(period) if (x, y) not in removed
    )
    return PeriodicPattern((period, 0), (0, period), offs)


def brute_edge_depth(p, u, v, spec):
    # independent oracle: rectangle scan around u, capped signal formula;
    # returns (depth, number of towers reaching both endpoints)
    depth = 0
    count = 0
    for x in range(u[0] - spec.t - 1, u[0] + spec.t + 2):
        for y in range(u[1] - spec.t - 1, u[1] + spec.t + 2):
            if contains(p, (x, y)):
                share = min(sig_from_tower(u, (x, y), spec), sig_from_tower(v, (x, y), spec))
                depth += share
                count += share > 0
    return depth, count


def test_rot_coordinate_round_trip():
    for x in range(-4, 5):
        for y in range(-4, 5):
            for orient in ("h", "v"):
                c = rot_of_edge(orient, x, y)
                assert edge_of_rot(c) == (orient, x, y)


def test_rot_adjacency_is_halfsquare_adjacency():
    # the four rotated-lattice neighbors of a horizontal half-square are the
    # vertical half-squares sharing one of its rotated edges
    i, j = rot_of_edge("h", 2, 3)
    neighbors = {(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)}
    expected = {
        rot_of_edge("v", 2, 3),
        rot_of_edge("v", 3, 3),
        rot_of_edge("v", 2, 2),
        rot_of_edge("v", 3, 2),
    }
    assert neighbors == expected


def test_incident_halfsquares():
    v = (3, 1)
    expected = {
        rot_of_edge("h", 3, 1),
        rot_of_edge("h", 2, 1),
        rot_of_edge("v", 3, 1),
        rot_of_edge("v", 3, 0),
    }
    assert set(incident_halfsquares(v)) == expected
    for c in incident_halfsquares(v):
        assert v in endpoints_of_rot(c)


def test_single_tower_depth():
    p = PeriodicPattern((50, 0), (0, 50))
    dm = depth_map(p, BroadcastSpec(3, 2))
    assert dm.depth[rot_of_edge("h", 0, 0)] == 2
    assert dm.cover_count[rot_of_edge("h", 0, 0)] == 1
    assert dm.depth[rot_of_edge("h", 20, 20)] == 0


def test_tiling_has_no_holes_or_overlaps():
    for t in (3, 4, 5):
        spec = BroadcastSpec(t, 2)
        assert hole_overlap_densities(tiling(t), spec) == (0, 0)
        assert find_holes(tiling(t), spec, 2).holes == ()


def test_sparse_standard_has_holes():
    spec = BroadcastSpec(3, 2)
    dm = depth_map(standard(13, 5), spec)
    assert min(dm.depth.values()) == 0
    hole_d, _ = hole_overlap_densities(standard(13, 5), spec)
    assert hole_d > 0
    assert len(find_holes(standard(13, 5), spec, 2).holes) >= 1


def test_all_towers_saturates():
    assert find_holes(standard(1, 0), BroadcastSpec(2, 2), 2).holes == ()
    hole_d, overlap_d = hole_overlap_densities(standard(1, 0), BroadcastSpec(3, 2))
    assert hole_d == 0
    assert overlap_d == 1


def test_hole_depth_range_validated():
    with pytest.raises(ValueError):
        find_holes(standard(3, 2), BroadcastSpec(2, 2), 3)


def test_2x2_hole():
    # leave the four corners of one unit square untowered (t=2: an edge is
    # covered iff an endpoint is a tower) -> the four half-squares of that
    # square form the possible 2x2 hole
    p = punctured(5, {(0, 0), (1, 0), (0, 1), (1, 1)})
    report = find_holes(p, BroadcastSpec(2, 2), 2)
    assert len(report.holes) == 1
    hole = report.holes[0]
    assert hole.size == 4
    assert hole.dimensions == (2, 2)
    assert hole.convex
    assert not hole.infinite
    assert hole.shape_class == "2x2"


def test_single_halfsquare_hole():
    p = punctured(5, {(0, 0), (0, 1)})
    report = find_holes(p, BroadcastSpec(2, 2), 2)
    assert len(report.holes) == 1
    hole = report.holes[0]
    assert hole.size == 1
    assert hole.dimensions == (1, 1)
    assert hole.convex
    assert hole.shape_class == "1xN"


def test_1x2_hole():
    p = punctured(5, {(0, 0), (0, 1), (1, 1)})
    report = find_holes(p, BroadcastSpec(2, 2), 2)
    assert len(report.holes) == 1
    hole = report.holes[0]
    assert hole.size == 2
    assert hole.dimensions == (1, 2)
    assert hole.shape_class == "1xN"


def test_l_shaped_hole_has_spur_point():
    p = punctured(5, {(0, 0), (0, 1), (1, 1), (4, 1)})  # (4,1) is (-1,1) mod 5
    report = find_holes(p, BroadcastSpec(2, 2), 2)
    assert len(report.holes) == 1
    hole = report.holes[0]
    assert hole.size == 3
    assert not hole.convex
    assert hole.shape_class == "other"
    assert (0, 1) in hole.spur_points


def test_infinite_strip_hole():
    # towers on diagonals (y - x) mod 5 in {2, 3, 4}; the two untowered
    # diagonals leave a width-1 infinite strip of uncovered half-squares
    p = PeriodicPattern((1, 1), (0, 5), ((0, 2), (0, 3), (0, 4)))
    report = find_holes(p, BroadcastSpec(2, 2), 2)
    assert len(report.holes) == 1
    hole = report.holes[0]
    assert hole.infinite
    assert hole.convex
    assert hole.dimensions == (1, None)
    assert hole.shape_class == "1xInf"


def test_depth_identity_randomized():
    # t up to 6 exceeds most domain widths, so one tower's kernel wraps onto
    # the same edge residue several times
    rng = random.Random(53)
    for _ in range(25):
        p = random_pattern(rng, max_entry=4)
        spec = random_spec(rng, t_max=6, r_max=3)
        dm = depth_map(p, spec)
        assert len(dm.depth) == len(dm.cover_count) == 2 * abs(p.det)
        for key in dm.depth:
            u, v = endpoints_of_rot(key)
            assert (dm.depth[key], dm.cover_count[key]) == brute_edge_depth(dm.pattern, u, v, spec)


def test_hole_density_matches_depth_zero_count():
    rng = random.Random(59)
    for _ in range(10):
        p = random_pattern(rng, max_entry=4)
        spec = random_spec(rng, t_max=3, r_max=3)
        dm = depth_map(p, spec)
        hole_d, _ = hole_overlap_densities(p, spec)
        zero = sum(1 for d in dm.depth.values() if d == 0)
        assert hole_d == Fraction(zero, len(dm.depth))
        if spec.r >= 1:
            report = find_holes(p, spec, spec.r)
            assert sum(h.size for h in report.holes) == zero
            assert hole_summary(p, spec, spec.r) == (report, *hole_overlap_densities(p, spec))


def test_wraparound_doubling_invariance():
    rng = random.Random(61)
    for _ in range(8):
        p = random_pattern(rng, max_entry=4)
        spec = random_spec(rng, t_max=3, r_max=2)
        doubled_offsets = []
        for dx, dy in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            shift = (
                dx * p.basis_u[0] + dy * p.basis_v[0],
                dx * p.basis_u[1] + dy * p.basis_v[1],
            )
            for ox, oy in p.offsets:
                doubled_offsets.append((ox + shift[0], oy + shift[1]))
        doubled = PeriodicPattern(
            (2 * p.basis_u[0], 2 * p.basis_u[1]),
            (2 * p.basis_v[0], 2 * p.basis_v[1]),
            tuple(doubled_offsets),
        )
        assert hole_overlap_densities(p, spec) == hole_overlap_densities(doubled, spec)


def test_reduce_halfsquare_stays_in_domain():
    p = standard(13, 5)
    dm = depth_map(p, BroadcastSpec(3, 2))
    for i in range(-10, 10):
        for j in range(-10, 10):
            assert reduce_halfsquare(dm.pattern, (i, j)) in dm.depth
