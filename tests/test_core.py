import random
from fractions import Fraction

import pytest

from conftest import random_pattern, random_unimodular, transform_basis
from gridcast.core import (
    PeriodicPattern,
    canonicalize,
    contains,
    density,
    fundamental_domain,
    l1_distance,
    same_pattern,
    standard,
)


def window(x_range, y_range):
    return [(x, y) for x in x_range for y in y_range]


def test_l1_distance():
    assert l1_distance((0, 0), (0, 0)) == 0
    assert l1_distance((0, 0), (1, 1)) == 2
    assert l1_distance((2, 5), (6, 2)) == 7


def test_standard_membership_examples():
    p = standard(13, 5)
    assert contains(p, (3, -2))
    assert contains(p, (2, 3))
    assert not contains(p, (3, 1))
    assert contains(p, (5, 1))


def test_standard_all_vertices():
    p = standard(1, 0)
    assert all(contains(p, v) for v in window(range(-3, 4), range(-3, 4)))


def test_standard_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        standard(0, 1)


def test_lattice_membership_parity():
    p = PeriodicPattern((2, 2), (2, -2))
    assert not contains(p, (1, 0))
    assert contains(p, (0, 0))
    assert contains(p, (4, 0))


def test_density_examples():
    assert density(standard(13, 5)) == Fraction(1, 13)
    assert density(standard(3, 2)) == Fraction(1, 3)
    assert density(PeriodicPattern((2, 2), (2, -2))) == Fraction(1, 8)
    assert density(PeriodicPattern((4, 0), (-2, 1), ((0, 0), (1, 0)))) == Fraction(1, 2)


def test_zero_determinant_rejected():
    with pytest.raises(ValueError):
        PeriodicPattern((1, 0), (1, 0))


def test_canonicalize_fixed_point_and_swap():
    p = PeriodicPattern((13, 0), (5, 1))
    assert canonicalize(p) == p
    swapped = PeriodicPattern((5, 1), (13, 0))
    assert canonicalize(swapped) == p


def test_canonicalize_column_reduction():
    # Derived: reduce the second generator mod the first, then confirm by
    # brute-force membership comparison on a 30x30 window.
    p = PeriodicPattern((18, 1), (13, 0))
    canon = canonicalize(p)
    assert canon == PeriodicPattern((13, 0), (5, 1))
    for v in window(range(-15, 15), range(-15, 15)):
        assert contains(p, v) == contains(canon, v)


def test_fundamental_domain_sizes():
    assert len(fundamental_domain(standard(3, 2))) == 3
    assert len(fundamental_domain(standard(13, 5))) == 13
    assert len(fundamental_domain(PeriodicPattern((2, 2), (2, -2)))) == 8


def test_fundamental_domain_covers_all_classes():
    p = PeriodicPattern((2, 2), (2, -2))
    domain = fundamental_domain(p)
    # each domain vertex hits a distinct class: shifting p to each one covers a window
    shifted = [PeriodicPattern(p.basis_u, p.basis_v, (o,)) for o in domain]
    for v in window(range(-4, 5), range(-4, 5)):
        assert sum(contains(s, v) for s in shifted) == 1


def test_periodicity_randomized():
    rng = random.Random(20260823)
    for _ in range(50):
        p = random_pattern(rng)
        v = (rng.randint(-10, 10), rng.randint(-10, 10))
        for b in (p.basis_u, p.basis_v):
            assert contains(p, v) == contains(p, (v[0] + b[0], v[1] + b[1]))


def test_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(50):
        p = random_pattern(rng)
        q = transform_basis(p, random_unimodular(rng))
        assert density(p) == density(q)
        assert canonicalize(p) == canonicalize(q)
        for v in window(range(-5, 6), range(-5, 6)):
            assert contains(p, v) == contains(q, v)


def test_standard_residue_law():
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randint(1, 100)
        e = rng.randint(-200, 200)
        p = standard(d, e)
        for v in window(range(-6, 7), range(-6, 7)):
            assert contains(p, v) == ((v[0] - e * v[1]) % d == 0)


def test_lattice_span_law():
    # both generators belong to the optimal-(t,1) pattern, and every member
    # of a window is an integer combination of them
    for t in range(1, 11):
        d = 2 * t * t - 2 * t + 1
        p = standard(d, 2 * t - 1)
        assert contains(p, (t, 1 - t))
        assert contains(p, (t - 1, t))
        for v in window(range(-3 * d, 3 * d, max(1, d // 4)), range(-6, 7)):
            if contains(p, v):
                # solve a*(t,1-t) + b*(t-1,t) = v; det = 2t^2-2t+1 = d
                num_a = v[0] * t - v[1] * (t - 1)
                num_b = t * v[1] - (1 - t) * v[0]
                assert num_a % d == 0 and num_b % d == 0


def test_mirror_symmetry():
    for d, e in [(13, 5), (7, 3), (10, 4), (5, 0)]:
        p = standard(d, e)
        q = standard(d, d - e)
        for x, y in window(range(-12, 13), range(-5, 6)):
            assert contains(p, (-x, y)) == contains(q, (x, y))


def test_density_inverse_d():
    for d in range(1, 30):
        assert density(standard(d, d // 2)) == Fraction(1, d)


def test_same_pattern():
    assert same_pattern(standard(13, 5), PeriodicPattern((18, 1), (13, 0)))
    assert not same_pattern(standard(13, 5), standard(13, 6))


def test_duplicate_offsets_rejected():
    with pytest.raises(ValueError):
        PeriodicPattern((3, 0), (0, 3), ((0, 0), (3, 0)))


def test_lattice_equivalent_offsets_cannot_inflate_density():
    # (3,0) is a lattice vector, so both offsets name the one tower class of
    # density 1/3; accepting them made density() report 2/3
    with pytest.raises(ValueError):
        density(PeriodicPattern((3, 0), (0, 1), ((0, 0), (3, 0))))
    # equivalent only through a skew basis vector
    with pytest.raises(ValueError):
        PeriodicPattern((4, 0), (-2, 1), ((0, 0), (2, -1)))
    assert density(PeriodicPattern((3, 0), (0, 1), ((0, 0), (2, 0)))) == Fraction(2, 3)
