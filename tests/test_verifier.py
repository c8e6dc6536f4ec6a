import random
from fractions import Fraction

from conftest import random_pattern, random_spec, random_unimodular, transform_basis
from gridcast.core import BroadcastSpec, PeriodicPattern, canonicalize, fundamental_domain, standard
from gridcast.signal import total_signal, uncapped_signal
from gridcast.verifier import is_broadcast, min_signal, min_t, upgrade_check, verify


def tiling(t):
    """Broadcast-outline tiling lattice for (t,2); density 1/(2(t-1)^2)."""
    return PeriodicPattern((t - 1, t - 1), (t - 1, -(t - 1)))


def test_verify_optimal_31():
    report = verify(standard(13, 5), BroadcastSpec(3, 1))
    assert report.valid
    assert report.density == Fraction(1, 13)
    assert report.domain_size == 13


def test_verify_degenerate_22():
    report = verify(standard(3, 2), BroadcastSpec(2, 2))
    assert report.valid
    assert report.min_total_signal == 2


def test_verify_23_construction():
    p = PeriodicPattern((4, 0), (-2, 1), ((0, 0), (1, 0)))
    report = verify(p, BroadcastSpec(2, 3))
    assert report.valid
    assert report.density == Fraction(1, 2)


def test_verify_invalid_with_witness():
    report = verify(standard(13, 5), BroadcastSpec(2, 1))
    assert not report.valid
    assert total_signal(report.witness, standard(13, 5), BroadcastSpec(2, 1)) < 1


def test_witness_is_lex_least_minimizer():
    p = standard(13, 5)
    spec = BroadcastSpec(2, 1)
    report = verify(p, spec)
    sigs = {v: total_signal(v, p, spec) for v in fundamental_domain(p)}
    best = min(sigs.values())
    expected = min((v for v, s in sigs.items() if s == best), key=lambda v: (v[1], v[0]))
    assert report.witness == expected
    assert report.min_total_signal == best


def test_min_signal_examples():
    assert min_signal(standard(3, 2), 2) == 2
    assert min_signal(standard(25, 7), 5) == 3
    assert min_signal(standard(13, 5), 3) == 1


def test_min_t_examples():
    assert min_t(standard(3, 2), 2, 10) == 2
    assert min_t(standard(13, 5), 1, 10) == 3
    assert min_t(standard(1, 0), 1, 10) == 1


def test_min_t_absent():
    assert min_t(standard(13, 5), 2, 2) is None


def test_upgrade_check():
    for t0, flagged in [(3, True), (4, True), (6, True), (2, False)]:
        result = upgrade_check(t0)
        assert result.in_theorem_range == flagged
        if flagged:
            assert result.report.valid


def test_closed_form_r1():
    for t in range(1, 9):
        d = 2 * t * t - 2 * t + 1
        report = verify(standard(d, 2 * t - 1), BroadcastSpec(t, 1))
        assert report.valid
        assert report.density == Fraction(1, d)


def test_closed_form_r2_tiling():
    for t in range(3, 9):
        report = verify(tiling(t), BroadcastSpec(t, 2))
        assert report.valid
        assert report.density == Fraction(1, 2 * (t - 1) ** 2)


def test_monotonicity_in_t_and_r():
    rng = random.Random(29)
    checked = 0
    while checked < 15:
        p = random_pattern(rng)
        spec = random_spec(rng, t_max=4, r_max=3)
        if not is_broadcast(p, spec):
            continue
        checked += 1
        assert is_broadcast(p, BroadcastSpec(spec.t + 1, spec.r))
        if spec.r > 1:
            assert is_broadcast(p, BroadcastSpec(spec.t, spec.r - 1))


def test_min_t_consistent_with_verify():
    rng = random.Random(31)
    for _ in range(20):
        p = random_pattern(rng)
        r = rng.randint(1, 3)
        result = min_t(p, r, 8)
        if result is None:
            assert not is_broadcast(p, BroadcastSpec(8, r))
        else:
            assert is_broadcast(p, BroadcastSpec(result, r))
            if result > 1:
                assert not is_broadcast(p, BroadcastSpec(result - 1, r))


def test_min_signal_threshold_equivalence():
    rng = random.Random(37)
    for _ in range(20):
        p = random_pattern(rng)
        t = rng.randint(1, 4)
        ms = min_signal(p, t)
        for r in range(1, 5):
            assert (ms >= r) == is_broadcast(p, BroadcastSpec(t, r))


def test_window_agreement():
    # domain minimum equals the minimum over a full 3x3-period window
    rng = random.Random(41)
    for _ in range(10):
        p = random_pattern(rng, max_entry=4)
        spec = random_spec(rng, t_max=3, r_max=3)
        report = verify(p, spec)
        a = p.basis_u[0] + abs(p.basis_v[0]) + 1
        c = p.basis_v[1]
        window_min = min(
            total_signal((x, y), p, spec)
            for x in range(-a, 2 * a)
            for y in range(-c, 2 * c)
        )
        assert report.min_total_signal == window_min


def test_field_matches_gather_randomized():
    # verify, is_broadcast and min_signal read one residue scatter; the oracle
    # gathers over every domain vertex. Thin domains (a = 1 or c = 1) with
    # t > a, c make one tower's kernel wrap onto a residue several times.
    rng = random.Random(43)
    thin = [
        PeriodicPattern((1, 0), (0, 5), ((0, 0), (0, 2))),
        PeriodicPattern((7, 0), (3, 1), ((0, 0), (4, 0))),
        PeriodicPattern((1, 0), (0, 3)),
    ]
    cases = [(p, BroadcastSpec(rng.randint(6, 8), rng.randint(1, 5))) for p in thin]
    for _ in range(30):
        p = random_pattern(rng, max_entry=5, max_offsets=4)
        cases.append((p, random_spec(rng, t_max=7, r_max=5)))
    cases = [(transform_basis(p, random_unimodular(rng)), spec) for p, spec in cases] + cases
    for p, spec in cases:
        canon = canonicalize(p)
        sigs = {v: total_signal(v, canon, spec) for v in fundamental_domain(canon)}
        low = min(sigs.values())
        witness = min((v for v, s in sigs.items() if s == low), key=lambda v: (v[1], v[0]))
        report = verify(p, spec)
        assert (report.min_total_signal, report.witness, report.domain_size) == (low, witness, len(sigs))
        assert report.valid == is_broadcast(p, spec) == (low >= spec.r)
        assert min_signal(p, spec.t) == min(uncapped_signal(v, canon, spec.t) for v in sigs)
