from gridcast.core import BroadcastSpec, standard
from gridcast.search import (
    TABLE1_EXPECTED,
    best_standard,
    d_upper_bound,
    table1_specs,
    valid_e_for,
)
from gridcast.verifier import is_broadcast


def test_d_upper_bound_examples():
    assert d_upper_bound(BroadcastSpec(3, 1)) == 13
    assert d_upper_bound(BroadcastSpec(2, 3)) == 2
    assert d_upper_bound(BroadcastSpec(3, 2)) == 9


def test_best_standard_31():
    result = best_standard(BroadcastSpec(3, 1))
    assert result.d == 13
    assert 5 in result.valid_e
    assert result.d_bound == 13


def test_best_standard_55():
    result = best_standard(BroadcastSpec(5, 5))
    assert result.d == 14
    assert 4 in result.valid_e


def test_best_standard_67():
    result = best_standard(BroadcastSpec(6, 7))
    assert result.d == 19
    assert 7 in result.valid_e


def test_best_standard_23_degenerate():
    # no standard (2,3) broadcast beats the all-towers pattern
    result = best_standard(BroadcastSpec(2, 3))
    assert result.d == 1
    assert result.d_bound == 2
    assert not is_broadcast(standard(2, 0), BroadcastSpec(2, 3))
    assert not is_broadcast(standard(2, 1), BroadcastSpec(2, 3))


def test_valid_e_mirror_closure():
    for d, spec in [(13, BroadcastSpec(3, 1)), (8, BroadcastSpec(4, 5)), (9, BroadcastSpec(3, 2))]:
        es = set(valid_e_for(d, spec))
        assert es == {(d - e) % d for e in es}


def test_mirror_flag_matches_full_scan():
    # valid_e_for tests only e <= d/2 and mirrors the rest; a plain scan of every e agrees
    for d, spec in [(13, BroadcastSpec(3, 1)), (9, BroadcastSpec(3, 2)), (14, BroadcastSpec(5, 5))]:
        full = tuple(e for e in range(d) if is_broadcast(standard(d, e), spec))
        assert valid_e_for(d, spec) == full


def test_every_published_cell_verifies():
    for t, cells in TABLE1_EXPECTED.items():
        for spec, (d, e) in zip(table1_specs(t), cells):
            assert is_broadcast(standard(d, e), spec), (t, spec, d, e)


def test_best_standard_r1_closed_form_small():
    for t in (2, 3):
        result = best_standard(BroadcastSpec(t, 1))
        assert result.d == 2 * t * t - 2 * t + 1


def test_nothing_better_than_published_above_d():
    # spot check: no standard (4,5) broadcast exists for d between 9 and the bound
    spec = BroadcastSpec(4, 5)
    result = best_standard(spec)
    assert result.d == 8
    for d in range(9, result.d_bound + 1):
        assert valid_e_for(d, spec) == ()
