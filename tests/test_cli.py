import json

import pytest

from gridcast.cli import main
from gridcast.core import (
    BroadcastSpec,
    PeriodicPattern,
    canonicalize,
    contains,
    density,
    standard,
)
from gridcast.parsing import PatternSyntaxError, parse_pattern, serialize_pattern
from gridcast.render import RenderSpec, render


def test_parse_standard():
    p = parse_pattern("standard d=13 e=5")
    assert p == canonicalize(standard(13, 5))


def test_parse_lattice():
    p = parse_pattern("lattice u=(2,2) v=(2,-2) offsets=(0,0)")
    assert p == canonicalize(PeriodicPattern((2, 2), (2, -2)))


def test_parse_multiple_offsets():
    p = parse_pattern("lattice u=(4,0) v=(-2,1) offsets=(0,0);(1,0)")
    assert density(p) * 2 == 1


def test_parse_whitespace_insensitive():
    a = parse_pattern("standard d = 13 e = 5")
    b = parse_pattern("standard d=13 e=5")
    assert a == b


def test_parse_zero_determinant():
    with pytest.raises(ValueError):
        parse_pattern("lattice u=(1,0) v=(1,0) offsets=(0,0)")


def test_parse_syntax_error_has_position():
    with pytest.raises(PatternSyntaxError) as exc:
        parse_pattern("standard d=13 q=5")
    assert exc.value.position >= 0


def test_round_trip():
    for text in [
        "standard d=13 e=5",
        "lattice u=(2,2) v=(2,-2) offsets=(0,0)",
        "lattice u=(4,0) v=(-2,1) offsets=(0,0);(1,0)",
    ]:
        p = parse_pattern(text)
        assert parse_pattern(serialize_pattern(p)) == p


def test_render_ascii_deterministic_and_t_marks():
    rs = RenderSpec(window=(0, 0, 14, 6))
    out1 = render(standard(13, 5), BroadcastSpec(3, 1), rs)
    out2 = render(standard(13, 5), BroadcastSpec(3, 1), rs)
    assert out1 == out2
    # count towers in the window by the residue law
    expected = sum(
        1 for x in range(0, 15) for y in range(0, 7) if (x - 5 * y) % 13 == 0
    )
    assert out1.count("T") == expected


def test_render_ascii_all_signal_at_least_2():
    rs = RenderSpec(window=(0, 0, 8, 4))
    out = render(standard(3, 2), BroadcastSpec(2, 2), rs)
    for ch in out.replace("\n", "").replace(" ", ""):
        assert ch == "T" or (ch.isdigit() and int(ch) >= 2)


def test_render_far_from_towers_is_zero():
    p = PeriodicPattern((100, 0), (0, 100))
    rs = RenderSpec(window=(40, 40, 45, 45))
    out = render(p, BroadcastSpec(3, 1), rs)
    assert set(out.replace("\n", "").replace(" ", "")) == {"0"}


def test_render_tower_count_tracks_density():
    w = 130
    rs = RenderSpec(window=(0, 0, w - 1, w - 1))
    out = render(standard(13, 5), BroadcastSpec(3, 1), rs)
    expected = w * w / 13
    assert abs(out.count("T") - expected) <= w  # one period per window edge


def test_render_svg_contains_elements():
    rs = RenderSpec(window=(0, 0, 6, 6), format="svg", show=frozenset({"towers", "outlines"}))
    out = render(standard(13, 5), BroadcastSpec(3, 1), rs)
    assert out.startswith("<svg")
    assert "<polygon" in out and "<circle" in out
    assert out == render(standard(13, 5), BroadcastSpec(3, 1), rs)


def test_render_rejects_degenerate_window():
    with pytest.raises(ValueError):
        RenderSpec(window=(3, 0, 1, 2))


def test_cli_verify_json(capsys):
    code = main(["--json", "verify", "--pattern", "standard d=13 e=5", "--t", "3", "--r", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "valid": True,
        "t": 3,
        "r": 1,
        "density": {"num": 1, "den": 13},
        "min_total_signal": 1,
        "witness": [0, 0],
        "domain_size": 13,
    }


def test_cli_search_json(capsys):
    code = main(["--json", "search", "--t", "3", "--r", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 13
    assert 5 in payload["valid_e"]


def test_cli_parse_error_exit_code(capsys):
    for text in ("standard d=0 e=1", "lattice u=(3,0) v=(0,1) offsets=(0,0);(3,0)"):
        code = main(["verify", "--pattern", text, "--t", "2", "--r", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err


def test_cli_holes_json(capsys):
    code = main([
        "--json", "holes", "--pattern", "standard d=13 e=5", "--t", "3", "--r", "2",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hole_density"]["num"] > 0
    assert len(payload["holes"]) >= 1


def test_cli_oracle(capsys):
    code = main(["--json", "oracle", "--m", "3", "--n", "3", "--t", "2", "--r", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["number"] == 3


def test_cli_min_t_and_min_signal(capsys):
    assert main(["--json", "min-t", "--pattern", "standard d=13 e=5", "--r", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["min_t"] == 3
    assert main(["--json", "min-signal", "--pattern", "standard d=25 e=7", "--t", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["min_signal"] == 3


def test_cli_table1_csv(tmp_path, capsys):
    out_csv = tmp_path / "table1.csv"
    code = main(["table1", "--csv", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[1].startswith("2,5,")


def test_cli_render_ascii(capsys):
    code = main([
        "render", "--pattern", "standard d=3 e=2", "--t", "2", "--r", "2",
        "--window", "0,0,5,3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "T" in out
