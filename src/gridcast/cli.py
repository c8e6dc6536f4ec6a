"""Command-line front end: verify, search, table1, holes, oracle, min-t,
min-signal, render.

Exit codes: 0 success; 1 table1 disagreement with the built-in expected
values; 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from gridcast.core import BroadcastSpec
from gridcast.finite import FiniteGrid, domination_number
from gridcast.halfsquares import hole_summary
from gridcast.parsing import PatternSyntaxError, parse_pattern, serialize_pattern
from gridcast.render import DEFAULT_SHOW, RenderSpec, render
from gridcast.search import (
    TABLE1_EXPECTED,
    best_standard,
    reproduce_table1,
    table1_matches,
)
from gridcast.verifier import min_signal, min_t, verify

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridcast", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check whether a pattern is a (t,r) broadcast")
    p.add_argument("--pattern", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("search", help="best (largest-d) standard (t,r) broadcast")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d-max", type=int, default=None)

    p = sub.add_parser("table1", help="reproduce the published best-standard table")
    p.add_argument("--csv", metavar="PATH", default=None)

    p = sub.add_parser("holes", help="half-square hole analysis of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--depth", type=int, default=None, help="hole depth (default: r)")

    p = sub.add_parser("oracle", help="brute-force domination number on a finite grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("min-t", help="minimum t making the pattern a (t,r) broadcast")
    p.add_argument("--pattern", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t-max", type=int, default=64)

    p = sub.add_parser("min-signal", help="minimum uncapped signal over all vertices")
    p.add_argument("--pattern", required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("render", help="draw a window of the pattern (ascii or svg)")
    p.add_argument("--pattern", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--window", default="0,0,12,6", help="x0,y0,x1,y1 (inclusive)")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--show", default=None, help="comma list: towers,signal,outlines,halfsquares")
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    return parser


def _cmd_verify(args) -> int:
    report = verify(parse_pattern(args.pattern), BroadcastSpec(args.t, args.r))
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        status = "valid" if report.valid else "INVALID"
        print(f"({args.t},{args.r}) broadcast: {status}")
        print(f"density: {report.density}")
        print(f"min total signal: {report.min_total_signal} at {report.witness}")
        print(f"domain size: {report.domain_size}")
    return EXIT_OK


def _cmd_search(args) -> int:
    result = best_standard(BroadcastSpec(args.t, args.r), d_max=args.d_max)
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(f"best standard ({args.t},{args.r}) broadcast: d={result.d}")
        print(f"valid e: {list(result.valid_e)}")
        print(f"search ceiling: d <= {result.d_bound}")
    return EXIT_OK


def _cmd_table1(args) -> int:
    rows = reproduce_table1()
    ok = table1_matches(rows)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "opt_t1_d", "opt_t1_e", "std_t1_3_d", "std_t1_3_e",
                             "std_t2_5_d", "std_t2_5_e", "std_t3_7_d", "std_t3_7_e"])
            for row in rows:
                flat = [row.t]
                for d, e in zip(row.d_values, row.representative_e):
                    flat += [d, e]
                writer.writerow(flat)
    if args.json:
        payload = {
            "rows": [
                {"t": row.t, "cells": [c.to_dict() for c in row.cells]} for row in rows
            ],
            "matches_expected": ok,
        }
        print(json.dumps(payload))
    else:
        header = ["t", "optimal (t,1)", "best std (t+1,3)", "best std (t+2,5)", "best std (t+3,7)"]
        print("  ".join(f"{h:>18}" for h in header))
        for row in rows:
            cells = [f"T({d},{e})" for d, e in zip(row.d_values, row.representative_e)]
            print("  ".join(f"{c:>18}" for c in [str(row.t)] + cells))
        if not ok:
            for row in rows:
                expected = TABLE1_EXPECTED[row.t]
                for cell, (d_exp, e_exp) in zip(row.cells, expected):
                    if cell.d != d_exp or e_exp not in cell.valid_e:
                        print(
                            f"MISMATCH t={row.t} ({cell.spec.t},{cell.spec.r}): "
                            f"got d={cell.d} valid_e={list(cell.valid_e)}, "
                            f"expected T({d_exp},{e_exp})",
                            file=sys.stderr,
                        )
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_holes(args) -> int:
    spec = BroadcastSpec(args.t, args.r)
    pattern = parse_pattern(args.pattern)
    depth = args.depth if args.depth is not None else args.r
    report, hole_d, overlap_d = hole_summary(pattern, spec, depth)
    if args.json:
        payload = report.to_dict()
        payload["hole_density"] = {"num": hole_d.numerator, "den": hole_d.denominator}
        payload["overlap_density"] = {"num": overlap_d.numerator, "den": overlap_d.denominator}
        print(json.dumps(payload))
    else:
        print(f"holes of depth {depth} (half-squares at depth {args.r - depth}): {len(report.holes)}")
        for idx, hole in enumerate(report.holes):
            m, n = hole.dimensions
            dims = f"{m}x{'inf' if n is None else n}"
            print(
                f"  hole {idx}: size={hole.size} dims={dims} shape={hole.shape_class} "
                f"convex={hole.convex} infinite={hole.infinite} spurs={list(hole.spur_points)}"
            )
        print(f"hole density: {hole_d}")
        print(f"overlap density: {overlap_d}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    result = domination_number(FiniteGrid(args.m, args.n), BroadcastSpec(args.t, args.r))
    if args.json:
        print(json.dumps({
            "m": args.m, "n": args.n, "t": args.t, "r": args.r,
            "number": result.number,
            "witness": [list(v) for v in result.witness],
        }))
    else:
        print(f"({args.t},{args.r}) domination number of G_{args.m},{args.n}: {result.number}")
        print(f"witness towers: {list(result.witness)}")
    return EXIT_OK


def _cmd_min_t(args) -> int:
    result = min_t(parse_pattern(args.pattern), args.r, args.t_max)
    if args.json:
        print(json.dumps({"r": args.r, "t_max": args.t_max, "min_t": result}))
    else:
        if result is None:
            print(f"no t <= {args.t_max} makes this pattern a (t,{args.r}) broadcast")
        else:
            print(f"minimum t for r={args.r}: {result}")
    return EXIT_OK


def _cmd_min_signal(args) -> int:
    result = min_signal(parse_pattern(args.pattern), args.t)
    if args.json:
        print(json.dumps({"t": args.t, "min_signal": result}))
    else:
        print(f"minimum signal at t={args.t}: {result}")
    return EXIT_OK


def _cmd_render(args) -> int:
    try:
        window = tuple(int(part) for part in args.window.split(","))
    except ValueError:
        raise PatternSyntaxError("window must be x0,y0,x1,y1", 0)
    if len(window) != 4:
        raise PatternSyntaxError("window must be x0,y0,x1,y1", 0)
    show = DEFAULT_SHOW if args.show is None else frozenset(args.show.split(","))
    rs = RenderSpec(window=window, format=args.format, show=show)
    out = render(parse_pattern(args.pattern), BroadcastSpec(args.t, args.r), rs)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "search": _cmd_search,
    "table1": _cmd_table1,
    "holes": _cmd_holes,
    "oracle": _cmd_oracle,
    "min-t": _cmd_min_t,
    "min-signal": _cmd_min_signal,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (PatternSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
