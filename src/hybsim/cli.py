"""Command-line surface: run, compare, neighbours, gen-topology.

Exit codes: 0 success, 1 usage error, 2 run failure, 3 trend check failed
(compare --check only).
"""

import argparse
import os
import sys
from dataclasses import fields, replace

from . import metrics
from .engine import place_nodes
from .scenario import PROTOCOLS, Scenario, parse_scenario
from .topology import (Location, RegionParams, compute_neighbour_table,
                       emit_location_file, emit_neighbour_table,
                       parse_location_file)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="hybsim",
                description="Wireless sensor network routing simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    run.add_argument("scenario")
    run.add_argument("--protocol", choices=PROTOCOLS)
    run.add_argument("--seed", type=int)
    run.add_argument("--log", help="write the event log here")
    run.add_argument("--out", help="write the metrics summary here")

    cmp_ = sub.add_parser("compare", help="run a protocol comparison")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--protocols", default="hyb,aodv,dsr")
    cmp_.add_argument("--seeds", default="1")
    cmp_.add_argument("--nodes", help="comma-separated node counts to sweep")
    cmp_.add_argument("--out", required=True, help="output directory")
    cmp_.add_argument("--check", action="store_true",
                      help="exit 3 unless the hybrid protocol dominates")

    nb = sub.add_parser("neighbours", help="print a neighbour table")
    nb.add_argument("location_file")
    nb.add_argument("--bs", required=True, help="base station as X,Y")
    region = RegionParams()
    nb.add_argument("--M", type=float, default=region.band_halfwidth_M)
    nb.add_argument("--N", type=float, default=region.vertical_extent_N)
    nb.add_argument("--K", type=int, default=region.max_neighbours_K)
    nb.add_argument("--range", dest="radio_range", type=float,
                    default=region.radio_range)

    gen = sub.add_parser("gen-topology", help="emit a random location file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--size", required=True, help="field as WxH metres")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", help="output file (default stdout)")
    return p


def _report_text(report: metrics.MetricsReport) -> str:
    lines = [f"{f.name} = {getattr(report, f.name)}"
             for f in fields(report) if f.name not in ("dropped", "wall_clock")]
    for reason in sorted(report.dropped):
        lines.append(f"dropped_{reason.lower()} = {report.dropped[reason]}")
    return "".join(line + "\n" for line in lines)


def _cmd_run(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        sc = parse_scenario(fh.read())
    if args.protocol:
        sc = replace(sc, protocol=args.protocol)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    report, log = metrics.run_scenario(sc)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(log)
    text = _report_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        sc = parse_scenario(fh.read())
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    nodes = None
    if args.nodes:
        nodes = [int(n) for n in args.nodes.split(",") if n.strip()]
    table = metrics.compare(sc, protocols, seeds, node_counts=nodes)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "runs.csv"), "w", encoding="utf-8") as fh:
        fh.write(metrics.runs_csv(table))
    summary = metrics.summary_csv(table)
    with open(os.path.join(args.out, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(summary)
    sys.stdout.write(summary)
    if args.check:
        problems = metrics.check_dominance(table)
        for prob in problems:
            print(f"check failed: {prob}", file=sys.stderr)
        if problems:
            return EXIT_CHECK
    return EXIT_OK


def _cmd_neighbours(args) -> int:
    with open(args.location_file, "r", encoding="utf-8") as fh:
        locs = parse_location_file(fh.read())
    bx, _, by = args.bs.partition(",")
    locs.base_station = Location(float(bx), float(by))
    params = RegionParams(band_halfwidth_M=args.M, vertical_extent_N=args.N,
                          max_neighbours_K=args.K,
                          radio_range=args.radio_range)
    table = compute_neighbour_table(locs, params, locs.ids())
    sys.stdout.write(emit_neighbour_table(table, k=args.K))
    return EXIT_OK


def _cmd_gen_topology(args) -> int:
    w, _, h = args.size.partition("x")
    sc = Scenario(node_count=args.nodes,
                  topology_size=(float(w), float(h)), seed=args.seed)
    text = emit_location_file(place_nodes(sc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare,
             "neighbours": _cmd_neighbours, "gen-topology": _cmd_gen_topology}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # every hybsim error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
