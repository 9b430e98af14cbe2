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
from .scenario import PROTOCOLS, Scenario, parse_pair, parse_scenario
from .topology import (Location, compute_neighbour_table, emit_location_file,
                       emit_neighbour_table, parse_location_file)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _entries(item, choices=()):
    """An argparse type: comma-separated, distinct ``item(entry)`` values,
    each one of ``choices`` when there are any."""
    def parse(text):
        values = [item(entry.strip()) for entry in text.split(",")]
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated entry in {text!r}")
        if choices and not set(values) <= set(choices):
            raise argparse.ArgumentTypeError(f"unknown entry in {text!r}")
        return values
    parse.__name__ = f"{item.__name__} list"  # argparse names it in errors
    return parse


def _pair(sep, form):
    """An argparse type: two floats joined by ``sep``, as in ``form``."""
    def parse(text):
        try:
            return parse_pair(text, sep)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {form}, got {text!r}") from None
    return parse


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
    cmp_.add_argument("--protocols", type=_entries(str, PROTOCOLS),
                      default="hyb,aodv,dsr")
    cmp_.add_argument("--seeds", type=_entries(int), default="1")
    cmp_.add_argument("--nodes", type=_entries(int),
                      help="comma-separated node counts to sweep")
    cmp_.add_argument("--out", required=True, help="output directory")
    cmp_.add_argument("--check", action="store_true",
                      help="exit 3 unless the hybrid protocol dominates")

    nb = sub.add_parser("neighbours", help="print a neighbour table")
    nb.add_argument("location_file")
    nb.add_argument("--bs", type=_pair(",", "X,Y"), required=True,
                    help="base station as X,Y")
    default = Scenario()
    nb.add_argument("--M", type=float, default=default.band_halfwidth_M)
    nb.add_argument("--N", type=float, default=default.vertical_extent_N)
    nb.add_argument("--K", type=int, default=default.max_neighbours_K)
    nb.add_argument("--range", dest="radio_range", type=float,
                    default=default.radio_range)

    gen = sub.add_parser("gen-topology", help="emit a random location file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--size", type=_pair("x", "WxH"), required=True,
                     help="field as WxH metres")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", help="output file (default stdout)")
    return p


def _write(path, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _report_text(report: metrics.MetricsReport) -> str:
    lines = [f"{f.name} = {getattr(report, f.name)}"
             for f in fields(report) if f.name != "dropped"]
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
        _write(args.log, log)
    _write(args.out, _report_text(report))
    return EXIT_OK


def _cmd_compare(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        sc = parse_scenario(fh.read())
    table = metrics.compare(sc, args.protocols, args.seeds,
                            node_counts=args.nodes)
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "runs.csv"), metrics.runs_csv(table))
    summary = metrics.summary_csv(table)
    _write(os.path.join(args.out, "summary.csv"), summary)
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
    locs.base_station = Location(*args.bs)
    sc = Scenario(band_halfwidth_M=args.M, vertical_extent_N=args.N,
                  max_neighbours_K=args.K, radio_range=args.radio_range)
    table = compute_neighbour_table(locs, sc.region_params(),
                                    locs.entries.keys())
    sys.stdout.write(emit_neighbour_table(table, sc.max_neighbours_K))
    return EXIT_OK


def _cmd_gen_topology(args) -> int:
    sc = Scenario(node_count=args.nodes, topology_size=args.size,
                  seed=args.seed)
    _write(args.out, emit_location_file(place_nodes(sc)))
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
