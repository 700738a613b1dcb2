"""Command-line entry point wiring all modules together.

Subcommands: construct, classify, reduce, hom, solve, density, export,
stability. Exit codes: 0 success, 1 usage or validation error, 2 solver
budget exhausted (result is a lower bound only).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from math import comb
from typing import Optional

from .catalog import enumerate_three_edge, suspension_width, verify_classification
from .constructions import (
    Partition,
    complete_rgraph,
    expanded_triangle,
    matching,
    max_odd_bipartite,
    odd_bipartite,
    suspension,
)
from .hypergraph import (
    Hypergraph,
    VertexMap,
    check_capacity,
    edge_vertices,
    format_hypergraph,
    parse_hypergraph,
    pattern_profile,
)
from .morphisms import find_homomorphism, reduce_to_core, reduce_to_max_degree3
from .solver import (
    DensityIncreased,
    ResultCache,
    SolveRecord,
    STATUS_LOWER_BOUND,
    check_at_least,
    density_sequence,
    export_cnf,
    export_ilp,
    forbidden_triples,
)
from .stability import best_partition, check_threshold, heavy_missing_vertices, link_partition_scan

ENV_BUDGET_NODES = "TURANKIT_BUDGET_NODES"
ENV_BUDGET_SECS = "TURANKIT_BUDGET_SECS"
REFERENCE_LABEL = "asymptotic reference, not asserted"
# Flag-algebra density bounds known for the width-i suspensions, by (i, r).
_FLAG_BOUNDS = {(1, 5): "1/5", (2, 5): "152/499"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise UsageError(message)


def _read_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def _resolve_family(args) -> tuple[Hypergraph, str]:
    """Resolve --family to a pattern and its display name, honoring parameter flags.

    Accepts triangle, k4minus, expanded-triangle (with --k),
    suspended-expanded-triangle (with --i and --r), matching (with --r and
    --m), or a path to a hypergraph file."""
    name = args.family
    if name == "triangle":
        return expanded_triangle(1), "triangle"
    if name == "k4minus":
        return suspension(expanded_triangle(1), 3), "k4minus"
    if name == "expanded-triangle":
        _require(args, name, "k")
        return expanded_triangle(args.k), f"expanded-triangle(k={args.k})"
    if name == "suspended-expanded-triangle":
        _require(args, name, "i", "r")
        return (suspension(expanded_triangle(args.i), args.r),
                f"suspended-expanded-triangle(i={args.i},r={args.r})")
    if name == "matching":
        _require(args, name, "r", "m")
        return matching(args.r, args.m), f"matching(r={args.r},m={args.m})"
    if os.path.exists(name):
        return _read_hypergraph(name), os.path.basename(name)
    raise UsageError(
        f"unknown family {name!r}: not a named family and not a readable file"
    )


def _write_output(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(fmt: str, payload, lines: list[str], rows: Optional[list[dict]] = None) -> None:
    """Print one subcommand result: the payload as JSON, the rows as CSV
    (nothing when there are none), or else the table lines. Subcommands
    without rows print their table lines under csv too."""
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv" and rows is not None:
        if rows:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        for line in lines:
            print(line)


def _map_text(vmap: VertexMap) -> str:
    return " ".join(f"{v}->{w}" for v, w in enumerate(vmap.images))


def _edges_text(edges) -> str:
    return " / ".join(" ".join(map(str, e)) for e in edges)


def _deviation_row(report) -> dict:
    """A deviation report as a stability row: part1 as comma-separated text, bad, missing, total."""
    return {"part1": ",".join(map(str, report.partition.part1_vertices())),
            "bad": report.bad, "missing": report.missing, "total": report.total}


def _reference_lines(profile: tuple[int, ...], r: int) -> list[str]:
    lines = [
        f"reference: 1/2 three-edge density cap ({REFERENCE_LABEL})",
        f"reference: floor(r/2)/r = {r // 2}/{r} = {r // 2 / r:.6g} ({REFERENCE_LABEL})",
    ]
    width = suspension_width(profile, r)
    if width is not None:
        lines.append(f"reference: i/r = {width}/{r} = {width / r:.6g} ({REFERENCE_LABEL})")
        if (width, r) in _FLAG_BOUNDS:
            lines.append(f"reference: {_FLAG_BOUNDS[width, r]} flag-algebra bound ({REFERENCE_LABEL})")
    return lines


# -- subcommands -------------------------------------------------------------

def _require(args, family: str, *names: str) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{family} needs {' and '.join(missing)}")


def cmd_construct(args) -> int:
    family = args.family
    if family in ("expanded-triangle", "matching"):
        h = _resolve_family(args)[0]
    elif family == "suspension":
        if not args.input:
            raise UsageError("suspension needs --input with the base hypergraph")
        _require(args, family, "r")
        h = suspension(_read_hypergraph(args.input), args.r)
    elif family == "odd-bipartite":
        _require(args, family, "n", "k")
        uniformity = 2 * args.k
        if args.best:
            part, h, count = max_odd_bipartite(args.n, uniformity)
            print(f"# best part sizes {part.sizes}: {count} edges", file=sys.stderr)
        else:
            if args.part1 is not None:
                part = Partition.from_part1(args.n, args.part1)
            elif args.part1_size is not None:
                check_capacity(args.part1_size)
                part = Partition(args.n, (1 << args.part1_size) - 1)
            else:
                raise UsageError("odd-bipartite needs --best, --part1, or --part1-size")
            h = odd_bipartite(part, uniformity)
    elif family == "complete":
        _require(args, family, "n", "r")
        h = complete_rgraph(args.n, args.r)
    _write_output(format_hypergraph(h), args.output)
    return 0


def cmd_classify(args) -> int:
    catalog = enumerate_three_edge(args.r)
    report = verify_classification(args.r, catalog)
    rows = []
    for entry in catalog.entries:
        if entry.suspension_index is not None:
            tag = f"suspended-expanded-triangle(i={entry.suspension_index})"
        else:
            tag = "min-degree-1"
        rows.append(
            {
                "profile": " ".join(map(str, entry.profile)),
                "min_degree": entry.min_degree,
                "max_degree": entry.max_degree,
                "class": tag,
                "i": entry.suspension_index if entry.suspension_index is not None else "",
            }
        )
    lines = []
    if args.format == "table":
        lines = [
            f"three-edge classes for r={args.r}: {len(rows)} total, "
            f"{report.class_count} with min degree >= 2",
            f"{'profile':24} {'min':>3} {'max':>3}  class",
        ] + [f"{row['profile']:24} {row['min_degree']:>3} {row['max_degree']:>3}  {row['class']}"
             for row in rows]
    payload = {"r": args.r, "classes": rows, "min_degree_two_count": report.class_count}
    _emit(args.format, payload, lines, rows)
    return 0


def cmd_reduce(args) -> int:
    f1 = _read_hypergraph(args.input)
    if args.to_degree3:
        target, vmap = reduce_to_max_degree3(f1)
        payload = {
            "mode": "to-degree3",
            "target_edges": target.edge_vertex_lists(),
            "map": list(vmap.images),
            "verified": vmap.is_homomorphism(f1, target),
        }
        lines = [
            "target edges: " + _edges_text(payload["target_edges"]),
            "map: " + _map_text(vmap),
            f"verified homomorphism: {payload['verified']}",
        ]
    else:
        trace = reduce_to_core(f1)
        steps = [
            {"x": s.x, "y": s.y, "edges": s.result.edge_vertex_lists()} for s in trace.steps
        ]
        payload = {
            "mode": "core",
            "status": trace.status,
            "steps": steps,
            "terminal_edges": trace.terminal.edge_vertex_lists(),
            "map": list(trace.map.images),
        }
        lines = [
            f"step {idx + 1}: fold {step['x']} -> {step['y']}; edges " + _edges_text(step["edges"])
            for idx, step in enumerate(steps)
        ]
        lines += [f"status: {trace.status}", "map: " + _map_text(trace.map)]
    _emit(args.format, payload, lines)
    return 0


def cmd_hom(args) -> int:
    source = _read_hypergraph(args.source)
    target = _read_hypergraph(args.target)
    vmap = find_homomorphism(source, target)
    payload = {"map": list(vmap.images) if vmap else None}
    _emit(args.format, payload, [_map_text(vmap) if vmap else "none"])
    return 0


def _budget(flag_value, var: str, parse):
    """The flag's budget if given, else the environment variable's, if set."""
    raw = os.environ.get(var)
    if flag_value is not None or not raw:
        return flag_value
    try:
        return parse(raw)
    except ValueError:
        raise UsageError(f"{var} is not a valid {parse.__name__}: {raw!r}") from None


def _solve_range(args, n_values: list[int]) -> tuple[str, list[SolveRecord]]:
    """Solve the --family pattern at each n: budgets from the flags, else the
    environment; with --seed-construction, the odd-bipartite seed of each n
    searched when the pattern is an expanded triangle; the --cache file when
    set. Returns the family's display name and the audited records."""
    f, name = _resolve_family(args)
    nodes = _budget(args.budget_nodes, ENV_BUDGET_NODES, int)
    secs = _budget(args.budget_secs, ENV_BUDGET_SECS, float)
    # An expanded triangle is its own r-suspension, of width r/2.
    seeded = args.seed_construction and suspension_width(pattern_profile(f), f.r) == f.r / 2
    return name, density_sequence(
        f,
        n_values,
        family_name=name,
        cache=ResultCache(args.cache) if args.cache else None,
        budget_nodes=nodes,
        budget_secs=secs,
        seed_for=(lambda n: max_odd_bipartite(n, f.r)[1]) if seeded else None,
    )


def cmd_solve(args) -> int:
    _, (record,) = _solve_range(args, [args.n])
    lines = [
        f"family={record.family_name or 'unnamed'} n={record.n} r={record.r} "
        f"optimum={record.optimum} status={record.status}"
    ]
    if not args.quiet:
        density = record.density()
        lines.append(
            f"density={density.numerator}/{density.denominator} = {float(density):.6g} "
            f"nodes={record.nodes} millis={record.millis}"
        )
        lines.append("witness: " + _edges_text(map(edge_vertices, record.witness)))
        lines += _reference_lines(record.family_profile, record.r)
    _emit(args.format, record.to_json_dict(), lines)
    return 2 if record.status == STATUS_LOWER_BOUND else 0


def cmd_density(args) -> int:
    if args.n_from > args.n_to:
        raise UsageError(f"--n-from {args.n_from} exceeds --n-to {args.n_to}")
    check_capacity(args.n_from)  # the ends bound the list; density_sequence checks each n
    check_capacity(args.n_to)
    name, records = _solve_range(args, list(range(args.n_from, args.n_to + 1)))
    rows = [
        {
            "n": rec.n,
            "optimum": rec.optimum,
            "density": f"{rec.density().numerator}/{rec.density().denominator}",
            "density_float": float(rec.density()),
            "status": rec.status,
        }
        for rec in records
    ]
    lines = [
        f"density sequence for {name}",
        f"{'n':>4} {'optimum':>8} {'density':>12} {'float':>10}  status",
    ]
    lines += [
        f"{row['n']:>4} {row['optimum']:>8} {row['density']:>12} "
        f"{row['density_float']:>10.6g}  {row['status']}"
        for row in rows
    ]
    if not args.quiet:
        lines += _reference_lines(records[0].family_profile, records[0].r)
    payload = {"family": name, "records": [r.to_json_dict() for r in records]}
    _emit(args.format, payload, lines, rows)
    return 2 if any(rec.status == STATUS_LOWER_BOUND for rec in records) else 0


def cmd_export(args) -> int:
    if args.at_least is not None and args.export_format != "cnf":
        raise UsageError("--at-least applies to --format cnf only")
    f, name = _resolve_family(args)
    if args.at_least is not None:  # refused before the conflict build
        check_capacity(args.n, f.r)
        check_at_least(args.at_least, comb(args.n, f.r))
    system = forbidden_triples(f, args.n, name)
    if args.export_format == "cnf":
        text = export_cnf(system, at_least=args.at_least)
    else:
        text = export_ilp(system)
    _write_output(text, args.output)
    return 0


def cmd_stability(args) -> int:
    if args.threshold is not None:
        if args.scan_links:
            raise UsageError("--threshold applies without --scan-links only")
        check_threshold(args.threshold)  # before the partition scan
    h = _read_hypergraph(args.input)
    if args.scan_links:
        scan = link_partition_scan(h, balanced_only=args.balanced)
        rows = [{"vertex": x, **_deviation_row(report)} for x, report in enumerate(scan.rows)]
        payload = {
            "rows": rows,
            "distances": [list(r) for r in scan.distances],
            "max_distance": scan.max_distance,
            "mean_distance": scan.mean_distance,
        }
        lines = [f"{'vertex':>6} {'part1':20} {'bad':>5} {'missing':>8} {'total':>6}"]
        lines += [
            f"{row['vertex']:>6} {row['part1']:20} {row['bad']:>5} "
            f"{row['missing']:>8} {row['total']:>6}"
            for row in rows
        ]
        lines += [
            f"max pairwise distance: {scan.max_distance}",
            f"mean pairwise distance: {scan.mean_distance:.4f}",
        ]
    else:
        part, report = best_partition(h, balanced_only=args.balanced)
        rows = [_deviation_row(report)]
        _, *counts = rows[0].items()  # bad, missing, total
        payload = {"part1": part.part1_vertices(), "sizes": list(part.sizes), **dict(counts)}
        lines = [
            f"best partition part1={payload['part1']} sizes={tuple(part.sizes)}",
            " ".join(f"{key}={value}" for key, value in counts),
        ]
        if args.threshold is not None:
            payload["heavy_vertices"] = heavy_missing_vertices(h, part, args.threshold)
            if args.threshold == 0:
                print("warning: threshold 0 selects every vertex", file=sys.stderr)
            payload["threshold"] = args.threshold
            lines.append(f"heavy vertices (threshold {args.threshold}): {payload['heavy_vertices']}")
    _emit(args.format, payload, lines, rows)
    return 0


# -- parser -------------------------------------------------------------------

def _vertex_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def _add_flags(p: _Parser, func) -> None:
    """Add one subcommand's flags, in the order its --help lists them."""
    if func in (cmd_solve, cmd_density, cmd_export):
        p.add_argument("--family", required=True, help="named family or hypergraph file")
        p.add_argument("--k", type=int)
        p.add_argument("--i", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--m", type=int)
    if func in (cmd_solve, cmd_density):
        p.add_argument("--budget-nodes", type=int)
        p.add_argument("--budget-secs", type=float)
        p.add_argument("--seed-construction", action="store_true",
                       help="seed the incumbent from the odd-bipartite construction when applicable")
    if func in (cmd_solve, cmd_export):
        p.add_argument("--n", type=int, required=True)
    if func is cmd_construct:
        p.add_argument("--family", required=True, choices=(
            "expanded-triangle", "suspension", "odd-bipartite", "matching", "complete"))
        p.add_argument("--k", type=int, help="block size (expanded-triangle) or half-uniformity (odd-bipartite)")
        p.add_argument("--n", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--input", help="base hypergraph file (suspension)")
        part = p.add_mutually_exclusive_group()
        part.add_argument("--part1", type=_vertex_list,
                          help="comma-separated part1 vertices (odd-bipartite)")
        part.add_argument("--part1-size", type=int)
        part.add_argument("--best", action="store_true", help="pick the edge-maximizing part sizes")
        p.add_argument("--output")
    elif func is cmd_classify:
        p.add_argument("--r", type=int, required=True)
    elif func is cmd_reduce:
        p.add_argument("--input", required=True)
        p.add_argument("--to-degree3", action="store_true",
                       help="reduce into a max-degree-3 target instead of the plain fold chain")
    elif func is cmd_hom:
        p.add_argument("--source", required=True)
        p.add_argument("--target", required=True)
    elif func is cmd_density:
        p.add_argument("--n-from", type=int, required=True)
        p.add_argument("--n-to", type=int, required=True)
    elif func is cmd_export:
        p.add_argument("--format", choices=("cnf", "ilp"), required=True, dest="export_format")
        p.add_argument("--at-least", type=int,
                       help="CNF only: also require at least this many selected edges")
        p.add_argument("--output")
    elif func is cmd_stability:
        p.add_argument("--input", required=True)
        p.add_argument("--balanced", action="store_true",
                       help="restrict the partition scan to near-balanced part sizes")
        p.add_argument("--threshold", type=int)
        p.add_argument("--scan-links", action="store_true",
                       help="per-vertex link partition table (odd uniformity)")


class _Subcommand:
    """The subparsers' `parser_class`: a stand-in for a subcommand's parser.
    argparse calls only `parse_known_args` on a subparser, so the real one
    is built there, and a call builds its own subcommand's parser only."""

    def __init__(self, func, **kwargs):
        self.func, self.kwargs = func, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        _add_flags(parser, self.func)
        parser.set_defaults(func=self.func)
        return parser.parse_known_args(args, namespace)


def build_parser() -> _Parser:
    parser = _Parser(prog="turankit", description=__doc__)
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--cache", default="./turan-cache.jsonl",
                        help="result cache path (JSONL), used by solve and density")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser("construct", func=cmd_construct, help="emit a named construction in the text format")
    sub.add_parser("classify", func=cmd_classify, help="catalog of three-edge classes for one uniformity")
    sub.add_parser("reduce", func=cmd_reduce, help="fold reduction trace for a three-edge hypergraph")
    sub.add_parser("hom", func=cmd_hom, help="homomorphism witness between two hypergraph files")
    sub.add_parser("solve", func=cmd_solve, help="exact optimum for a forbidden three-edge family")
    sub.add_parser("density", func=cmd_density, help="density sequence over a range of n")
    sub.add_parser("export", func=cmd_export,
                   help="emit the conflict system as CNF or an integer program")
    sub.add_parser("stability", func=cmd_stability, help="odd-bipartite deviation diagnostics")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout; devnull keeps the flush at exit from failing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError, OSError, DensityIncreased) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # outside a search, which returns its incumbent
        print("error: interrupted", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
