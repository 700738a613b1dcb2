"""The four workloads. Each one builds a pass (a list of operations) from
its seed during set-up; a run repeats the pass, resetting any state the
pass mutates before each repetition. Every operation is checked against
pins.json and the oracle module, outside the timed region.

- ladder: cold proofs without a cache, through solve_family.
- census: every three-edge class for r = 3, 4, 5 through density_sequence
  with a cache that is fresh for each pass and grows during it.
- requery: one closed-loop client querying a cache pre-filled with the
  census records at n = 6, 7; about 90% of queries hit, the rest solve a
  class at n = 5 and append it. A share goes through cli.main.
- toolkit: in-process cli.main calls of the subcommands that do not solve:
  classify, reduce, hom, stability and export.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from turankit import catalog, cli, constructions, hypergraph, solver

import instances as inst
import oracle


@dataclass
class Op:
    label: str  # also the group its time is summed under
    count: int  # units of work for ops_per_s: proofs, queries or calls
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # problems; empty when correct


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def write_graph(path: Path, n: int, r: int, edges) -> str:
    lines = [f"n={n} r={r}"] + [" ".join(map(str, oracle.vertices(e))) for e in edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class Checker:
    """Memoised checks: an output identical to one already checked in this
    run gets the same verdict without a second scan."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.memo: dict = {}
        self.patterns: dict = {}

    def pattern(self, profile) -> oracle.Pattern:
        profile = tuple(profile)
        if profile not in self.patterns:
            self.patterns[profile] = oracle.Pattern(profile)
        return self.patterns[profile]

    def cached(self, key, fn) -> list[str]:
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]

    def record(self, profile, n: int, rec: dict) -> list[str]:
        """rec holds family_profile, n, optimum, status and witness masks."""
        witness = tuple(rec["witness"])
        key = ("record", tuple(profile), n, tuple(rec["family_profile"]), rec["n"],
               rec["optimum"], rec["status"], witness)
        return self.cached(key, lambda: self._record(tuple(profile), n, rec, witness))

    def _record(self, profile, n, rec, witness) -> list[str]:
        where = f"{inst.pin_key(profile, n)}"
        if tuple(rec["family_profile"]) != profile or rec["n"] != n:
            return [f"{where}: answered {rec['family_profile']}@{rec['n']}"]
        if rec["status"] != solver.STATUS_OPTIMAL:
            return [f"{where}: {rec['status']} where a proof is expected"]
        pin = self.pins["solves"][inst.pin_key(profile, n)]["optimum"]
        if rec["optimum"] != pin:
            return [f"{where}: optimum {rec['optimum']}, pinned {pin}"]
        if len(witness) != rec["optimum"]:
            return [f"{where}: witness has {len(witness)} edges for optimum {rec['optimum']}"]
        problem = self.pattern(profile).witness_problem(n, witness)
        return [f"{where}: {problem}"] if problem else []

    def records(self, expected, got) -> list[str]:
        """expected: (profile, n) per proof; got: SolveRecords or JSON dicts."""
        if len(got) != len(expected):
            return [f"expected {len(expected)} records, got {len(got)}"] * len(expected)
        problems = []
        for (profile, n), rec in zip(expected, got):
            if isinstance(rec, solver.SolveRecord):
                rec = {"family_profile": rec.family_profile, "n": rec.n, "optimum": rec.optimum,
                       "status": rec.status, "witness": rec.witness}
            else:
                rec = dict(rec, witness=sorted(oracle.mask(vs) for vs in rec["witness"]))
            problems += self.record(profile, n, rec)
        return problems


class Workload:
    name = ""

    def __init__(self, seed: int, checker: Checker):
        self.seed = seed
        self.checker = checker
        self.pins = checker.pins
        self.ops: list[Op] = []

    def setup(self, workdir: Path) -> None:
        """Build the pass and its inputs under workdir."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the state a pass starts from."""


def _classes(rs) -> list:
    return [entry for r in rs for entry in catalog.enumerate_three_edge(r).entries]


class Ladder(Workload):
    name = "ladder"

    def setup(self, workdir: Path) -> None:
        rng = random.Random(self.seed)
        triangle = constructions.expanded_triangle(1)
        named = {
            "triangle": triangle,
            "k4minus": constructions.suspension(triangle, 3),
            "expanded-triangle-k2": constructions.expanded_triangle(2),
        }
        order = list(inst.LADDER)
        rng.shuffle(order)
        self.ops = []
        for label, profile, n, seeded in order:
            f = named.get(label) or catalog.realize_profile(profile, inst.uniformity(profile))
            self.ops.append(Op(f"{label}@{n}", 1, self._solver(f, n, label, seeded),
                               lambda got, p=profile, n=n: self.checker.records([(p, n)], got)))

    @staticmethod
    def _solver(f, n, label, seeded):
        def run():
            seed = constructions.max_odd_bipartite(n, f.r)[1] if seeded else None
            return [solver.solve_family(f, n, family_name=label, seed_witness=seed)]
        return run


class Census(Workload):
    name = "census"

    def setup(self, workdir: Path) -> None:
        rng = random.Random(self.seed)
        self.workdir = workdir
        self.cache = None
        entries = _classes(inst.CENSUS_R)
        rng.shuffle(entries)
        self.ops = []
        for entry in entries:
            profile = entry.profile.as_tuple()
            ns = inst.census_ns(profile)
            self.ops.append(Op("density_sequence", len(ns),
                               self._sequence(entry.representative, ns, ",".join(map(str, profile))),
                               lambda got, p=profile, ns=ns: self.checker.records(
                                   [(p, n) for n in ns], got)))

    def _sequence(self, f, ns, name):
        return lambda: solver.density_sequence(f, ns, family_name=name, cache=self.cache)

    def reset(self) -> None:
        path = self.workdir / "census-cache.jsonl"
        path.unlink(missing_ok=True)
        self.cache = solver.ResultCache(str(path))


class Requery(Workload):
    name = "requery"

    def setup(self, workdir: Path) -> None:
        rng = random.Random(self.seed)
        self.prefill = workdir / "prefill.jsonl"
        self.path = str(workdir / "cache.jsonl")
        prefill = solver.ResultCache(str(self.prefill))
        classes = []
        for i, entry in enumerate(_classes(inst.CENSUS_R)):
            f = entry.representative
            path = workdir / f"class-{i}.hg"
            path.write_text(hypergraph.format_hypergraph(f))
            profile = entry.profile.as_tuple()
            for n in inst.CENSUS_N:
                solver.solve_family(f, n, family_name=path.name, cache=prefill)
            classes.append((f, str(path), profile))

        # The seed orders the pass; what it asks, and by which route, is
        # fixed, so every seed does the same work.
        hits = [(c, n) for c in classes for n in inst.CENSUS_N]
        queries = []
        for i, query in enumerate(hits):
            route = ("solve", "density")[i % 2]
            queries += [(query, route)] + [(query, None)] * (inst.REQUERY_HITS_PER_RECORD - 1)
        for i, c in enumerate(classes):
            cli = i % inst.REQUERY_CLI_EVERY == 0
            queries.append(((c, inst.REQUERY_MISS_N), ("solve", "density")[i // 4 % 2] if cli else None))
        rng.shuffle(queries)
        self.ops = []
        for ((f, path, profile), n), command in queries:
            if command:
                self.ops.append(self._cli_query(command, path, profile, n))
            else:
                self.ops.append(Op("solve_family", 1, self._query(f, n, Path(path).name),
                                   lambda got, p=profile, n=n: self.checker.records([(p, n)], got)))

    def _query(self, f, n, name):
        return lambda: [solver.solve_family(f, n, family_name=name, cache=self.cache)]

    def _cli_query(self, command: str, path: str, profile, n: int) -> Op:
        argv = ["--format", "json", "--cache", self.path, command, "--family", path]
        argv += ["--n", str(n)] if command == "solve" else ["--n-from", str(n), "--n-to", str(n)]

        def check(got):
            code, out = got
            if code != 0:
                return [f"cli {command} exited {code}"]
            payload = json.loads(out)
            records = [payload] if command == "solve" else payload["records"]
            return self.checker.records([(profile, n)], records)

        return Op(f"cli.{command}", 1, lambda: run_cli(argv), check)

    def reset(self) -> None:
        # One cache object per pass, as census has: library queries share
        # it, while each CLI call opens its own, as a CLI user's would.
        shutil.copyfile(self.prefill, self.path)
        self.cache = solver.ResultCache(self.path)


class Toolkit(Workload):
    name = "toolkit"

    def setup(self, workdir: Path) -> None:
        rng = random.Random(self.seed)
        ops = []
        for _, r in itertools.product(range(inst.CLASSIFY_REPEAT), inst.CLASSIFY_R):
            ops.append(self._cli("classify", ["classify", "--r", str(r)], self._check_classify(r)))
        ops += self._reductions(workdir)
        ops += self._stability(workdir, rng)
        ops += self._exports(workdir)
        rng.shuffle(ops)
        self.ops = ops

    def _cli(self, label: str, argv: list[str], check) -> Op:
        argv = ["--format", "json"] + argv

        def checked(got):
            code, out = got
            if code != 0:
                return [f"cli {' '.join(argv)} exited {code}"]
            # argv names the input files, so it also determines the check.
            key = hashlib.sha256(" ".join(argv).encode() + b"\0" + out.encode()).digest()
            return self.checker.cached(key, lambda: check(json.loads(out)))

        return Op(label, 1, lambda: run_cli(argv), checked)

    def _check_classify(self, r: int):
        def check(payload):
            want = self.pins["classes"][str(r)], self.pins["min_degree_two"][str(r)]
            got = len(payload["classes"]), payload["min_degree_two_count"]
            return [] if got == want else [f"classify r={r}: {got}, pinned {want}"]
        return check

    def _reductions(self, workdir: Path) -> list[Op]:
        ops = []
        targets = {}  # target profile -> (its file, its edges); only a few distinct
        for r in inst.REDUCE_R:
            for i, entry in enumerate(catalog.enumerate_three_edge(r).min_degree_one):
                f = entry.representative
                source = write_graph(workdir / f"reduce-{r}-{i}.hg", f.n, r, f.edges)
                target_profile = tuple(self.pins["hom_targets"][",".join(map(str, entry.profile.as_tuple()))])
                if target_profile not in targets:
                    t = sorted(oracle.realize(target_profile))
                    name = "target-" + "-".join(map(str, target_profile)) + ".hg"
                    targets[target_profile] = write_graph(workdir / name, sum(target_profile), r, t), t
                target, t = targets[target_profile]
                ops.append(self._cli("reduce", ["reduce", "--input", source],
                                     self._check_core(f.edges, r)))
                ops.append(self._cli("reduce", ["reduce", "--input", source, "--to-degree3"],
                                     self._check_degree3(f.edges, r)))
                ops.append(self._cli("hom", ["hom", "--source", source, "--target", target],
                                     self._check_hom(f.edges, t, r)))
        return ops

    @staticmethod
    def _check_core(source, r: int):
        def check(payload):
            terminal = [oracle.mask(e) for e in payload["terminal_edges"]]
            problem = oracle.map_problem(source, terminal, payload["map"], r)
            degrees = [d for d in oracle.degrees(terminal, len(payload["map"])) if d]
            collapsed = payload["status"] == "collapsed-to-<=2-edges"
            if not problem and collapsed != (len(terminal) <= 2):
                problem = f"status {payload['status']} with {len(terminal)} edges"
            if not problem and not collapsed and min(degrees) < 2:
                problem = "terminal still has a degree-one vertex"
            return [f"reduce: {problem}"] if problem else []
        return check

    @staticmethod
    def _check_degree3(source, r: int):
        def check(payload):
            target = [oracle.mask(e) for e in payload["target_edges"]]
            problem = oracle.map_problem(source, target, payload["map"], r)
            degrees = [d for d in oracle.degrees(target, max(map(int.bit_length, target))) if d]
            if not problem and (len(target) != 3 or max(degrees) != 3 or min(degrees) < 2):
                problem = f"target degrees {degrees} over {len(target)} edges"
            return [f"reduce --to-degree3: {problem}"] if problem else []
        return check

    @staticmethod
    def _check_hom(source, target, r: int):
        def check(payload):
            if payload["map"] is None:
                return ["hom: no map found where one exists"]
            problem = oracle.map_problem(source, target, payload["map"], r)
            return [f"hom: {problem}"] if problem else []
        return check

    def _stability(self, workdir: Path, rng: random.Random) -> list[Op]:
        ops = []
        for i, (n, r, flips) in enumerate(inst.STABILITY_BEST + inst.STABILITY_LINKS):
            part1 = oracle.mask(rng.sample(range(n), n // 2))
            everything = [oracle.mask(c) for c in itertools.combinations(range(n), r)]
            edges = {e for e in everything if (e & part1).bit_count() % 2}
            edges.symmetric_difference_update(rng.sample(everything, flips))
            edges = sorted(edges)
            path = write_graph(workdir / f"stability-{i}.hg", n, r, edges)
            if r % 2 == 0:
                argv = ["stability", "--input", path, "--threshold", str(inst.STABILITY_THRESHOLD)]
                ops.append(self._cli("stability", argv, self._check_best(edges, n, r, flips)))
            else:
                argv = ["stability", "--input", path, "--scan-links"]
                ops.append(self._cli("stability", argv, self._check_links(edges, n, r)))
        return ops

    @staticmethod
    def _check_best(edges, n: int, r: int, flips: int):
        def check(payload):
            part1 = oracle.mask(payload["part1"])
            bad, missing = oracle.deviation(edges, n, r, part1)
            if (bad, missing, bad + missing) != (payload["bad"], payload["missing"], payload["total"]):
                return [f"stability: reported {payload['bad']}/{payload['missing']}, recount {bad}/{missing}"]
            if bad + missing > flips:
                return [f"stability: total {bad + missing} exceeds the planted partition's {flips}"]
            heavy = oracle.heavy_vertices(edges, n, r, part1, inst.STABILITY_THRESHOLD)
            if heavy != payload["heavy_vertices"]:
                return [f"stability: heavy vertices {payload['heavy_vertices']}, recount {heavy}"]
            return []
        return check

    @staticmethod
    def _check_links(edges, n: int, r: int):
        def check(payload):
            if len(payload["rows"]) != n:
                return [f"link scan: {len(payload['rows'])} rows for {n} vertices"]
            for row in payload["rows"]:
                x = row["vertex"]
                link = [e & ~(1 << x) for e in edges if e >> x & 1]
                part1 = oracle.mask(int(t) for t in row["part1"].split(",") if t)
                bad, missing = oracle.deviation(link, n, r - 1, part1)
                best = min(sum(oracle.deviation(link, n, r - 1, (rest << 1) | 1))
                           for rest in range(1 << (n - 1)))
                if (bad, missing, best) != (row["bad"], row["missing"], row["total"]):
                    return [f"link scan vertex {x}: reported {row}, recount {bad}/{missing}, best {best}"]
            return []
        return check

    def _exports(self, workdir: Path) -> list[Op]:
        ops = []
        for i, (label, profile, n, at_least) in enumerate(inst.EXPORTS):
            r = inst.uniformity(profile)
            if profile == inst.TRIANGLE:
                family = "triangle"
            else:
                f = catalog.realize_profile(profile, r)
                family = write_graph(workdir / f"export-{i}.hg", f.n, r, f.edges)
            out = workdir / f"export-{i}.txt"
            argv = ["export", "--family", family, "--n", str(n), "--output", str(out)]
            argv += ["--format", "cnf", "--at-least", str(at_least)] if at_least else ["--format", "ilp"]
            ops.append(self._export_op(argv, out, profile, n, at_least))
        return ops

    def _export_op(self, argv, out: Path, profile, n: int, at_least) -> Op:
        pattern = self.checker.pattern(profile)
        conflicts = self.pins["exports"][inst.pin_key(profile, n)]

        def check(got):
            code, _ = got
            if code != 0:
                return [f"cli {' '.join(argv)} exited {code}"]
            text = out.read_text()
            key = ("export", hashlib.sha256(text.encode()).digest())
            if at_least:
                verdict = lambda: oracle.cnf_problem(text, pattern, n, conflicts, at_least)  # noqa: E731
            else:
                verdict = lambda: oracle.ilp_problem(text, pattern, n, conflicts)  # noqa: E731
            problem = self.checker.cached(key, verdict)
            return [f"export: {problem}"] if problem else []

        return Op("export", 1, lambda: run_cli(argv), check)


WORKLOADS = {w.name: w for w in (Ladder, Census, Requery, Toolkit)}
