"""Independent checks on turankit's outputs, written without the package.

Every function here works on plain edge bit vectors (vertex v is bit v) and
recomputes what it checks from first principles: Venn-region counts of
three edges, vertex maps applied edge by edge, deviation counts over a
bipartition. The benchmark calls these outside its timed region, so a
wrong optimum, witness, map or export counts as a failed operation.
"""

from __future__ import annotations

import itertools
from math import comb


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def vertices(m: int) -> list[int]:
    return [v for v in range(m.bit_length()) if m >> v & 1]


def regions(e1: int, e2: int, e3: int) -> tuple[int, ...]:
    """(a1, a2, a3, a12, a13, a23, a123): vertices in exactly those edges."""
    a123 = e1 & e2 & e3
    a12 = (e1 & e2) & ~a123
    a13 = (e1 & e3) & ~a123
    a23 = (e2 & e3) & ~a123
    a1 = e1 & ~e2 & ~e3
    a2 = e2 & ~e1 & ~e3
    a3 = e3 & ~e1 & ~e2
    return tuple(x.bit_count() for x in (a1, a2, a3, a12, a13, a23, a123))


def canon(e1: int, e2: int, e3: int) -> tuple[int, ...]:
    """Region counts, lexicographically least over the orders of the edges."""
    return min(regions(*p) for p in itertools.permutations((e1, e2, e3)))


def realize(profile) -> tuple[int, int, int]:
    """Three edges with the given region counts, one block of vertices per
    region in the order 1, 2, 3, 12, 13, 23, 123."""
    blocks = []
    start = 0
    for size in profile:
        blocks.append(mask(range(start, start + size)))
        start += size
    b1, b2, b3, b12, b13, b23, b123 = blocks
    return (b1 | b12 | b13 | b123, b2 | b12 | b23 | b123, b3 | b13 | b23 | b123)


def classes(r: int) -> list[tuple[int, ...]]:
    """Canonical profiles of all three-edge r-graphs with distinct edges."""
    found = set()
    for a123 in range(r + 1):
        for a12, a13, a23 in itertools.product(range(r - a123 + 1), repeat=3):
            singles = (r - a12 - a13 - a123, r - a12 - a23 - a123, r - a13 - a23 - a123)
            if min(singles) < 0:
                continue
            e1, e2, e3 = realize(singles + (a12, a13, a23, a123))
            if len({e1, e2, e3}) == 3:
                found.add(canon(e1, e2, e3))
    return sorted(found)


def min_degree(profile) -> int:
    """Smallest degree of a vertex in the pattern: 1 if any single region is
    non-empty, 2 if only pair regions are, 3 otherwise."""
    a1, a2, a3, a12, a13, a23, _ = profile
    if a1 or a2 or a3:
        return 1
    return 2 if a12 or a13 or a23 else 3


class Pattern:
    """A forbidden three-edge pattern, known only by its region profile."""

    def __init__(self, profile):
        self.profile = tuple(profile)
        a1, a2, a3, a12, a13, a23, a123 = self.profile
        self.r = a1 + a12 + a13 + a123
        self.support = sum(self.profile)
        self.pair_sizes = sorted((a12 + a123, a13 + a123, a23 + a123))

    def is_copy(self, x: int, y: int, z: int) -> bool:
        if (x | y | z).bit_count() != self.support:
            return False
        pairs = sorted(((x & y).bit_count(), (x & z).bit_count(), (y & z).bit_count()))
        return pairs == self.pair_sizes and canon(x, y, z) == self.profile

    def conflicts(self, n: int) -> list[tuple[int, int, int]]:
        """Index triples into the ascending list of r-subsets of [n] that
        form a copy of the pattern, by a scan of every edge triple."""
        ground = sorted(mask(c) for c in itertools.combinations(range(n), self.r))
        return [
            (i, j, k)
            for i, j, k in itertools.combinations(range(len(ground)), 3)
            if self.is_copy(ground[i], ground[j], ground[k])
        ]

    def witness_problem(self, n: int, edges) -> str | None:
        """Why the edge set is not a pattern-free r-graph on [n], or None."""
        full = (1 << n) - 1
        if len(set(edges)) != len(edges):
            return "witness repeats an edge"
        for e in edges:
            if e & ~full or e.bit_count() != self.r:
                return f"witness edge {vertices(e)} is not an {self.r}-subset of [{n}]"
        for x, y, z in itertools.combinations(edges, 3):
            if self.is_copy(x, y, z):
                return f"witness contains a copy: {[vertices(e) for e in (x, y, z)]}"
        return None


def map_problem(source_edges, target_edges, images, r: int) -> str | None:
    """Why the vertex map is not a homomorphism source -> target, or None."""
    targets = set(target_edges)
    for e in source_edges:
        image = mask(images[v] for v in vertices(e))
        if image.bit_count() != r:
            return f"edge {vertices(e)} collapses under the map"
        if image not in targets:
            return f"edge {vertices(e)} maps to the non-edge {vertices(image)}"
    return None


def degrees(edges, n: int) -> list[int]:
    return [sum(1 for e in edges if e >> v & 1) for v in range(n)]


def deviation(edges, n: int, r: int, part1: int) -> tuple[int, int]:
    """(bad, missing) of the r-graph against the complete odd-bipartite
    r-graph over the bipartition (part1, rest), by a scan of all r-sets."""
    present = set(edges)
    bad = missing = 0
    for c in itertools.combinations(range(n), r):
        e = mask(c)
        odd = (e & part1).bit_count() % 2 == 1
        if e in present and not odd:
            bad += 1
        elif e not in present and odd:
            missing += 1
    return bad, missing


def heavy_vertices(edges, n: int, r: int, part1: int, threshold: int) -> list[int]:
    present = set(edges)
    degs = [0] * n
    for c in itertools.combinations(range(n), r):
        e = mask(c)
        if e not in present and (e & part1).bit_count() % 2 == 1:
            for v in c:
                degs[v] += 1
    return [v for v in range(n) if degs[v] >= threshold]


def cnf_problem(text: str, pattern: Pattern, n: int, conflicts: int, at_least: int) -> str | None:
    """Check a DIMACS export: one negative 3-clause per copy of the pattern,
    over variables named in the comment header, plus a cardinality part."""
    var_edge = {}
    header = None
    triples = set()
    clauses = 0
    for line in text.splitlines():
        if line.startswith("c var ") and " = " in line:
            left, right = line[6:].split(" = ")
            var_edge[int(left)] = mask(int(t) for t in right.split())
        elif line.startswith("p cnf "):
            header = tuple(int(t) for t in line.split()[2:])
        elif line and not line.startswith("c"):
            lits = [int(t) for t in line.split()]
            if lits[-1] != 0:
                return "clause line not terminated by 0"
            clauses += 1
            lits = lits[:-1]
            if len(lits) == 3 and all(-lit in var_edge for lit in lits):
                triple = tuple(sorted(var_edge[-lit] for lit in lits))
                if triple in triples:
                    return f"clause {lits} repeats a conflict"
                if not pattern.is_copy(*triple):
                    return f"clause {lits} is not a copy of the pattern"
                triples.add(triple)
    if len(var_edge) != comb(n, pattern.r):
        return f"header names {len(var_edge)} edges, expected {comb(n, pattern.r)}"
    if header is None or header[1] != clauses:
        return f"header {header} does not match {clauses} clauses"
    if len(triples) != conflicts:
        return f"{len(triples)} conflict clauses, expected {conflicts}"
    if at_least and clauses == conflicts:
        return "no cardinality clauses for --at-least"
    return None


def ilp_problem(text: str, pattern: Pattern, n: int, conflicts: int) -> str | None:
    """Check an LP-format export: one x_a + x_b + x_c <= 2 row per copy."""
    ground = sorted(mask(c) for c in itertools.combinations(range(n), pattern.r))
    rows = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("c") and line.endswith("<= 2"):
            terms = line.split(":")[1].split("<=")[0].split("+")
            row = tuple(sorted(int(t.strip()[1:]) - 1 for t in terms))
            if row in rows:
                return f"row {line!r} repeats a conflict"
            if len(row) != 3 or not pattern.is_copy(*(ground[i] for i in row)):
                return f"row {line!r} is not a copy of the pattern"
            rows.add(row)
    if len(rows) != conflicts:
        return f"{len(rows)} conflict rows, expected {conflicts}"
    if f"x{len(ground)}" not in text.split("Binary")[-1]:
        return "binary section does not list every edge variable"
    return None
