"""Generators for the named hypergraph families used throughout the package:
expanded triangles, suspensions, complete odd-bipartite hypergraphs,
matchings, and complete r-graphs.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, NamedTuple

from .hypergraph import (
    Hypergraph,
    check_build,
    check_capacity,
    checked_edge_mask,
    edge_mask,
    edge_vertices,
    from_masks,
)


class Partition(NamedTuple("Partition", [("n", int), ("part1", int)])):
    """Ordered bipartition of {0..n-1}; part2 is the complement of part1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, part1: int):
        check_capacity(n)
        if part1 & ~((1 << n) - 1):
            raise ValueError("part1 uses a vertex outside 0..n-1")
        return super().__new__(cls, n, part1)

    @property
    def part2(self) -> int:
        return ((1 << self.n) - 1) & ~self.part1

    @property
    def sizes(self) -> tuple[int, int]:
        s1 = self.part1.bit_count()
        return (s1, self.n - s1)

    def part1_vertices(self) -> list[int]:
        return edge_vertices(self.part1)

    @classmethod
    def from_part1(cls, n: int, vertices: Iterable[int]) -> "Partition":
        check_capacity(n)
        part1 = {*vertices}  # a vertex listed twice is merged, as in edge_mask
        return cls(n, checked_edge_mask(n, len(part1), *part1))


def expanded_triangle(k: int) -> Hypergraph:
    """Three 2k-edges over three pairwise disjoint k-blocks, each edge the
    union of two blocks. Every vertex has degree 2 and pairwise edge
    intersections have size k.
    """
    check_capacity(3 * k, 2 * k)
    block = (1 << k) - 1
    s1, s2, s3 = block, block << k, block << (2 * k)
    return from_masks(3 * k, 2 * k, (s1 | s2, s2 | s3, s3 | s1))


def suspension(f: Hypergraph, r: int) -> Hypergraph:
    """Add r-s fresh apex vertices (highest indices) to every edge of the
    s-uniform f. Every apex ends up with degree |f|.
    """
    s = f.r
    if r < s:
        raise ValueError(f"target uniformity {r} below current uniformity {s}")
    extra = r - s
    check_capacity(f.n + extra, r)
    apex = ((1 << extra) - 1) << f.n
    return from_masks(f.n + extra, r, (e | apex for e in f.edges))


def check_even_uniformity(uniformity: int) -> None:
    """The one rule of the odd-bipartite constructions and diagnostics."""
    if uniformity < 2 or uniformity % 2:
        raise ValueError(f"uniformity must be even and >= 2, got {uniformity}")


def odd_bipartite(partition: Partition, uniformity: int) -> Hypergraph:
    """All uniformity-sets meeting part1 in an odd number of vertices.

    The uniformity must be even, so meeting part1 oddly is the same as
    meeting part2 oddly.
    """
    check_even_uniformity(uniformity)
    n = partition.n
    p1 = partition.part1
    complete = complete_rgraph(n, uniformity).edges  # ascending, so the filter is too
    return Hypergraph(n, uniformity, tuple(e for e in complete if (e & p1).bit_count() % 2))


def odd_bipartite_count(n: int, part1_size: int, uniformity: int) -> int:
    """Closed-form edge count of the complete odd-bipartite hypergraph with
    the given part sizes: sum over odd j of C(part1, j) * C(n-part1, 2k-j).
    """
    return sum(
        comb(part1_size, j) * comb(n - part1_size, uniformity - j)
        for j in range(1, uniformity + 1, 2)
    )


def max_odd_bipartite(n: int, uniformity: int) -> tuple[Partition, Hypergraph, int]:
    """Edge-maximizing complete odd-bipartite hypergraph on n vertices.

    Scans part1 sizes t <= n/2 (the count depends only on t); ties go to the
    larger t, the more balanced partition. Returns the winning partition, its
    hypergraph (edgeless when n < uniformity), and the edge count.
    """
    check_even_uniformity(uniformity)
    check_capacity(n, uniformity)
    count, t = max((odd_bipartite_count(n, t, uniformity), t) for t in range(n // 2 + 1))
    partition = Partition(n, (1 << t) - 1)
    return partition, odd_bipartite(partition, uniformity), count


def matching(r: int, m: int) -> Hypergraph:
    """m pairwise disjoint r-edges on r*m vertices."""
    check_capacity(r * m, r)
    block = (1 << r) - 1
    return from_masks(r * m, r, (block << (i * r) for i in range(m)))


def complete_rgraph(n: int, r: int) -> Hypergraph:
    """All C(n, r) possible edges, none when n < r; checked before building."""
    check_capacity(n, r)
    check_build(comb(n, r), "r-sets")
    return from_masks(n, r, (edge_mask(c) for c in itertools.combinations(range(n), r)))
