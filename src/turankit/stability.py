"""Distance-to-odd-bipartite diagnostics for even-uniformity hypergraphs.

Measures how far a 2k-graph sits from the complete odd-bipartite hypergraph
over a candidate bipartition: which edges are bad (present but even-meeting),
which are missing (odd-meeting but absent), which vertices are heavy in the
missing set, and how two bipartitions differ. Applied to vertex links this
recovers the per-vertex apparatus of the stability analysis at finite n.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import Partition, check_even_uniformity, odd_bipartite, odd_bipartite_count
from .hypergraph import Hypergraph, check_build, link


class DeviationReport(NamedTuple):
    """Symmetric difference between a hypergraph and the complete
    odd-bipartite hypergraph over one partition, split into bad edges
    (present, even intersection with part1) and missing edges (odd
    intersection, absent)."""

    partition: Partition
    bad_edges: tuple[int, ...]
    missing_edges: tuple[int, ...]

    @property
    def bad(self) -> int:
        return len(self.bad_edges)

    @property
    def missing(self) -> int:
        return len(self.missing_edges)

    @property
    def total(self) -> int:
        return self.bad + self.missing


def deviation(h: Hypergraph, partition: Partition) -> DeviationReport:
    """Exact bad/missing decomposition of h against the partition.

    The symmetric difference of h and odd_bipartite(partition, h.r) (which
    checks the uniformity), both edge tuples ascending like Hypergraph.edges;
    empty when n < r, where both are edgeless.
    """
    if partition.n != h.n:
        raise ValueError(f"partition is over {partition.n} vertices, hypergraph over {h.n}")
    complete = odd_bipartite(partition, h.r).edges
    present, odd = h.edge_set(), frozenset(complete)
    bad = tuple(e for e in h.edges if e not in odd)
    missing = tuple(e for e in complete if e not in present)
    return DeviationReport(partition, bad, missing)


def _deviation_total(m: int, odd: int, complete: int) -> int:
    # One scanned partition: m - odd bad edges plus complete - odd missing ones.
    return m + complete - 2 * odd


def best_partition(h: Hypergraph, balanced_only: bool = False) -> tuple[Partition, DeviationReport]:
    """Partition minimizing the total deviation, by exhaustive scan.

    Deviation is invariant under swapping the parts, so only the 2^(n-1)
    partitions with vertex 0 in part1 are scanned, in Gray-code order: each
    step moves one vertex and flips its edges' parities, O(1) big-int
    operations per partition (5,274 4-edges at n = 24: about 11 s on
    CPython 3.11). The scan counts against the build limit, so n <= 24.
    Ties break toward the smallest part1 bit vector.
    balanced_only restricts to part sizes differing by at most one.
    """
    check_even_uniformity(h.r)
    n = h.n
    if n < 1:
        raise ValueError("need at least one vertex")
    check_build(1 << (n - 1), "partitions")
    m = len(h.edges)
    # Bit i of inc[v] / parity: edge i holds v / meets part1 in an odd number of vertices.
    inc = [sum(1 << i for i, e in enumerate(h.edges) if e >> v & 1) for v in range(n)]
    sizes = {n // 2, (n + 1) // 2} if balanced_only else range(1, n + 1)
    complete = {size: odd_bipartite_count(n, size, h.r) for size in sizes}
    part1, parity = 1, inc[0]
    best_total, best_mask = float("inf"), 0
    for step in range(1 << (n - 1)):
        if step:  # part1 is 1 | gray(step) << 1: one vertex moves per step
            v = (step & -step).bit_length()
            part1 ^= 1 << v
            parity ^= inc[v]
        if (size := part1.bit_count()) in complete:
            total = _deviation_total(m, parity.bit_count(), complete[size])
            if total < best_total or total == best_total and part1 < best_mask:
                best_total, best_mask = total, part1
    partition = Partition(n, best_mask)
    return partition, deviation(h, partition)


def partition_distance(p: Partition, q: Partition) -> int:
    """min(|part1(p) ^ part1(q)|, |part1(p) ^ part2(q)|): zero exactly when
    the partitions agree up to swapping the parts."""
    if p.n != q.n:
        raise ValueError(f"partition sizes differ: {p.n} vs {q.n}")
    direct = (p.part1 ^ q.part1).bit_count()
    swapped = (p.part1 ^ q.part2).bit_count()
    return min(direct, swapped)


def heavy_missing_vertices(h: Hypergraph, partition: Partition, threshold: int) -> list[int]:
    """Vertices whose degree in the missing-edge set reaches the threshold.

    Satisfies the counting bound |result| * threshold <= r * #missing, since
    each missing edge contributes r to the total missing degree.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    degs = Hypergraph(h.n, h.r, deviation(h, partition).missing_edges).degrees()
    return [v for v in range(h.n) if degs[v] >= threshold]


class LinkPartitionScan(NamedTuple):
    """Link scan: rows[x] is the DeviationReport of vertex x's link."""

    rows: tuple[DeviationReport, ...]
    distances: tuple[tuple[int, ...], ...]
    max_distance: int
    mean_distance: float


def link_partition_scan(h: Hypergraph, balanced_only: bool = False) -> LinkPartitionScan:
    """Per-vertex stability table for an odd-uniformity hypergraph.

    rows[x] is the DeviationReport of the best partition of x's link (an
    even-uniformity hypergraph on the same vertex set); the scan adds the
    full pairwise partition-distance matrix and summary statistics.
    """
    if h.r % 2 == 0 or h.r < 3:
        raise ValueError(f"link scan needs odd uniformity >= 3, got r={h.r}")
    rows = tuple(best_partition(link(h, x), balanced_only=balanced_only)[1] for x in range(h.n))
    dist = tuple(
        tuple(partition_distance(rows[x].partition, rows[y].partition) for y in range(h.n))
        for x in range(h.n)
    )
    offdiag = [dist[x][y] for x in range(h.n) for y in range(x + 1, h.n)]
    return LinkPartitionScan(
        rows=rows,
        distances=dist,
        max_distance=max(offdiag) if offdiag else 0,
        mean_distance=sum(offdiag) / len(offdiag) if offdiag else 0.0,
    )
