"""Homomorphism search and degree-one folding reductions for three-edge
hypergraphs.

A fold sends a degree-one vertex x onto a vertex y outside its edge and
rewrites that edge accordingly. Repeating folds drives a three-edge
hypergraph with a degree-one vertex either down to two or fewer edges or to
one where every non-isolated vertex has degree at least two.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .constructions import expanded_triangle, suspension
from .hypergraph import (
    Hypergraph,
    VertexMap,
    _edge_map_search,
    edge_vertices,
    from_masks,
    max_degree,
    min_positive_degree,
    pattern_profile,
)

REACHED_MIN_DEGREE_2 = "reached-min-degree-2"
COLLAPSED = "collapsed-to-<=2-edges"


class FoldStep(NamedTuple):
    x: int
    y: int
    result: Hypergraph


class ReductionTrace(NamedTuple):
    """Record of a fold sequence: per-step results, the terminal hypergraph,
    and the composed vertex map, which is always a verified homomorphism
    from the original to the terminal hypergraph.
    """

    original: Hypergraph
    steps: tuple[FoldStep, ...]
    terminal: Hypergraph
    map: VertexMap
    status: str


def find_homomorphism(f1: Hypergraph, f2: Hypergraph) -> Optional[VertexMap]:
    """Exhaustive backtracking search for an edge-preserving vertex map.

    Vertices are assigned in decreasing-degree order with forward checking:
    every partial edge image must stay inside some edge of f2 without
    collapsing two vertices of the same edge. Returns None only when no
    homomorphism exists. Isolated vertices are sent to vertex 0.
    """
    if f1.r != f2.r:
        raise ValueError(f"uniformity mismatch: {f1.r} vs {f2.r}")
    if f1.n and not f2.n:
        return None

    degs = f1.degrees()
    first_edge = {}
    for v in range(f1.n):
        if degs[v]:
            first_edge[v] = min(i for i, e in enumerate(f1.edges) if e >> v & 1)
    verts = sorted(first_edge, key=lambda v: (-degs[v], first_edge[v], v))
    found = _edge_map_search(f1, f2, {v: range(f2.n) for v in verts}, injective=False)
    if found is None:
        return None
    return VertexMap(f1.n, f2.n, tuple(found.get(v, 0) for v in range(f1.n)))


def fold_vertex(f: Hypergraph, x: int, y: int) -> tuple[Hypergraph, VertexMap]:
    """Fold the degree-one vertex x onto y, rewriting x's edge.

    y must lie outside the unique edge containing x. If the rewritten edge
    already exists the duplicate is merged, dropping the edge count. Returns
    the folded hypergraph and the fold map (identity except x -> y).
    """
    degs = f.degrees()
    if not 0 <= x < f.n or not 0 <= y < f.n:
        raise ValueError("fold vertices out of range")
    if degs[x] != 1:
        raise ValueError(f"vertex {x} has degree {degs[x]}, need exactly 1")
    xb, yb = 1 << x, 1 << y
    host = next(e for e in f.edges if e & xb)
    if host & yb:
        raise ValueError(f"vertex {y} lies in the edge containing {x}")
    rewritten = (host & ~xb) | yb
    folded = from_masks(f.n, f.r, (rewritten if e == host else e for e in f.edges))
    images = list(range(f.n))
    images[x] = y
    fold_map = VertexMap(f.n, f.n, tuple(images))
    if not fold_map.is_homomorphism(f, folded):
        raise AssertionError("fold map failed edge-image verification")
    return folded, fold_map


def _fold_pair(f: Hypergraph, onto: int) -> tuple[int, int]:
    """Smallest (x, y) with deg(x) = 1 and y a vertex of the bit vector onto
    that lies in another edge, outside x's edge."""
    degs = f.degrees()
    for x in range(f.n):
        if degs[x] != 1:
            continue
        xb = 1 << x
        host = next(e for e in f.edges if e & xb)
        others = 0
        for e in f.edges:
            if e != host:
                others |= e
        candidates = others & ~host & onto
        if candidates:
            return x, edge_vertices(candidates)[0]
    raise ValueError("no admissible fold pair; is the minimum degree 1?")


def _check_fold_input(f: Hypergraph) -> None:
    if not any(pattern_profile(f)[:3]):  # a degree-1 vertex is a singleton region
        raise ValueError("need a degree-one vertex: minimum non-isolated degree is not 1")


def reduce_to_core(f1: Hypergraph) -> ReductionTrace:
    """Fold degree-one vertices until at most two edges remain or every
    non-isolated vertex has degree at least two.

    The input must have exactly three edges and a degree-one vertex. Each
    fold strictly decreases the number of degree-one vertices, so the loop
    terminates; the composed map is re-verified as a homomorphism.
    """
    _check_fold_input(f1)
    current = f1
    composed = VertexMap.identity(f1.n)
    steps = []
    while len(current.edges) == 3 and min_positive_degree(current) == 1:
        x, y = _fold_pair(current, (1 << current.n) - 1)
        current, fold_map = fold_vertex(current, x, y)
        composed = composed.then(fold_map)
        steps.append(FoldStep(x, y, current))
    status = COLLAPSED if len(current.edges) <= 2 else REACHED_MIN_DEGREE_2
    if not composed.is_homomorphism(f1, current):
        raise AssertionError("composed reduction map failed verification")
    return ReductionTrace(f1, tuple(steps), current, composed, status)


def reduce_to_max_degree3(f1: Hypergraph) -> tuple[Hypergraph, VertexMap]:
    """Map a three-edge hypergraph with a degree-one vertex into a three-edge
    target of maximum degree 3 and minimum degree at least 2.

    With maximum degree 2, a degree-one vertex is first folded onto a
    degree-two vertex that shares no edge with it, which creates a degree-3
    vertex. While three edges, a degree-one vertex and a degree-3 vertex
    remain, the plain fold reduction runs. If it reaches minimum degree 2
    that is the target; otherwise (a perfect matching, or a collapse to two
    or fewer edges) the result maps into the smallest max-degree-3 target,
    one apex over a triangle, suspended to the input's uniformity.
    """
    r = f1.r
    if r < 3:
        raise ValueError(f"need uniformity >= 3, got {r}")
    _check_fold_input(f1)

    current, composed = f1, VertexMap.identity(f1.n)
    if max_degree(f1) == 2:
        twos = sum(1 << v for v, d in enumerate(f1.degrees()) if d == 2)
        current, composed = fold_vertex(f1, *_fold_pair(f1, twos))
    if len(current.edges) == 3 and min_positive_degree(current) == 1 and max_degree(current) == 3:
        trace = reduce_to_core(current)
        current, composed = trace.terminal, composed.then(trace.map)
    if len(current.edges) == 3 and min_positive_degree(current) >= 2:
        if max_degree(current) != 3:
            raise AssertionError("reduction reached minimum degree 2 without a degree-3 vertex")
        return current, composed
    target = suspension(expanded_triangle(1), r)
    hom = find_homomorphism(current, target)
    if hom is None:
        raise AssertionError(
            f"no homomorphism from {current.edge_vertex_lists()} onto the apex target"
        )
    return target, composed.then(hom)
