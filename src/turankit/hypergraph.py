"""Uniform hypergraphs on at most 64 vertices, stored as edge bit vectors.

Vertices are the integers 0..n-1 and an edge is an n-bit integer with exactly
r bits set, so intersection, union, and containment checks are single
machine-word operations. Edge tuples are deduplicated and sorted by numeric
value, which makes hypergraph equality a plain value comparison.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce
from math import factorial, perm, prod
from typing import Iterable, Iterator, NamedTuple, Optional

MAX_VERTICES = 64
MAX_BUILD = 10_000_000  # r-sets or conflicts built (about 1.2 µs, under 100 B each), or partitions scanned


def check_capacity(n: int, r: int = 1) -> None:
    """The one size rule, checked before anything of size n or r is built:
    n in 0..64 and r in 1..64 (r > 64 only refuses edgeless inputs)."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if not 1 <= r <= MAX_VERTICES:
        raise ValueError(f"uniformity {r} outside 1..{MAX_VERTICES}")


def check_build(count: int, items: str) -> None:
    """The one work limit (r-sets or conflicts built, partitions scanned), checked after check_capacity."""
    if count > MAX_BUILD:
        raise ValueError(f"{count:,} {items} exceed the build limit {MAX_BUILD:,}")


def edge_mask(vertices: Iterable[int]) -> int:
    """Pack vertex indices into an edge bit vector."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def edge_vertices(mask: int) -> list[int]:
    """Unpack an edge bit vector into sorted vertex indices."""
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return vs


class Hypergraph(NamedTuple("Hypergraph", [("n", int), ("r", int), ("edges", tuple[int, ...])])):
    """Immutable r-uniform hypergraph on vertex set {0..n-1}."""

    __slots__ = ()
    # so _replace, like the constructor, runs the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, r: int, edges: tuple[int, ...]):
        check_capacity(n, r)
        full = (1 << n) - 1
        prev = -1
        for e in edges:
            if e <= prev:
                raise ValueError("edges must be deduplicated and sorted ascending")
            if e & ~full:
                raise ValueError(f"edge {edge_vertices(e)} uses a vertex outside 0..{n - 1}")
            if e.bit_count() != r:
                raise ValueError(f"edge {edge_vertices(e)} does not have exactly {r} vertices")
            prev = e
        return super().__new__(cls, n, r, edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for e in self.edges:
            for v in edge_vertices(e):
                degs[v] += 1
        return degs

    @property
    def support_mask(self) -> int:
        return reduce(operator.or_, self.edges, 0)

    @property
    def support_size(self) -> int:
        return self.support_mask.bit_count()

    def edge_vertex_lists(self) -> list[list[int]]:
        return [edge_vertices(e) for e in self.edges]


def from_masks(n: int, r: int, masks: Iterable[int]) -> Hypergraph:
    """Build a hypergraph from edge bit vectors, deduplicating and sorting."""
    return Hypergraph(n, r, tuple(sorted(set(masks))))


def checked_edge_mask(n: int, r: int, *vertices: int) -> int:
    """edge_mask of r distinct int vertices of 0..n-1, else ValueError. The
    checks come before any shift, so no vertex number sets an int's size."""
    if len({*vertices}) != len(vertices):
        raise ValueError(f"edge {list(vertices)} repeats a vertex")
    if len(vertices) != r:
        raise ValueError(f"edge {list(vertices)} has {len(vertices)} vertices, expected {r}")
    for v in vertices:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"vertex {v!r} outside the integers 0..{n - 1}")
    return edge_mask(vertices)


def make_hypergraph(n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a hypergraph from vertex lists, each checked by
    checked_edge_mask once n and r are; duplicate edges are silently merged."""
    check_capacity(n, r)
    return from_masks(n, r, (checked_edge_mask(n, r, *edge) for edge in edges))


# -- text format ---------------------------------------------------------

def format_hypergraph(h: Hypergraph) -> str:
    """Serialize to the text format: header `n=<n> r=<r>`, one edge per line."""
    lines = [f"n={h.n} r={h.r}"]
    lines.extend(" ".join(str(v) for v in edge_vertices(e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format produced by format_hypergraph.

    Blank lines and lines starting with '#' are ignored. The header's n and r
    are checked as soon as it is read; edges with the wrong number of
    vertices are rejected.
    """
    header = None
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("r="):
                raise ValueError(f"bad header line {line!r}, expected 'n=<n> r=<r>'")
            header = (int(parts[0][2:]), int(parts[1][2:]))
            check_capacity(*header)
        else:
            edges.append([int(tok) for tok in line.split()])
    if header is None:
        raise ValueError("missing header line 'n=<n> r=<r>'")
    return make_hypergraph(header[0], header[1], edges)


# -- degrees and links ---------------------------------------------------

def min_positive_degree(h: Hypergraph) -> int:
    """Smallest degree among non-isolated vertices; 0 if there are no edges."""
    return min((d for d in h.degrees() if d > 0), default=0)


def max_degree(h: Hypergraph) -> int:
    return max(h.degrees(), default=0)


def link(h: Hypergraph, v: int) -> Hypergraph:
    """Link of v: edge remainders of the edges through v, of uniformity r-1.

    The vertex set is unchanged; v becomes isolated in the result.
    """
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} outside 0..{h.n - 1}")
    if h.r < 2:
        raise ValueError("link undefined for 1-uniform hypergraphs")
    bit = 1 << v
    return from_masks(h.n, h.r - 1, (e & ~bit for e in h.edges if e & bit))


# -- vertex maps -----------------------------------------------------------

class VertexMap(NamedTuple("VertexMap", [("domain_size", int), ("codomain_size", int),
                                          ("images", tuple[int, ...])])):
    """Total map from one vertex set into another, not necessarily injective."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, domain_size: int, codomain_size: int, images: tuple[int, ...]):
        if len(images) != domain_size:
            raise ValueError("image array length must equal the domain size")
        for w in images:
            if not 0 <= w < codomain_size:
                raise ValueError(f"image {w} outside 0..{codomain_size - 1}")
        return super().__new__(cls, domain_size, codomain_size, images)

    def is_homomorphism(self, source: Hypergraph, target: Hypergraph) -> bool:
        """True when the image of every source edge is an edge of the target."""
        target_edges, images = frozenset(target.edges), self.images
        return all(edge_mask(images[v] for v in edge_vertices(e)) in target_edges for e in source.edges)

    def then(self, after: "VertexMap") -> "VertexMap":
        """Composition: first apply this map, then `after`."""
        if self.codomain_size != after.domain_size:
            raise ValueError("composition needs matching codomain/domain sizes")
        return VertexMap(
            self.domain_size,
            after.codomain_size,
            tuple(after.images[w] for w in self.images),
        )

    @classmethod
    def identity(cls, n: int) -> "VertexMap":
        return cls(n, n, tuple(range(n)))


# -- three-edge region profile -------------------------------------------

class RegionProfile(NamedTuple):
    """Venn-region cardinalities of a three-edge hypergraph.

    The seven counts (a1, a2, a3, a12, a13, a23, a123) record how many
    vertices lie in exactly the labeled combination of the three edges. The
    canonical profile is the lexicographic minimum over the six relabelings
    of the edges, which makes equality a complete isomorphism test for
    three-edge hypergraphs: vertices inside one region are interchangeable.
    """

    a1: int
    a2: int
    a3: int
    a12: int
    a13: int
    a23: int
    a123: int

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)


def _regions(e1: int, e2: int, e3: int) -> tuple[int, ...]:
    a123 = (e1 & e2 & e3).bit_count()
    a12 = (e1 & e2).bit_count() - a123
    a13 = (e1 & e3).bit_count() - a123
    a23 = (e2 & e3).bit_count() - a123
    a1 = e1.bit_count() - a12 - a13 - a123
    a2 = e2.bit_count() - a12 - a23 - a123
    a3 = e3.bit_count() - a13 - a23 - a123
    return (a1, a2, a3, a12, a13, a23, a123)


# Reordering the edges as (a, b, c) permutes the singleton regions like the
# edge labels and the pair regions like the label pairs; the pair region of
# edges {i, j} sits at index 2 + i + j.
_S3_GETTERS = tuple(
    operator.itemgetter(a, b, c, 2 + a + b, 2 + a + c, 2 + b + c, 6)
    for a, b, c in itertools.permutations(range(3))
)


def canonical_profile(profile: tuple[int, ...]) -> RegionProfile:
    """Region counts minimized over the six relabelings of the three edges."""
    return RegionProfile._make(min([g(profile) for g in _S3_GETTERS]))


def canonical_regions(e1: int, e2: int, e3: int) -> RegionProfile:
    """Canonical region profile of the three edges."""
    return canonical_profile(_regions(e1, e2, e3))


def pattern_profile(f: Hypergraph) -> RegionProfile:
    """The one three-edge rule: f's canonical region profile, if f has 3 edges."""
    if len(f.edges) != 3:
        raise ValueError(f"need exactly 3 edges, got {len(f.edges)}")
    return canonical_regions(*f.edges)


def copy_count(profile: tuple[int, ...], n: int) -> int:
    """Copies of the three-edge class with this region profile in K_n^(r): its
    region placements on [n] over the edge orders that fix the profile."""
    placements = perm(n, sum(profile)) // prod(map(factorial, profile))
    return placements // sum(g(profile) == profile for g in _S3_GETTERS)


def suspension_width(profile: tuple[int, ...], r: int) -> Optional[int]:
    """Width i such that the class with this canonical region profile is the
    r-suspension of the width-i expanded triangle, else None. That profile is
    (0, 0, 0, i, i, i, r - 2i) under every edge order, so nothing is built."""
    i = profile[3]
    return i if i >= 1 and tuple(profile) == (0, 0, 0, i, i, i, r - 2 * i) else None


# -- isomorphism ----------------------------------------------------------

def _iso_invariants(h: Hypergraph) -> tuple:
    degs = sorted(d for d in h.degrees() if d > 0)
    inters = sorted((a & b).bit_count() for a, b in itertools.combinations(h.edges, 2))
    return (h.r, len(h.edges), h.support_size, tuple(degs), tuple(inters))


def _edge_map_search(
    f1: Hypergraph,
    f2: Hypergraph,
    candidates: dict[int, Iterable[int]],
    injective: bool,
) -> Optional[dict[int, int]]:
    """Backtracking search for a vertex map sending every edge of f1 to an edge of f2.

    `candidates` maps each non-isolated vertex of f1 to its allowed images and
    fixes the assignment order. Forward checking keeps every partial edge
    image inside some edge of f2 without collapsing two vertices of one edge;
    with `injective` no two vertices share an image. Returns the first map
    found, or None when there is none.
    """
    order = list(candidates.items())
    edges2 = f2.edges
    incident = [[i for i, e in enumerate(f1.edges) if e >> v & 1] for v, _ in order]

    def place(idx: int, images: list[int], used: int) -> Optional[dict[int, int]]:
        # Each candidate extends a copy of the partial edge images: no undo.
        if idx == len(order):
            return {}
        v, ws = order[idx]
        for w in ws:
            wb = 1 << w
            if injective and used & wb:
                continue
            extended = images.copy()
            for ei in incident[idx]:
                im = extended[ei] | wb
                # w already in the image would collapse two vertices of one edge
                if extended[ei] & wb or not any(im & e == im for e in edges2):
                    break
                extended[ei] = im
            else:
                found = place(idx + 1, extended, used | wb)
                if found is not None:
                    return {v: w, **found}
        return None

    return place(0, [0] * len(f1.edges), 0)


def find_isomorphism(f1: Hypergraph, f2: Hypergraph) -> Optional[dict[int, int]]:
    """Search for a bijection between non-isolated vertices mapping edges onto edges.

    Backtracks over degree-compatible assignments; returns None when no
    isomorphism exists. Isolated vertices are ignored on both sides.
    """
    if not f1.edges and not f2.edges:
        return {}
    if _iso_invariants(f1) != _iso_invariants(f2):
        return None
    degs1, degs2 = f1.degrees(), f2.degrees()
    verts1 = sorted((v for v in range(f1.n) if degs1[v]), key=lambda v: (-degs1[v], v))
    candidates = {v: [w for w in range(f2.n) if degs2[w] == degs1[v]] for v in verts1}
    return _edge_map_search(f1, f2, candidates, injective=True)


def is_isomorphic(f1: Hypergraph, f2: Hypergraph) -> bool:
    """Isomorphism test ignoring isolated vertices.

    Two three-edge inputs are decided by region-profile equality; every other
    pair by find_isomorphism, whose invariants cover r and the edge count.
    """
    if len(f1.edges) == len(f2.edges) == 3:
        return canonical_regions(*f1.edges) == canonical_regions(*f2.edges)
    return find_isomorphism(f1, f2) is not None


# -- copy enumeration ------------------------------------------------------

def copies_of(f: Hypergraph, h: Hypergraph) -> Iterator[tuple[int, int, int]]:
    """Yield the 3-subsets of h's edges forming a copy of the three-edge f.

    Triples are yielded as ascending edge bit vectors, in lexicographic order.
    Empty output means h is f-free. Isolated vertices are ignored when
    matching.

    For r-sets e1, e2, e3 the intersection sizes (|e1∩e2|, |e1∩e3|, |e2∩e3|,
    |e1∩e2∩e3|) fix all seven region counts, so a host triple is a copy
    exactly when its sizes equal f's under one of the six edge orders.

    The work grows with the pairs and copies found, not with m³ for m host
    edges. For each edge e_i and each pair size s that an order needs, a
    big-int row has bit t set when |e_i ∩ e_{i+1+t}| = s: one bit per edge
    pair and needed size. One loop takes each pair e_i, e_j (j > i) from the
    set bits of e_i's rows and finds its third edges e_k, k > j, by lookup or
    by rows: e_i ^ e_j for the width-r/2 expanded triangle, else the set bits
    of (row_i[s13] >> (j - i)) & row_j[s23], ORed over the orders with that
    |e_i∩e_j| and checked on the triple intersection. One walk, edge_vertices,
    lists set bits in ascending order, which gives the lexicographic order.
    """
    profile = pattern_profile(f)
    if f.r != h.r:
        raise ValueError(f"uniformity mismatch: pattern r={f.r}, host r={h.r}")
    edges = h.edges
    a123 = profile[6]
    # Under each edge order, |ei∩ej| is the pair region plus the triple one.
    shapes = {
        (a12 + a123, a13 + a123, a23 + a123)
        for *_, a12, a13, a23, _ in (g(profile) for g in _S3_GETTERS)
    }
    m = len(edges)
    rows = {s: [0] * m for shape in shapes for s in shape}
    # inc[v] has bit k set when vertex v lies in edge k.
    inc = [0] * h.n
    vertices = [edge_vertices(e) for e in edges]
    for k, vs in enumerate(vertices):
        for v in vs:
            inc[v] |= 1 << k
    top = max(rows)
    for i, vs in enumerate(vertices[:-1]):  # the last edge has no later ones
        # exact[c] has bit t set when e_{i+1+t} meets c of the vertices of
        # e_i added so far; an edge that meets more than top drops out.
        exact = [((1 << m) - 1) >> (i + 1)] + [0] * top
        for v in vs:
            x = inc[v] >> (i + 1)
            out = ~x
            for c in range(top, 0, -1):
                exact[c] = exact[c] & out | exact[c - 1] & x
            exact[0] &= out
        for s, row in rows.items():
            row[i] = exact[s]
    # (row_i[s13], row_j[s23]) pairs that some shape allows after each |ei∩ej|.
    follow = {s12: [(rows[s13], rows[s23]) for s, s13, s23 in shapes if s == s12] for s12, _, _ in shapes}
    # The expanded triangle's third edge is ei ^ ej: one lookup, where rows,
    # blind to its empty triple region, offer many candidates to check.
    lookup = set(edges) if suspension_width(profile, f.r) == f.r / 2 else None
    for i, ei in enumerate(edges):
        pairs = 0
        for s12 in follow:
            pairs |= rows[s12][i]
        for t in edge_vertices(pairs):
            j = i + 1 + t
            ej = edges[j]
            if lookup is not None:
                ek = ei ^ ej
                # ek > ej: each copy is found once, from its two smallest edges.
                if ek > ej and ek in lookup:
                    yield (ei, ej, ek)
                continue
            eij = ei & ej
            third = 0
            for row13, row23 in follow[eij.bit_count()]:
                third |= row13[i] >> (j - i) & row23[j]
            for t in edge_vertices(third):
                ek = edges[j + 1 + t]
                if (eij & ek).bit_count() == a123:
                    yield (ei, ej, ek)
