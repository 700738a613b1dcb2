"""Isomorph-free enumeration of all three-edge r-graphs and verification of
the minimum-degree-two classification.

Classes are enumerated directly as region profiles (the seven Venn-region
cardinalities), a complete isomorphism invariant for three-edge hypergraphs,
so no labeled search is needed. Only sorted profiles (a1 <= a2 <= a3) are
generated, and each of them is canonical, so none is canonicalised. An
entry's degrees are read off its profile, and its representative is built
only when asked.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .constructions import expanded_triangle, suspension
from .hypergraph import (
    Hypergraph,
    RegionProfile,
    canonical_regions,
    from_masks,
    suspension_width,
)

MIN_UNIFORMITY = 2
MAX_UNIFORMITY = 8


class CatalogEntry(NamedTuple):
    """One class, given by its canonical profile. The representative is
    realize_profile of the profile, built afresh on each access."""

    profile: RegionProfile
    min_degree: int
    max_degree: int
    # index i such that the class is the r-suspension of the width-i expanded
    # triangle; None for classes with a degree-one vertex
    suspension_index: Optional[int]

    @property
    def representative(self) -> Hypergraph:
        p = self.profile
        return realize_profile(p, p.a1 + p.a12 + p.a13 + p.a123)


class ThreeEdgeCatalog(NamedTuple("ThreeEdgeCatalog", [("r", int),
                                                        ("entries", tuple[CatalogEntry, ...])])):
    """One representative per isomorphism class of three-edge r-graphs;
    len() is the entry count."""

    __slots__ = ()
    # the namedtuple _make checks len(), which here counts entries
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def min_degree_one(self) -> tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries if e.min_degree == 1)

    @property
    def min_degree_two(self) -> tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries if e.min_degree >= 2)

    def __len__(self) -> int:
        return len(self.entries)


def _canonical_profiles(r: int) -> list[RegionProfile]:
    """All region profiles of three pairwise-distinct r-edges, one per class.

    A canonical profile has a1 <= a2 <= a3, that is a12 >= a13 >= a23, and
    each sorted profile is canonical: a_i = a_j forces a_ik = a_jk, so edges
    tied on their singleton regions swap to the same profile."""
    profiles = []
    for a123 in range(r + 1):
        for a12 in range(r - a123 + 1):
            for a13 in range(min(a12, r - a123 - a12) + 1):
                for a23 in range(a13 + 1):
                    a2 = r - a12 - a23 - a123
                    # in a sorted profile any two equal edges force e1 == e2,
                    # that is a1 = a2 = a13 = a23 = 0
                    if a2 + a13:
                        profiles.append(RegionProfile(r - a12 - a13 - a123, a2, r - a13 - a23 - a123,
                                                      a12, a13, a23, a123))
    return sorted(profiles)


def realize_profile(profile: tuple[int, ...], r: int) -> Hypergraph:
    """Concrete hypergraph with the given region counts, using contiguous
    index blocks per region in the order (1, 2, 3, 12, 13, 23, 123)."""
    blocks, total = [], 0
    for size in profile:
        blocks.append(((1 << size) - 1) << total)
        total += size
    b1, b2, b3, b12, b13, b23, b123 = blocks
    e1 = b1 | b12 | b13 | b123
    e2 = b2 | b12 | b23 | b123
    e3 = b3 | b13 | b23 | b123
    return from_masks(total, r, (e1, e2, e3))


def enumerate_three_edge(r: int) -> ThreeEdgeCatalog:
    """Catalog of all isomorphism classes of three-edge r-graphs, with no
    isolated vertices, tagged by minimum degree and, for minimum degree two,
    by the matching suspended-expanded-triangle index."""
    if not MIN_UNIFORMITY <= r <= MAX_UNIFORMITY:
        raise ValueError(f"uniformity {r} outside the supported range "
                         f"{MIN_UNIFORMITY}..{MAX_UNIFORMITY}")
    entries = []
    for p in _canonical_profiles(r):
        # a vertex's degree is the number of edges its region lies in
        pairs = p.a12 or p.a13 or p.a23
        entries.append(CatalogEntry(p, 1 if p.a1 or p.a2 or p.a3 else 2 if pairs else 3,
                                    3 if p.a123 else 2 if pairs else 1, suspension_width(p, r)))
    return ThreeEdgeCatalog(r, tuple(entries))


class ClassificationReport(NamedTuple):
    r: int
    class_count: int
    matches: tuple[tuple[RegionProfile, int], ...]


def verify_classification(r: int, catalog: ThreeEdgeCatalog | None = None) -> ClassificationReport:
    """Check that the minimum-degree-two classes are exactly the suspensions
    of expanded triangles of width 1..floor(r/2), one class per width: their
    (profile, width) pairs must be those of the constructions, built here.

    Any mismatch raises with a counterexample dump: it would mean a bug in
    the enumerator, the constructions, or the region profiles.
    """
    if catalog is None:
        catalog = enumerate_three_edge(r)
    matches = tuple((e.profile, e.suspension_index) for e in catalog.min_degree_two)
    built = [(canonical_regions(*suspension(expanded_triangle(i), r).edges), i)
             for i in range(1, r // 2 + 1)]
    # A class with no width counts as 0, so it can never match a construction.
    if sorted((p, width or 0) for p, width in matches) != sorted(built):
        raise RuntimeError(
            f"classification failed for r={r}: the min-degree-2 classes (profile, width) "
            f"{[(tuple(p), width) for p, width in matches]} do not have the widths "
            f"1..{r // 2} once each"
        )
    return ClassificationReport(r=r, class_count=len(matches), matches=matches)
