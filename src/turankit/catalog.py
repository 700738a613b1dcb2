"""Isomorph-free enumeration of all three-edge r-graphs and verification of
the minimum-degree-two classification.

Classes are enumerated directly as region profiles (the seven Venn-region
cardinalities), which is a complete isomorphism invariant for three-edge
hypergraphs, so no labeled search or canonical-form machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import expanded_triangle, suspension
from .hypergraph import (
    Hypergraph,
    RegionProfile,
    canonical_profile,
    canonical_regions,
    from_masks,
    suspension_width,
)

MIN_UNIFORMITY = 2
MAX_UNIFORMITY = 8


@dataclass(frozen=True)
class CatalogEntry:
    profile: RegionProfile
    representative: Hypergraph
    min_degree: int
    max_degree: int
    # index i such that the class is the r-suspension of the width-i expanded
    # triangle; None for classes with a degree-one vertex
    suspension_index: Optional[int]


@dataclass(frozen=True)
class ThreeEdgeCatalog:
    """One representative per isomorphism class of three-edge r-graphs."""

    r: int
    entries: tuple[CatalogEntry, ...]

    @property
    def min_degree_one(self) -> tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries if e.min_degree == 1)

    @property
    def min_degree_two(self) -> tuple[CatalogEntry, ...]:
        return tuple(e for e in self.entries if e.min_degree >= 2)

    def __len__(self) -> int:
        return len(self.entries)


def _canonical_profiles(r: int) -> list[tuple[int, ...]]:
    """All region profiles of three pairwise-distinct r-edges, one per class."""
    seen = set()
    for a123 in range(r + 1):
        for a12 in range(r - a123 + 1):
            for a13 in range(r - a123 - a12 + 1):
                a1 = r - a12 - a13 - a123
                for a23 in range(r - a123 - a12 + 1):
                    a2 = r - a12 - a23 - a123
                    a3 = r - a13 - a23 - a123
                    if a2 < 0 or a3 < 0:
                        continue
                    # pairwise distinct edges
                    if a1 + a13 + a2 + a23 == 0:
                        continue
                    if a1 + a12 + a3 + a23 == 0:
                        continue
                    if a2 + a12 + a3 + a13 == 0:
                        continue
                    seen.add(canonical_profile((a1, a2, a3, a12, a13, a23, a123)))
    return sorted(seen)


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
    for profile in _canonical_profiles(r):
        rep = realize_profile(profile, r)
        degrees = rep.degrees()  # realize_profile leaves no vertex isolated
        entries.append(
            CatalogEntry(
                profile=RegionProfile(*profile),
                representative=rep,
                min_degree=min(degrees),
                max_degree=max(degrees),
                suspension_index=suspension_width(profile, r),
            )
        )
    return ThreeEdgeCatalog(r, tuple(entries))


@dataclass(frozen=True)
class ClassificationReport:
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
    if sorted((p.as_tuple(), width or 0) for p, width in matches) != sorted(built):
        raise RuntimeError(
            f"classification failed for r={r}: the min-degree-2 classes (profile, width) "
            f"{[(p.as_tuple(), width) for p, width in matches]} do not have the widths "
            f"1..{r // 2} once each"
        )
    return ClassificationReport(r=r, class_count=len(matches), matches=matches)
