"""Three-edge class enumeration and the min-degree-two classification."""

import itertools
import random
import re

import pytest

from turankit import (
    RegionProfile,
    ResultCache,
    ThreeEdgeCatalog,
    canonical_regions,
    edge_mask,
    edge_vertices,
    enumerate_three_edge,
    expanded_triangle,
    find_isomorphism,
    forbidden_triples,
    from_masks,
    is_isomorphic,
    make_hypergraph,
    max_degree,
    min_positive_degree,
    solve_family,
    suspension,
    verify_classification,
)

from turankit.catalog import realize_profile, suspension_width
from turankit.hypergraph import copy_count, pattern_profile

from helpers import brute_force_canonical_profiles, permutation_isomorphic


def brute_force_class_profiles(r: int) -> set[tuple[int, ...]]:
    """Canonical profiles of all labeled edge-triples on 3r vertices."""
    n = 3 * r
    all_edges = [edge_mask(c) for c in itertools.combinations(range(n), r)]
    profiles = set()
    for e1, e2, e3 in itertools.combinations(all_edges, 3):
        profiles.add(canonical_regions(e1, e2, e3))
    return profiles


class TestEnumeration:
    def test_r2_min_degree_two_is_triangle_only(self):
        catalog = enumerate_three_edge(2)
        core = catalog.min_degree_two
        assert len(core) == 1
        assert is_isomorphic(core[0].representative, expanded_triangle(1))

    def test_r3_min_degree_two_is_k4_minus_only(self):
        catalog = enumerate_three_edge(3)
        core = catalog.min_degree_two
        assert len(core) == 1
        assert is_isomorphic(core[0].representative, suspension(expanded_triangle(1), 3))

    def test_r4_has_two_core_classes(self):
        assert len(enumerate_three_edge(4).min_degree_two) == 2

    def test_profiles_pairwise_distinct(self):
        for r in (2, 3, 4, 5):
            catalog = enumerate_three_edge(r)
            profiles = [e.profile.as_tuple() for e in catalog.entries]
            assert len(profiles) == len(set(profiles))

    def test_representatives_have_three_edges_no_isolated(self):
        for r in range(2, 9):
            for entry in enumerate_three_edge(r).entries:
                rep = entry.representative
                assert rep == realize_profile(entry.profile, r)
                assert rep.r == r and len(rep.edges) == 3
                assert rep.support_size == rep.n
                assert pattern_profile(rep) == entry.profile

    def test_out_of_budget_rejected(self):
        with pytest.raises(ValueError):
            enumerate_three_edge(9)
        with pytest.raises(ValueError):
            enumerate_three_edge(1)


class TestBruteForceCompleteness:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_sorted_profiles_match_every_raw_profile_canonicalised(self, r):
        # Order included: the catalog lists its classes by sorted profile.
        assert [e.profile for e in enumerate_three_edge(r).entries] == brute_force_canonical_profiles(r)

    def test_labeled_enumeration_matches_r2_r3(self):
        for r in (2, 3):
            catalog = enumerate_three_edge(r)
            assert {e.profile.as_tuple() for e in catalog.entries} == brute_force_class_profiles(r)

    def test_r2_class_count_by_permutation_dedupe(self):
        # Independent of profiles entirely: group labeled triples into classes
        # with the permutation-isomorphism oracle.
        n = 6
        all_edges = [edge_mask(c) for c in itertools.combinations(range(n), 2)]
        reps = []
        for triple in itertools.combinations(all_edges, 3):
            h = from_masks(n, 2, triple)
            if not any(permutation_isomorphic(h, rep) for rep in reps):
                reps.append(h)
        assert len(reps) == len(enumerate_three_edge(2).entries)


class TestProfileCompleteness:
    # Region-profile equality must coincide with the backtracking isomorphism
    # search on every pair of classes (r <= 4, supports <= 9 vertices).
    def test_distinct_profiles_never_isomorphic(self):
        for r in (2, 3, 4):
            entries = [
                e for e in enumerate_three_edge(r).entries
                if e.representative.n <= 9
            ]
            for e1, e2 in itertools.combinations(entries, 2):
                assert find_isomorphism(e1.representative, e2.representative) is None, (
                    e1.profile,
                    e2.profile,
                )

    def test_relabeled_copies_found_by_both(self):
        rng = random.Random(23)
        for r in (2, 3, 4):
            entries = enumerate_three_edge(r).entries
            for entry in rng.sample(entries, min(8, len(entries))):
                rep = entry.representative
                perm = list(range(rep.n))
                rng.shuffle(perm)
                relabeled = make_hypergraph(
                    rep.n, r, [[perm[v] for v in edge_vertices(e)] for e in rep.edges]
                )
                assert pattern_profile(relabeled) == entry.profile
                assert find_isomorphism(rep, relabeled) is not None


class TestClassification:
    def test_counts_follow_half_uniformity(self):
        for r in range(2, 9):
            report = verify_classification(r)
            assert report.class_count == r // 2

    def test_each_width_appears_once(self):
        for r in (4, 6, 8):
            report = verify_classification(r)
            widths = sorted(i for _, i in report.matches)
            assert widths == list(range(1, r // 2 + 1))

    def test_odd_uniformity_core_classes_have_apex(self):
        # Total degree 3r is odd for odd r, so some vertex has degree 3.
        for r in (3, 5, 7):
            for entry in enumerate_three_edge(r).min_degree_two:
                assert entry.max_degree == 3

    def test_degrees_are_the_representatives_degrees(self):
        for r in range(2, 9):
            for entry in enumerate_three_edge(r).entries:
                assert entry.min_degree == min_positive_degree(entry.representative)
                assert entry.max_degree == max_degree(entry.representative)

    def test_len_counts_the_classes(self):
        counts = [len(enumerate_three_edge(r)) for r in range(2, 9)]
        assert counts == [5, 12, 25, 44, 73, 112, 166]

    def test_mismatch_raises(self):
        import turankit.catalog as catalog_module

        class Broken:
            r = 4
            min_degree_two = ()

        with pytest.raises(RuntimeError, match="classification failed"):
            verify_classification(4, Broken())

    @pytest.mark.parametrize("widths", [(1, None), (2, 2)], ids=["no-width", "width-twice"])
    def test_wrong_widths_raise(self, widths):
        # Two min-degree-2 classes at r=4, the right count, with one class
        # matching no suspension or both matching width 2.
        real = enumerate_three_edge(4).min_degree_two
        broken = ThreeEdgeCatalog(4, tuple(
            entry._replace(suspension_index=width) for entry, width in zip(real, widths)
        ))
        with pytest.raises(RuntimeError, match=re.escape(f"{real[1].profile.as_tuple()}, {widths[1]})")):
            verify_classification(4, broken)


def test_replace_keeps_the_catalog_and_its_entry_count():
    cat = enumerate_three_edge(3)
    assert len(cat) == len(cat.entries) == 12
    assert cat._replace(r=cat.r) == cat
    assert len(cat._replace(entries=cat.min_degree_two)) == len(cat.min_degree_two)


def test_suspension_width_skips_widths_past_the_vertex_capacity():
    # Suspending a width-i expanded triangle to r=44 takes 44 + i vertices,
    # so widths 21 and 22 cannot be built; a class with a degree-one vertex
    # still gets None, and the width-1 class on 45 vertices is still found.
    full = (1 << 46) - 1
    f = from_masks(46, 44, [full & ~0b11, full & ~0b1100, full & ~0b101])
    assert suspension_width(canonical_regions(*f.edges), 44) is None
    apex_triangle = suspension(expanded_triangle(1), 44)
    assert suspension_width(canonical_regions(*apex_triangle.edges), 44) == 1


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_entry_profile_is_accepted_wherever_a_profile_is(r, tmp_path):
    # A catalog entry's profile is the RegionProfile that pattern_profile
    # returns, so every profile API takes it as it is, and the conflict
    # system and a record read back from the cache carry the same type.
    n = 6
    cache = ResultCache(str(tmp_path / "cache.jsonl"))
    for entry in enumerate_three_edge(r).entries:
        f = entry.representative
        assert type(entry.profile) is RegionProfile
        assert entry.profile == pattern_profile(f)
        assert suspension_width(entry.profile, r) == entry.suspension_index
        system = forbidden_triples(f, n)
        assert type(system.family_profile) is RegionProfile
        assert copy_count(entry.profile, n) == len(system.conflicts)
        solve_family(f, n, cache=cache)
        hit = cache.lookup(entry.profile, n)
        assert hit is not None and type(hit.family_profile) is RegionProfile
        assert hit.family_profile == entry.profile
