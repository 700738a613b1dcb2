"""Core hypergraph type: construction, degrees, links, isomorphism, copies."""

import itertools
import random
import time
import tracemalloc

import pytest

from turankit import (
    Hypergraph,
    Partition,
    RegionProfile,
    VertexMap,
    canonical_regions,
    complete_rgraph,
    copies_of,
    density_sequence,
    edge_mask,
    edge_vertices,
    enumerate_three_edge,
    expanded_triangle,
    find_isomorphism,
    forbidden_triples,
    format_hypergraph,
    from_masks,
    is_isomorphic,
    link,
    make_hypergraph,
    matching,
    max_odd_bipartite,
    parse_hypergraph,
    reduce_to_core,
    reduce_to_max_degree3,
    solve_family,
    suspension,
)
from turankit.catalog import realize_profile
from turankit.hypergraph import MAX_VERTICES, suspension_width

from helpers import brute_force_copies, permutation_isomorphic

K3 = make_hypergraph(3, 2, [[0, 1], [1, 2], [0, 2]])
K4_MINUS = make_hypergraph(4, 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])


def random_hypergraph(rng, n, r, density=0.4):
    masks = [edge_mask(c) for c in itertools.combinations(range(n), r) if rng.random() < density]
    return from_masks(n, r, masks)


class TestConstruction:
    def test_triangle(self):
        assert K3.n == 3 and K3.r == 2 and len(K3.edges) == 3

    def test_k4_minus(self):
        assert len(K4_MINUS.edges) == 3
        assert K4_MINUS.support_size == 4

    def test_duplicates_merged(self):
        h = make_hypergraph(3, 2, [[0, 1], [0, 1], [1, 2]])
        assert len(h.edges) == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="vertices"):
            make_hypergraph(4, 3, [[0, 1]])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            make_hypergraph(4, 2, [[1, 1]])

    @pytest.mark.parametrize("edge", [[0, 3], [-1, 1], [False, 1], [0.0, 1]])
    def test_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError, match="outside"):
            make_hypergraph(3, 2, [edge])

    def test_capacity_bound(self):
        with pytest.raises(ValueError, match="outside"):
            Hypergraph(65, 2, ())

    def test_equality_is_canonical(self):
        a = make_hypergraph(3, 2, [[0, 1], [1, 2]])
        b = make_hypergraph(3, 2, [[2, 1], [1, 0]])
        assert a == b


class TestTextFormat:
    def test_round_trip(self):
        text = format_hypergraph(K4_MINUS)
        assert parse_hypergraph(text) == K4_MINUS

    def test_header(self):
        assert format_hypergraph(K3).splitlines()[0] == "n=3 r=2"

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\nn=3 r=2\n\n0 1\n# ignored\n1 2\n"
        assert parse_hypergraph(text) == make_hypergraph(3, 2, [[0, 1], [1, 2]])

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            parse_hypergraph("n=4 r=3\n0 1\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_hypergraph("0 1\n")


class TestDegrees:
    def test_triangle_degrees(self):
        assert K3.degrees() == [2, 2, 2]

    def test_k4_minus_apex(self):
        assert K4_MINUS.degrees() == [3, 2, 2, 2]

    def test_expanded_triangle_all_degree_two(self):
        for k in range(1, 5):
            assert set(expanded_triangle(k).degrees()) == {2}

    def test_handshake(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 9)
            r = rng.randint(1, min(4, n))
            h = random_hypergraph(rng, n, r)
            degs = h.degrees()
            assert sum(degs) == h.r * len(h.edges)
            assert degs == [sum(e >> v & 1 for e in h.edges) for v in range(h.n)]


class TestLink:
    def test_apex_link_recovers_base(self):
        assert is_isomorphic(link(K4_MINUS, 0), K3)

    def test_triangle_link(self):
        lk = link(K3, 0)
        assert lk.r == 1 and len(lk.edges) == 2

    def test_matching_link(self):
        lk = link(matching(3, 3), 0)
        assert lk.r == 2 and len(lk.edges) == 1

    def test_link_size_equals_degree(self):
        rng = random.Random(13)
        for _ in range(20):
            h = random_hypergraph(rng, rng.randint(3, 8), rng.randint(2, 3))
            for v, d in enumerate(h.degrees()):
                assert len(link(h, v).edges) == d

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            link(make_hypergraph(2, 1, [[0]]), 0)


class TestRegionProfile:
    def test_sums_give_uniformity(self):
        prof = RegionProfile.of(K4_MINUS)
        t = prof.as_tuple()
        assert t[0] + t[3] + t[4] + t[6] == 3
        assert t[1] + t[3] + t[5] + t[6] == 3
        assert t[2] + t[4] + t[5] + t[6] == 3

    def test_expanded_triangle_profile(self):
        assert RegionProfile.of(expanded_triangle(2)).as_tuple() == (0, 0, 0, 2, 2, 2, 0)

    def test_relabeling_invariance(self):
        def raw_regions(x, y, z):
            t = (x & y & z).bit_count()
            xy, xz, yz = ((a & b).bit_count() - t for a, b in ((x, y), (x, z), (y, z)))
            return (x.bit_count() - xy - xz - t, y.bit_count() - xy - yz - t,
                    z.bit_count() - xz - yz - t, xy, xz, yz, t)

        rng = random.Random(3)
        symmetric = make_hypergraph(6, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 0]])
        asymmetric = realize_profile((3, 2, 1, 1, 2, 3, 0), 6)
        for base in (symmetric, asymmetric):
            expected = min(raw_regions(*p) for p in itertools.permutations(base.edges))
            assert RegionProfile.of(base).as_tuple() == expected
            for _ in range(10):
                perm = list(range(base.n))
                rng.shuffle(perm)
                edges = [edge_mask(perm[v] for v in edge_vertices(e)) for e in base.edges]
                rng.shuffle(edges)
                assert canonical_regions(*edges) == expected
                relabeled = from_masks(base.n, base.r, edges)
                assert RegionProfile.of(relabeled) == RegionProfile.of(base)

    def test_needs_three_edges(self):
        with pytest.raises(ValueError):
            RegionProfile.of(make_hypergraph(3, 2, [[0, 1]]))


class TestSuspensionWidth:
    def test_every_buildable_suspension(self):
        # Every (r, i) whose r-suspension of the width-i expanded triangle fits
        # in 64 vertices: r + i <= 64.
        pairs = [(r, i) for r in range(2, MAX_VERTICES + 1)
                 for i in range(1, min(r // 2, MAX_VERTICES - r) + 1)]
        assert len(pairs) == 672
        for r, i in pairs:
            f = suspension(expanded_triangle(i), r)
            assert suspension_width(canonical_regions(*f.edges), r) == i, (r, i)

    def test_min_degree_one_classes_have_none(self):
        for r in range(2, 9):
            for entry in enumerate_three_edge(r).min_degree_one:
                assert suspension_width(entry.profile.as_tuple(), r) is None, entry.profile


class TestIsomorphism:
    def test_triangle_is_expanded_triangle(self):
        assert is_isomorphic(K3, expanded_triangle(1))

    def test_k4_minus_is_suspended_triangle(self):
        assert is_isomorphic(K4_MINUS, suspension(expanded_triangle(1), 3))

    def test_width_two_not_suspension(self):
        t4 = expanded_triangle(2)
        hat = suspension(expanded_triangle(1), 4)
        assert not is_isomorphic(t4, hat)
        assert not permutation_isomorphic(t4, hat)

    def test_isolated_vertices_ignored(self):
        padded = make_hypergraph(6, 2, [[0, 1], [1, 2], [0, 2]])
        assert is_isomorphic(padded, K3)

    def test_profile_agrees_with_permutation_search(self):
        rng = random.Random(11)
        pool = [
            make_hypergraph(6, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 0]]),
            make_hypergraph(6, 3, [[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
            make_hypergraph(6, 3, [[0, 1, 2], [3, 4, 5], [0, 3, 4]]),
            expanded_triangle(2),
            suspension(expanded_triangle(1), 4),
        ]
        for _ in range(30):
            f1, f2 = rng.choice(pool), rng.choice(pool)
            assert is_isomorphic(f1, f2) == permutation_isomorphic(f1, f2)

    def test_witness_is_a_real_bijection(self):
        hat5 = suspension(expanded_triangle(2), 5)
        shuffled = make_hypergraph(
            7, 5, [[6 - v for v in edge_vertices(e)] for e in hat5.edges]
        )
        witness = find_isomorphism(hat5, shuffled)
        assert witness is not None
        edges2 = set(shuffled.edges)
        for e in hat5.edges:
            assert edge_mask(witness[v] for v in edge_vertices(e)) in edges2

    def test_edgeless_pairs_are_isomorphic(self):
        # With no edges there are no non-isolated vertices to match, so any
        # two edgeless hypergraphs are isomorphic, whatever their n and r.
        for f1, f2 in ((Hypergraph(3, 2, ()), Hypergraph(3, 2, ())),
                       (Hypergraph(2, 2, ()), Hypergraph(5, 3, ()))):
            assert is_isomorphic(f1, f2)
            assert find_isomorphism(f1, f2) == {}

    def test_four_edge_fallback(self):
        square = make_hypergraph(4, 2, [[0, 1], [1, 2], [2, 3], [3, 0]])
        path = make_hypergraph(5, 2, [[0, 1], [1, 2], [2, 3], [3, 4]])
        assert not is_isomorphic(square, path)
        relabeled = make_hypergraph(4, 2, [[2, 3], [3, 1], [1, 0], [0, 2]])
        assert is_isomorphic(square, relabeled)


class TestCopies:
    def test_triangles_in_k4(self):
        assert len(list(copies_of(K3, complete_rgraph(4, 2)))) == 4

    def test_k4_minus_in_complete(self):
        host = complete_rgraph(4, 3)
        found = list(copies_of(K4_MINUS, host))
        assert len(found) == 4
        assert sorted(found) == sorted(brute_force_copies(K4_MINUS, host))

    def test_pattern_in_itself(self):
        for f in (K3, K4_MINUS, expanded_triangle(2)):
            assert len(list(copies_of(f, f))) == 1

    def test_agrees_with_brute_force(self):
        # Every class for r=2..4; a class whose support exceeds the host's n
        # checks that no false copy is reported.
        rng = random.Random(5)
        cases = [(expanded_triangle(2), 7, 0.35)] * 6 + [(K4_MINUS, 6, 0.45)] * 6
        for r, n, density in ((2, 6, 0.5), (3, 8, 0.25), (4, 8, 0.25)):
            cases += [(entry.representative, n, density) for entry in enumerate_three_edge(r).entries]
        for f, n, density in cases:
            h = random_hypergraph(rng, n, f.r, density)
            assert list(copies_of(f, h)) == sorted(brute_force_copies(f, h))

    def test_uniformity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            list(copies_of(K3, K4_MINUS))

    def test_needs_three_edge_pattern(self):
        with pytest.raises(ValueError):
            list(copies_of(make_hypergraph(2, 2, [[0, 1]]), K3))


class TestVertexMap:
    def test_identity_is_homomorphism(self):
        vm = VertexMap.identity(K3.n)
        assert vm.is_homomorphism(K3, K3)

    def test_composition(self):
        a = VertexMap(2, 3, (1, 2))
        b = VertexMap(3, 2, (0, 1, 0))
        assert a.then(b).images == (1, 0)

    def test_image_validation(self):
        with pytest.raises(ValueError):
            VertexMap(1, 1, (4,))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Hypergraph(3, 0, ()), r"uniformity 0 outside 1\.\.64"),
        (lambda: Hypergraph(3, 2, (0b110, 0b011)), "edges must be deduplicated and sorted ascending"),
        (lambda: Hypergraph(3, 2, (0b011, 0b011)), "edges must be deduplicated and sorted ascending"),
        (lambda: Hypergraph(3, 2, (0b1001,)), r"edge \[0, 3\] uses a vertex outside 0\.\.2"),
        (lambda: Hypergraph(3, 2, (0b111,)), r"edge \[0, 1, 2\] does not have exactly 2 vertices"),
        (lambda: parse_hypergraph("# no header\n\n"), "missing header line 'n=<n> r=<r>'"),
        (lambda: link(K3, 3), r"vertex 3 outside 0\.\.2"),
        (lambda: VertexMap(3, 3, (0, 1)), "image array length must equal the domain size"),
        (lambda: VertexMap.identity(3).then(VertexMap.identity(4)),
         "composition needs matching codomain/domain sizes"),
    ],
    ids=["r-zero", "unsorted", "repeated", "vertex-past-n", "wrong-size", "no-header",
         "link-vertex", "image-count", "then-sizes"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


BIG = 10**8


@pytest.mark.parametrize(
    "build",
    [
        lambda: Hypergraph(BIG, 2, ()),
        lambda: Hypergraph(3, BIG, ()),
        lambda: make_hypergraph(BIG, 2, [[0, BIG - 1]]),
        lambda: make_hypergraph(3, BIG, []),
        lambda: parse_hypergraph(f"n={BIG} r=2\n0 {BIG - 1}\n"),
        lambda: parse_hypergraph(f"n=3 r={BIG}\n"),
        lambda: Partition(BIG, 1),
        lambda: Partition.from_part1(BIG, [0, BIG - 1]),
        lambda: Partition.from_part1(6, [0, BIG]),
        lambda: expanded_triangle(BIG),
        lambda: suspension(K3, BIG),
        lambda: matching(2, BIG),
        lambda: matching(BIG, 1),
        lambda: complete_rgraph(BIG, 2),
        lambda: max_odd_bipartite(BIG, 4),
        lambda: max_odd_bipartite(6, BIG),
        lambda: forbidden_triples(K3, BIG),
        lambda: solve_family(K3, BIG),
        lambda: density_sequence(K3, [BIG]),
    ],
    ids=["hypergraph-n", "hypergraph-r", "make-n", "make-r", "parse-n", "parse-r",
         "partition-n", "from-part1-n", "from-part1-vertex", "expanded-triangle",
         "suspension", "matching-m", "matching-r", "complete", "max-odd-bipartite-n",
         "max-odd-bipartite-r", "forbidden-triples", "solve-family", "density-sequence"],
)
def test_sizes_checked_before_building(build):
    # A size of 10**8 is refused before anything of that size is built or
    # scanned: a mask 1 << 10**8 alone is 12.5 MB.
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(ValueError, match="outside"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call",
    [
        lambda f: next(copies_of(f, complete_rgraph(6, 3))),
        RegionProfile.of,
        lambda f: forbidden_triples(f, 6),
        lambda f: solve_family(f, 6),
        reduce_to_core,
        reduce_to_max_degree3,
    ],
    ids=["copies-of", "region-profile", "forbidden-triples", "solve-family",
         "reduce-to-core", "reduce-to-max-degree3"],
)
def test_three_edge_rule_has_one_wording(call):
    with pytest.raises(ValueError, match="^need exactly 3 edges, got 2$"):
        call(matching(3, 2))
