"""Named constructions: expanded triangles, suspensions, odd-bipartite
hypergraphs, matchings, complete r-graphs."""

import itertools
import random
from math import comb

import pytest

from turankit import (
    Hypergraph,
    Partition,
    complete_rgraph,
    copies_of,
    expanded_triangle,
    is_isomorphic,
    link,
    make_hypergraph,
    matching,
    max_odd_bipartite,
    odd_bipartite,
    odd_bipartite_count,
    suspension,
)

K3 = expanded_triangle(1)


class TestExpandedTriangle:
    def test_width_one_is_triangle(self):
        assert is_isomorphic(K3, make_hypergraph(3, 2, [[0, 1], [1, 2], [0, 2]]))

    def test_width_two_shape(self):
        t4 = expanded_triangle(2)
        assert t4.n == 6 and t4.r == 4 and len(t4.edges) == 3
        for a, b in itertools.combinations(t4.edges, 2):
            assert (a & b).bit_count() == 2

    def test_all_degrees_two(self):
        for k in (1, 2, 3, 5):
            assert set(expanded_triangle(k).degrees()) == {2}

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            expanded_triangle(0)


class TestSuspension:
    def test_same_uniformity_identity(self):
        assert suspension(K3, 2) == K3

    def test_triangle_to_three(self):
        assert is_isomorphic(
            suspension(K3, 3), make_hypergraph(4, 3, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        )

    def test_nested_equals_direct(self):
        assert is_isomorphic(suspension(suspension(K3, 4), 6), suspension(K3, 6))

    def test_apex_degree_law(self):
        t4 = expanded_triangle(2)
        hat = suspension(t4, 7)
        degs = hat.degrees()
        for apex in range(6, hat.n):
            assert degs[apex] == len(t4.edges)
        assert degs[:6] == t4.degrees()

    def test_below_uniformity_rejected(self):
        with pytest.raises(ValueError):
            suspension(K3, 1)

    @pytest.mark.parametrize(
        "f",
        [expanded_triangle(2), matching(3, 2), make_hypergraph(7, 3, [[0, 1, 2], [2, 3, 4]]),
         Hypergraph(4, 5, ())],
        ids=["expanded-triangle-2", "matching", "isolated-vertices", "edgeless"],
    )
    def test_zero_apexes_give_an_equal_hypergraph(self, f):
        assert suspension(f, f.r) == f

    def test_link_of_single_apex_recovers_base(self):
        for base in (K3, expanded_triangle(2)):
            hat = suspension(base, base.r + 1)
            apex = hat.n - 1
            recovered = link(hat, apex)
            assert set(recovered.edges) == set(base.edges)

    def test_link_of_apex_in_deeper_suspension(self):
        base = expanded_triangle(1)
        hat = suspension(base, 4)  # two apexes
        for apex in (3, 4):
            assert is_isomorphic(link(hat, apex), suspension(base, 3))


class TestOddBipartite:
    def test_balanced_pairs(self):
        part = Partition.from_part1(4, [0, 1])
        h = odd_bipartite(part, 2)
        assert len(h.edges) == 4  # complete bipartite 2x2

    def test_single_vertex_part(self):
        part = Partition.from_part1(6, [0])
        h = odd_bipartite(part, 4)
        assert len(h.edges) == comb(5, 3) == 10

    def test_empty_part_gives_empty(self):
        part = Partition.from_part1(6, [])
        assert len(odd_bipartite(part, 4).edges) == 0

    def test_odd_uniformity_rejected(self):
        with pytest.raises(ValueError):
            odd_bipartite(Partition.from_part1(6, [0]), 3)

    def test_fewer_vertices_than_uniformity_is_edgeless(self):
        assert odd_bipartite(Partition(3, 1), 4).edges == ()

    def test_closed_form_matches_materialization(self):
        for n in range(4, 9):
            for t in range(n + 1):
                part = Partition(n, (1 << t) - 1)
                for uniformity in (2, 4):
                    if n < uniformity:
                        continue
                    assert len(odd_bipartite(part, uniformity).edges) == odd_bipartite_count(
                        n, t, uniformity
                    )

    def test_both_parts_met_oddly(self):
        part = Partition.from_part1(7, [0, 2, 4])
        h = odd_bipartite(part, 4)
        for e in h.edges:
            assert (e & part.part1).bit_count() % 2 == 1
            assert (e & part.part2).bit_count() % 2 == 1


class TestMaxOddBipartite:
    def test_four_vertices_pairs(self):
        part, h, count = max_odd_bipartite(4, 2)
        assert count == 4 and part.sizes == (2, 2)

    def test_six_vertices_quadruples(self):
        part, h, count = max_odd_bipartite(6, 4)
        assert count == 10 and part.sizes == (1, 5)
        assert len(h.edges) == 10

    def test_six_vertices_pairs(self):
        _, _, count = max_odd_bipartite(6, 2)
        assert count == 9

    def test_optimal_over_all_sizes(self):
        for n in range(4, 10):
            _, _, count = max_odd_bipartite(n, 4)
            assert count == max(odd_bipartite_count(n, t, 4) for t in range(n + 1))

    def test_monotone_in_n(self):
        for uniformity in (2, 4):
            counts = [max_odd_bipartite(n, uniformity)[2] for n in range(uniformity, 12)]
            assert counts == sorted(counts)

    def test_too_few_vertices_edgeless(self):
        # Every part size counts 0; the tie goes to the more balanced partition.
        part, h, count = max_odd_bipartite(3, 4)
        assert part.sizes == (1, 2)
        assert h == Hypergraph(3, 4, ()) and count == 0


class TestHelpers:
    def test_matching(self):
        h = matching(3, 3)
        assert h.n == 9 and len(h.edges) == 3
        assert max(h.degrees()) == 1

    def test_complete_counts(self):
        assert len(complete_rgraph(4, 3).edges) == 4
        assert len(complete_rgraph(6, 4).edges) == 15

    def test_complete_too_small_is_edgeless(self):
        assert complete_rgraph(2, 3) == Hypergraph(2, 3, ())


class TestParityFreeness:
    # The three edges of an expanded-triangle copy cover every vertex an even
    # number of times, so their part1-intersection parities sum to an even
    # number; three odd numbers cannot. Spot checks here, the exhaustive
    # n <= 10 sweep lives in the acceptance suite.
    def test_small_sweep(self):
        for k, n in ((1, 6), (2, 7)):
            pattern = expanded_triangle(k)
            for rest in range(1 << (n - 1)):
                part = Partition(n, (rest << 1) | 1)
                host = odd_bipartite(part, 2 * k)
                assert next(copies_of(pattern, host), None) is None

    def test_perturbed_instance_not_free(self):
        # Adding an even-meeting edge can create a copy: sanity-check the
        # machinery actually detects copies in near-bipartite hosts.
        part = Partition.from_part1(6, [0, 1, 2])
        host = odd_bipartite(part, 2)
        spiked = make_hypergraph(
            6, 2, host.edge_vertex_lists() + [[0, 1], [1, 2], [0, 2]]
        )
        assert len(list(copies_of(expanded_triangle(1), spiked))) > 0


class TestPartition:
    def test_swap(self):
        p = Partition.from_part1(5, [0, 3])
        assert Partition(p.n, p.part2).part2 == p.part1
        assert p.sizes == (2, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Partition(3, 0b1000)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition(65, 1), r"vertex count 65 outside 0\.\.64"),
        (lambda: expanded_triangle(22), r"vertex count 66 outside 0\.\.64"),
        (lambda: suspension(K3, 64), r"vertex count 65 outside 0\.\.64"),
        (lambda: max_odd_bipartite(6, 3), "uniformity must be even and >= 2, got 3"),
        (lambda: matching(3, -1), r"vertex count -3 outside 0\.\.64"),
        # capacity is checked before any edge is built
        (lambda: matching(2, 60000), r"vertex count 120000 outside 0\.\.64"),
        (lambda: complete_rgraph(65, 6), r"vertex count 65 outside 0\.\.64"),
        (lambda: complete_rgraph(65, 66), r"vertex count 65 outside 0\.\.64"),
    ],
    ids=["partition-65", "expanded-triangle-22", "suspension-65", "max-odd-bipartite-odd-r",
         "matching-negative", "matching-120000", "complete-65", "complete-n-below-r"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
