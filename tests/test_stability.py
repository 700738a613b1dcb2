"""Odd-bipartite deviation diagnostics: decompositions, partition scans,
distances, heavy vertices, and per-link tables."""

import itertools
import random

import pytest

from turankit import (
    Hypergraph,
    link,
    Partition,
    best_partition,
    complete_rgraph,
    deviation,
    edge_mask,
    expanded_triangle,
    forbidden_triples,
    from_masks,
    heavy_missing_vertices,
    link_partition_scan,
    make_hypergraph,
    max_odd_bipartite,
    odd_bipartite,
    partition_distance,
    solve_exact,
    suspension,
)


def toggled(h, masks):
    edges = set(h.edges)
    for mask in masks:
        edges.symmetric_difference_update({mask})
    return from_masks(h.n, h.r, edges)


class TestDeviation:
    def test_self_deviation_zero(self):
        part = Partition.from_part1(7, [0, 2, 5])
        h = odd_bipartite(part, 4)
        report = deviation(h, part)
        assert report.total == report.bad == report.missing == 0

    def test_one_removed_edge(self):
        part = Partition.from_part1(6, [0, 1])
        h = odd_bipartite(part, 4)
        removed = from_masks(6, 4, h.edges[1:])
        report = deviation(removed, part)
        assert (report.bad, report.missing) == (0, 1)
        assert report.missing_edges == (h.edges[0],)

    def test_complete_host_lopsided_partition(self):
        h = complete_rgraph(6, 4)
        part = Partition.from_part1(6, [0])
        report = deviation(h, part)
        assert (report.bad, report.missing) == (5, 0)  # C(5,4) edges avoid part1

    def test_matches_symmetric_difference(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(4, 8)
            part = Partition(n, rng.randrange(1 << n))
            base = odd_bipartite(part, 2)
            h = toggled(
                base,
                [
                    sum(1 << v for v in rng.sample(range(n), 2))
                    for _ in range(rng.randint(0, 4))
                ],
            )
            probe = Partition(n, rng.randrange(1 << n))
            report = deviation(h, probe)
            reference = odd_bipartite(probe, 2)
            sym_diff = set(h.edges) ^ set(reference.edges)
            assert report.total == len(sym_diff)
            assert set(report.bad_edges) == set(h.edges) - set(reference.edges)
            assert set(report.missing_edges) == set(reference.edges) - set(h.edges)

    def test_edge_tuples_ascending(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(4, 8)
            r = rng.choice([2, 4])
            h = from_masks(
                n, r,
                [sum(1 << v for v in rng.sample(range(n), r)) for _ in range(rng.randint(0, 12))],
            )
            report = deviation(h, Partition(n, rng.randrange(1 << n)))
            assert list(report.bad_edges) == sorted(set(report.bad_edges))
            assert list(report.missing_edges) == sorted(set(report.missing_edges))

    def test_fewer_vertices_than_uniformity(self):
        report = deviation(Hypergraph(3, 4, ()), Partition.from_part1(3, [0]))
        assert report.bad_edges == report.missing_edges == ()

    def test_odd_uniformity_rejected(self):
        with pytest.raises(ValueError):
            deviation(complete_rgraph(4, 3), Partition.from_part1(4, [0]))


class TestBestPartition:
    def test_recovers_generating_partition(self):
        part = Partition.from_part1(9, [0, 3, 4, 7])
        h = odd_bipartite(part, 4)
        found, report = best_partition(h)
        assert report.total == 0
        assert found.part1 in (part.part1, part.part2)

    def test_two_toggles_bound(self):
        part = Partition.from_part1(8, [0, 1, 2])
        h = odd_bipartite(part, 4)
        perturbed = toggled(h, [h.edges[0], 0b11110000])
        _, report = best_partition(perturbed)
        assert report.total <= 2

    def test_minimality_against_explicit_partitions(self):
        rng = random.Random(17)
        h = toggled(
            odd_bipartite(Partition.from_part1(7, [0, 1]), 2),
            [0b0000011, 0b0000101],
        )
        _, best_report = best_partition(h)
        for _ in range(30):
            probe = Partition(7, rng.randrange(1 << 7))
            assert best_report.total <= deviation(h, probe).total

    def test_balanced_only_restriction(self):
        part = Partition.from_part1(6, [0])
        h = odd_bipartite(part, 4)
        found, report = best_partition(h, balanced_only=True)
        assert found.sizes in ((3, 3),)
        unrestricted, unrestricted_report = best_partition(h)
        assert unrestricted_report.total == 0 <= report.total

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            best_partition(from_masks(25, 2, [0b11]))

    @pytest.mark.parametrize("balanced_only", [False, True])
    def test_scan_matches_brute_force(self, balanced_only):
        # The minimum of (total, part1) over every partition with vertex 0
        # in part1, each scored by the exact report.
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 8)
            uniformity = rng.choice([2, 4])
            everything = [edge_mask(c) for c in itertools.combinations(range(n), uniformity)]
            edges = {e for e in everything if rng.random() < 0.5}
            if everything and rng.random() < 0.5:  # near an odd-bipartite hypergraph instead
                planted = odd_bipartite(Partition(n, rng.randrange(1 << n)), uniformity).edges
                edges = set(planted) ^ set(rng.sample(everything, min(3, len(everything))))
            h = from_masks(n, uniformity, sorted(edges))
            sizes = {n // 2, (n + 1) // 2} if balanced_only else range(n + 1)
            want = min(
                (deviation(h, Partition(n, part1)).total, part1)
                for part1 in range(1, 1 << n, 2)
                if part1.bit_count() in sizes
            )
            found, report = best_partition(h, balanced_only=balanced_only)
            assert (report.total, found.part1) == want
            assert report == deviation(h, found)

    @pytest.mark.parametrize(
        "edges, balanced_only, smallest",
        [
            # The path 0-1-2: part1 = everything (0b11111) and part2 = {1}
            # (0b11101) both deviate by 2; Gray order meets 0b11111 first.
            ([[0, 1], [1, 2]], False, 0b11101),
            # One edge {2, 3}: every balanced split that separates 2 from 3 is
            # best; Gray order meets {0, 1, 2} before {0, 2}.
            ([[2, 3]], True, 0b00101),
        ],
    )
    def test_ties_break_to_smallest_part1(self, edges, balanced_only, smallest):
        found, _ = best_partition(make_hypergraph(5, 2, edges), balanced_only=balanced_only)
        assert found.part1 == smallest


class TestPartitionDistance:
    def test_identity_and_swap(self):
        p = Partition.from_part1(6, [0, 2])
        assert partition_distance(p, p) == 0
        assert partition_distance(p, Partition(p.n, p.part2)) == 0

    def test_worked_example(self):
        p = Partition.from_part1(4, [0, 1])
        q = Partition.from_part1(4, [0, 2])
        assert partition_distance(p, q) == 2

    def test_symmetry_and_swap_invariance(self):
        rng = random.Random(41)
        for _ in range(30):
            p = Partition(6, rng.randrange(64))
            q = Partition(6, rng.randrange(64))
            d = partition_distance(p, q)
            assert d == partition_distance(q, p)
            assert d == partition_distance(Partition(p.n, p.part2), q)
            assert d == partition_distance(p, Partition(q.n, q.part2))

    def test_triangle_inequality(self):
        rng = random.Random(43)
        for _ in range(50):
            p, q, s = (Partition(7, rng.randrange(128)) for _ in range(3))
            assert partition_distance(p, s) <= partition_distance(p, q) + partition_distance(q, s)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partition_distance(Partition(4, 1), Partition(5, 1))


class TestHeavyMissingVertices:
    def test_complete_instance_has_none(self):
        part = Partition.from_part1(7, [0, 1, 2])
        h = odd_bipartite(part, 4)
        assert heavy_missing_vertices(h, part, 1) == []

    def test_single_missing_edge(self):
        part = Partition.from_part1(7, [0, 1, 2])
        h = odd_bipartite(part, 4)
        removed = from_masks(7, 4, h.edges[1:])
        heavy = heavy_missing_vertices(removed, part, 1)
        assert sum(1 << v for v in heavy) == h.edges[0]

    def test_counting_bound_on_random_perturbations(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(6, 9)
            part = Partition(n, rng.randrange(1 << n) | 1)
            base = odd_bipartite(part, 4)
            h = toggled(
                base,
                [
                    sum(1 << v for v in rng.sample(range(n), 4))
                    for _ in range(rng.randint(1, 6))
                ],
            )
            threshold = rng.randint(1, 3)
            heavy = heavy_missing_vertices(h, part, threshold)
            missing = deviation(h, part).missing
            assert len(heavy) * threshold <= 4 * missing

    def test_zero_threshold_flags_everything(self):
        part = Partition.from_part1(6, [0])
        h = odd_bipartite(part, 4)
        assert heavy_missing_vertices(h, part, 0) == list(range(6))
        # threshold 0 keeps the input checks of every other threshold
        with pytest.raises(ValueError, match="partition is over 5 vertices, hypergraph over 6"):
            heavy_missing_vertices(complete_rgraph(6, 2), Partition(5, 1), 0)
        with pytest.raises(ValueError, match=ODD_R):
            heavy_missing_vertices(complete_rgraph(6, 3), Partition(6, 1), 0)


class TestLinkPartitionScan:
    def test_apex_link_of_suspended_construction(self):
        part = Partition.from_part1(6, [0, 1])
        base = odd_bipartite(part, 2)
        hat = suspension(base, 3)  # apex is vertex 6
        assert set(link(hat, 6).edges) == set(base.edges)
        scan = link_partition_scan(hat)
        apex_row = scan.rows[6]
        # The apex itself must land in one part, which costs exactly the
        # smaller part size in missing cross pairs; the rest fits perfectly.
        assert apex_row.bad == 0 and apex_row.missing == 2 and apex_row.total == 2
        restricted = apex_row.partition.part1 & ((1 << 6) - 1)
        assert restricted in (part.part1, part.part2)

    def test_single_edge_edit_moves_one_row_by_at_most_one(self):
        part = Partition.from_part1(6, [0, 1])
        hat = suspension(odd_bipartite(part, 2), 3)
        edited = toggled(hat, [0b0010101])  # one 3-edge touching vertices 0, 2, 4
        scan, edited_scan = link_partition_scan(hat), link_partition_scan(edited)
        for row, row2 in zip(scan.rows, edited_scan.rows):
            assert abs(row2.total - row.total) <= 1

    def test_pinned_solver_witness_scan(self):
        # Witness of the exact k4minus solve at n=7; the scan table is a
        # regression pin from the first computation.
        k4m = suspension(expanded_triangle(1), 3)
        record = solve_exact(forbidden_triples(k4m, 7, "k4minus"))
        assert record.optimum == 15 and record.proved_optimal
        w = record.witness_hypergraph()
        scan = link_partition_scan(w)
        assert all(scan.rows[x] == best_partition(link(w, x))[1] for x in range(w.n))
        assert [row.total for row in scan.rows] == [5] * 7
        assert scan.max_distance == 3
        assert scan.distances[0] == (0, 3, 2, 2, 2, 2, 3)

    def test_even_uniformity_rejected(self):
        with pytest.raises(ValueError):
            link_partition_scan(complete_rgraph(5, 4))


class TestAcceptanceShapes:
    def test_t4_witness_at_six_is_the_construction(self):
        t4 = expanded_triangle(2)
        record = solve_exact(forbidden_triples(t4, 6, "expanded-triangle-k2"))
        part, report = best_partition(record.witness_hypergraph())
        assert record.optimum == 10
        assert report.total == 0
        assert part.sizes in ((1, 5), (5, 1))
        assert max_odd_bipartite(6, 4)[2] == 10


ODD_R = r"^uniformity must be even and >= 2, got 3$"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: deviation(complete_rgraph(6, 2), Partition(5, 1)),
         "partition is over 5 vertices, hypergraph over 6"),
        (lambda: best_partition(Hypergraph(0, 2, ())), "need at least one vertex"),
        (lambda: heavy_missing_vertices(complete_rgraph(6, 2), Partition(6, 1), -1),
         "threshold must be non-negative"),
        # one even-uniformity rule, checked by max_odd_bipartite before its
        # part-size scan and the size rule
        (lambda: odd_bipartite(Partition(6, 1), 3), ODD_R),
        (lambda: max_odd_bipartite(10**9, 3), ODD_R),
        (lambda: deviation(complete_rgraph(6, 3), Partition(6, 1)), ODD_R),
        (lambda: best_partition(complete_rgraph(6, 3)), ODD_R),
    ],
    ids=["deviation-other-n", "best-partition-empty", "negative-threshold",
         "odd-bipartite-odd-r", "max-odd-bipartite-odd-r", "deviation-odd-r",
         "best-partition-odd-r"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
