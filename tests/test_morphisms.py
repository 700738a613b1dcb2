"""Homomorphism search, vertex folding, and the reduction procedures."""

import itertools

import pytest

from turankit import (
    COLLAPSED,
    REACHED_MIN_DEGREE_2,
    enumerate_three_edge,
    expanded_triangle,
    find_homomorphism,
    fold_vertex,
    is_isomorphic,
    make_hypergraph,
    matching,
    max_degree,
    min_positive_degree,
    reduce_to_core,
    reduce_to_max_degree3,
    suspension,
)

from helpers import all_maps_homomorphism_exists

K3 = expanded_triangle(1)


def degree_one_count(h):
    return sum(1 for d in h.degrees() if d == 1)


class TestFindHomomorphism:
    def test_identity_exists(self):
        f = make_hypergraph(7, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        vm = find_homomorphism(f, f)
        assert vm is not None and vm.is_homomorphism(f, f)

    def test_triangle_to_single_edge_none(self):
        single = make_hypergraph(2, 2, [[0, 1]])
        assert find_homomorphism(K3, single) is None
        assert not all_maps_homomorphism_exists(K3, single)

    def test_matching_to_degree3_target(self):
        for r in (3, 4):
            target = suspension(K3, r)
            vm = find_homomorphism(matching(r, 3), target)
            assert vm is not None and vm.is_homomorphism(matching(r, 3), target)

    def test_agrees_with_exhaustive_search(self):
        pool = [
            make_hypergraph(4, 2, [[0, 1], [1, 2], [2, 3]]),
            make_hypergraph(3, 2, [[0, 1], [1, 2], [0, 2]]),
            make_hypergraph(2, 2, [[0, 1]]),
            make_hypergraph(4, 2, [[0, 1], [2, 3]]),
            make_hypergraph(5, 2, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]),
        ]
        for f1, f2 in itertools.product(pool, repeat=2):
            found = find_homomorphism(f1, f2)
            assert (found is not None) == all_maps_homomorphism_exists(f1, f2)
            if found is not None:
                assert found.is_homomorphism(f1, f2)

    def test_uniformity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            find_homomorphism(K3, suspension(K3, 3))


class TestFoldVertex:
    def test_disjoint_pairs(self):
        f = make_hypergraph(4, 2, [[0, 1], [2, 3]])
        folded, vm = fold_vertex(f, 0, 2)
        assert folded == make_hypergraph(4, 2, [[1, 2], [2, 3]])
        assert vm.images == (2, 1, 2, 3)

    def test_duplicate_merges(self):
        f = make_hypergraph(4, 2, [[0, 1], [1, 2], [2, 3]])
        folded, _ = fold_vertex(f, 3, 1)  # {2,3} -> {1,2}, already present
        assert len(folded.edges) == 2

    def test_matching_degree_one_count_drops(self):
        f = matching(2, 3)
        assert degree_one_count(f) == 6
        folded, _ = fold_vertex(f, 0, 2)
        assert degree_one_count(folded) == 4

    def test_degree_requirement(self):
        with pytest.raises(ValueError, match="degree"):
            fold_vertex(K3, 0, 2)

    def test_target_inside_host_edge_rejected(self):
        f = make_hypergraph(4, 2, [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="lies in"):
            fold_vertex(f, 0, 1)


class TestReduceToCore:
    def test_pair_matching_collapses(self):
        trace = reduce_to_core(matching(2, 3))
        assert trace.status == COLLAPSED
        assert len(trace.terminal.edges) <= 2
        assert trace.map.is_homomorphism(trace.original, trace.terminal)

    def test_path_of_triples(self):
        f = make_hypergraph(7, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 6]])
        trace = reduce_to_core(f)
        assert trace.map.is_homomorphism(f, trace.terminal)
        assert trace.status in (COLLAPSED, REACHED_MIN_DEGREE_2)

    def test_degree_one_count_strictly_decreases(self):
        # The measure drops on every step that keeps three edges; a merge
        # down to two edges ends the loop and is exempt.
        for f in (
            matching(3, 3),
            make_hypergraph(7, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 6]]),
            make_hypergraph(6, 3, [[0, 1, 2], [0, 1, 3], [3, 4, 5]]),
        ):
            trace = reduce_to_core(f)
            counts = [degree_one_count(f)] + [degree_one_count(s.result) for s in trace.steps]
            for (before, after), step in zip(zip(counts, counts[1:]), trace.steps):
                assert after < before or len(step.result.edges) <= 2
            assert len(trace.steps) <= counts[0]

    def test_terminal_condition(self):
        f = make_hypergraph(5, 3, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        trace = reduce_to_core(f)
        if trace.status == REACHED_MIN_DEGREE_2:
            assert len(trace.terminal.edges) == 3
            assert min_positive_degree(trace.terminal) >= 2
        else:
            assert len(trace.terminal.edges) <= 2

    def test_min_degree_two_input_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_core(K3)

    def test_deterministic_fold_choice(self):
        f = matching(2, 3)
        t1 = reduce_to_core(f)
        t2 = reduce_to_core(f)
        assert [(s.x, s.y) for s in t1.steps] == [(s.x, s.y) for s in t2.steps]
        assert t1.steps[0].x == 0 and t1.steps[0].y == 2  # smallest admissible pair


class TestReduceToMaxDegree3:
    def test_matching_maps_to_apex_target(self):
        f1 = matching(3, 3)
        target, vm = reduce_to_max_degree3(f1)
        assert is_isomorphic(target, suspension(K3, 3))
        assert vm.is_homomorphism(f1, target)

    def test_degree3_input(self):
        f1 = make_hypergraph(5, 3, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        target, vm = reduce_to_max_degree3(f1)
        assert is_isomorphic(target, suspension(K3, 3))
        assert vm.is_homomorphism(f1, target)

    def test_degree2_chain(self):
        f1 = make_hypergraph(8, 4, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])
        assert max_degree(f1) == 2
        target, vm = reduce_to_max_degree3(f1)
        assert min_positive_degree(target) >= 2 and max_degree(target) == 3
        assert vm.is_homomorphism(f1, target)

    def test_totality_small_uniformities(self):
        # The full r = 3, 4, 5 sweep is an acceptance criterion; r <= 4 here.
        for r in (3, 4):
            catalog = enumerate_three_edge(r)
            widths = {
                i: suspension(expanded_triangle(i), r) for i in range(1, r // 2 + 1)
            }
            for entry in catalog.min_degree_one:
                f1 = entry.representative
                target, vm = reduce_to_max_degree3(f1)
                assert vm.is_homomorphism(f1, target), entry.profile
                assert max_degree(target) == 3
                assert any(
                    is_isomorphic(target, t) for i, t in widths.items() if 2 * i < r
                ), entry.profile

    def test_fold_pair_exists_for_max_degree_two(self):
        # A degree-1 vertex and a degree-2 vertex sharing no edge always exist
        # when the maximum degree is 2 and the minimum is 1.
        from turankit.morphisms import _claim_pair

        for r in (3, 4, 5):
            for entry in enumerate_three_edge(r).min_degree_one:
                rep = entry.representative
                if max_degree(rep) != 2:
                    continue
                pair = _claim_pair(rep)
                assert pair is not None, entry.profile
                x, y = pair
                degs = rep.degrees()
                assert degs[x] == 1 and degs[y] == 2
                assert not any(e >> x & 1 and e >> y & 1 for e in rep.edges)

    def test_uniformity_two_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_max_degree3(make_hypergraph(4, 2, [[0, 1], [1, 2], [2, 3]]))

    def test_min_degree_two_input_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_max_degree3(suspension(K3, 3))


FOLD_INPUT = "^need a degree-one vertex: minimum non-isolated degree is not 1$"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fold_vertex(matching(2, 3), 6, 0), "fold vertices out of range"),
        (lambda: reduce_to_max_degree3(matching(3, 2)), "need exactly 3 edges, got 2"),
        # one fold-input rule: every vertex of an expanded triangle has degree 2
        (lambda: reduce_to_core(expanded_triangle(2)), FOLD_INPUT),
        (lambda: reduce_to_max_degree3(expanded_triangle(2)), FOLD_INPUT),
    ],
    ids=["fold-vertex-range", "degree3-two-edges", "core-min-degree-2", "degree3-min-degree-2"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
