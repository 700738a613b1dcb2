"""Conflict systems, the exact solver, the result cache, and constraint export.

Pinned optima in this file were first computed with the exhaustive subset-scan
oracle (m <= 20) and cross-checked against an independent integer-programming
solve; see also the acceptance suite.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import turankit
from turankit import (
    ResultCache,
    SolveRecord,
    STATUS_LOWER_BOUND,
    STATUS_OPTIMAL,
    audit_density_monotone,
    copies_of,
    density_sequence,
    enumerate_three_edge,
    expanded_triangle,
    export_cnf,
    export_ilp,
    forbidden_triples,
    make_hypergraph,
    matching,
    max_odd_bipartite,
    solve_exact,
    solve_family,
    suspension,
)

from helpers import (
    K33_RECORD,
    NON_RECORDS,
    dpll_satisfiable,
    interrupt_at_first_poll,
    lose_first_copy,
    milp_optimum,
    parse_dimacs,
    parse_lp_maximize,
    plain_subset_scan_optimum,
    reference_search,
    subset_scan_optimum,
)
from turankit.catalog import realize_profile

K3 = expanded_triangle(1)
K4_MINUS = suspension(K3, 3)
T4 = expanded_triangle(2)
K33 = make_hypergraph(6, 2, K33_RECORD["witness"])


class TestForbiddenTriples:
    def test_triangle_on_four(self):
        system = forbidden_triples(K3, 4)
        assert len(system.ground) == 6
        assert len(system.conflicts) == 4

    def test_k4_minus_on_five(self):
        system = forbidden_triples(K4_MINUS, 5)
        assert len(system.ground) == 10
        assert len(system.conflicts) == 20  # 5 four-sets, 4 triples each

    def test_width_two_on_six(self):
        system = forbidden_triples(T4, 6)
        assert len(system.ground) == 15
        assert len(system.conflicts) == 15  # perfect pairings: 6!/(2^3 3!)

    def test_conflicts_are_copies(self):
        system = forbidden_triples(K4_MINUS, 5)
        for triple in system.conflicts:
            masks = [system.ground[i] for i in triple]
            h = make_hypergraph(5, 3, [[v for v in range(5) if m >> v & 1] for m in masks])
            assert len(list(copies_of(K4_MINUS, h))) == 1

    def test_conflicts_deduplicated_and_sorted(self):
        system = forbidden_triples(K3, 5)
        assert list(system.conflicts) == sorted(set(system.conflicts))
        for a, b, c in system.conflicts:
            assert a < b < c

    def test_trivially_unconstrained(self):
        system = forbidden_triples(T4, 5)
        assert 5 < T4.support_size and not system.conflicts

    def test_non_three_edge_pattern_rejected(self):
        with pytest.raises(ValueError):
            forbidden_triples(make_hypergraph(3, 2, [[0, 1]]), 4)

    def test_a_build_one_copy_short_raises(self, monkeypatch):
        # copy_count is the closed form of the conflict count, so it certifies
        # the scan: a scan that loses a copy fails the build, and no solve
        # sees the incomplete system.
        lose_first_copy(monkeypatch)
        for build in (lambda: forbidden_triples(K3, 4), lambda: solve_family(K3, 4)):
            with pytest.raises(AssertionError, match="^3 conflicts built, 4 copies counted$"):
                build()


class TestSolveExact:
    def test_mantel_small(self):
        for n, expected in ((3, 2), (4, 4), (5, 6), (6, 9)):
            record = solve_exact(forbidden_triples(K3, n))
            assert record.optimum == expected == n * n // 4
            assert record.proved_optimal

    def test_oracle_equivalence_small_instances(self):
        instances = [
            forbidden_triples(K3, n) for n in range(3, 7)
        ] + [
            forbidden_triples(K4_MINUS, n) for n in range(4, 7)
        ] + [
            forbidden_triples(T4, 6),
        ]
        # one lopsided min-degree-1 pattern as well
        exotic = enumerate_three_edge(3).min_degree_one[0].representative
        instances.append(forbidden_triples(exotic, 6))
        for system in instances:
            assert len(system.ground) <= 20
            assert solve_exact(system).optimum == subset_scan_optimum(system)

    def test_witness_is_pattern_free_and_sized(self):
        for f, n in ((K3, 6), (K4_MINUS, 5), (T4, 6)):
            record = solve_exact(forbidden_triples(f, n))
            witness = record.witness_hypergraph()
            assert len(witness.edges) == record.optimum
            assert next(copies_of(f, witness), None) is None

    def test_k4_minus_pinned_values(self):
        # n=6 and n=7 cross-checked against an independent MILP solve.
        for n, expected in ((4, 2), (5, 5), (6, 10), (7, 15)):
            record = solve_exact(forbidden_triples(K4_MINUS, n))
            assert record.optimum == expected and record.proved_optimal

    def test_seeded_solve_matches_and_dominates(self):
        seed = max_odd_bipartite(6, 4)[1]
        record = solve_exact(forbidden_triples(T4, 6), seed_witness=seed)
        assert record.optimum == 10
        assert record.optimum >= len(seed.edges)

    def test_bad_seed_rejected(self):
        bad = make_hypergraph(4, 2, [[0, 1], [0, 2], [1, 2]])
        with pytest.raises(ValueError, match="forbidden"):
            solve_exact(forbidden_triples(K3, 4), seed_witness=bad)

    def test_budget_exhaustion_is_flagged(self):
        seed = max_odd_bipartite(8, 2)[1]
        record = solve_exact(
            forbidden_triples(K3, 8), budget_nodes=5, seed_witness=seed
        )
        assert record.status == STATUS_LOWER_BOUND
        assert record.optimum >= 16
        assert next(copies_of(K3, record.witness_hypergraph()), None) is None

    def test_randomized_patterns_match_oracle(self):
        # Arbitrary catalog patterns on small ground sets: the search must
        # agree with the exhaustive scan regardless of conflict structure.
        import random

        rng = random.Random(2468)
        pool = []
        for r in (2, 3):
            catalog = enumerate_three_edge(r)
            pool.extend(entry.representative for entry in catalog.entries)
        checked = 0
        for pattern in rng.sample(pool, 10):
            n = pattern.support_size + rng.randint(0, 2)
            system = forbidden_triples(pattern, n)
            if len(system.ground) > 16:
                continue
            assert solve_exact(system).optimum == subset_scan_optimum(system)
            checked += 1
        assert checked >= 5

    def test_every_small_class_matches_subset_scan(self):
        # Every r=2..5 class at every n where its system has conflicts and
        # the subset scan covers the ground set: the net under any change to
        # the prune or branching rules. C(n, r) is checked before building.
        systems = [
            system
            for r in range(2, 6)
            for entry in enumerate_three_edge(r).entries
            for n in range(entry.representative.support_size, 8)
            if comb(n, r) <= 22
            and (system := forbidden_triples(entry.representative, n)).conflicts
        ]
        assert len(systems) == 42
        for system in systems:
            assert solve_exact(system).optimum == subset_scan_optimum(system)

    def test_subset_scan_matches_plain_scan(self):
        # The table oracle against one pass per conflict: every r=2,3 class
        # from its support while m <= 16, and random systems whose conflicts
        # fall in either half of the table's split or across it.
        import random

        systems = [
            forbidden_triples(entry.representative, n)
            for r in (2, 3)
            for entry in enumerate_three_edge(r).entries
            for n in range(entry.representative.support_size, 7)
            if comb(n, r) <= 16
        ]
        rng = random.Random(1357)
        for m in range(3, 17):
            triples = list(itertools.combinations(range(m), 3))
            conflicts = rng.sample(triples, rng.randint(0, min(len(triples), 3 * m)))
            systems.append(SimpleNamespace(ground=range(m), conflicts=conflicts))
        assert len(systems) == 32
        for system in systems:
            assert subset_scan_optimum(system) == plain_subset_scan_optimum(system)

    def test_random_valid_seeds_do_not_change_optimum(self):
        import random

        rng = random.Random(97)
        system = forbidden_triples(K3, 6)
        reference = solve_exact(system).optimum
        for _ in range(10):
            size = rng.randint(0, 4)
            while True:
                seed = rng.sample(system.ground, size)
                chosen = {system.ground.index(m) for m in seed}
                if not any(set(c) <= chosen for c in system.conflicts):
                    break
            record = solve_exact(system, seed_witness=seed)
            assert record.optimum == reference

    def test_seed_as_mask_iterable(self):
        system = forbidden_triples(K3, 4)
        record = solve_exact(system, seed_witness=[system.ground[0]])
        assert record.optimum == 4

    def test_zero_second_budget(self):
        # The deadline is polled every 256 nodes, so an instance needing more
        # nodes than that must come back as a lower bound.
        record = solve_exact(forbidden_triples(K3, 9), budget_secs=0.0)
        assert record.status == STATUS_LOWER_BOUND
        # A tiny instance may legitimately finish before the first poll.
        tiny = solve_exact(forbidden_triples(K3, 4), budget_secs=0.0)
        assert tiny.optimum == 4

    def test_empty_ground(self):
        record = solve_exact(forbidden_triples(K3, 1))
        assert record.optimum == 0 and record.proved_optimal

    def test_unconstrained_system(self):
        record = solve_exact(forbidden_triples(T4, 5))
        assert record.optimum == 5  # all C(5,4) edges fit
        assert record.proved_optimal

    def test_node_counts_pinned(self):
        # The search tree is fixed by the branch order (most active
        # conflicts, lowest index on ties) and the packing order (two-
        # undecided conflicts first, then by index). A kernel rewrite must
        # keep both, so it must keep these counts.
        # The r=3 class at n = 8 has the census proof with the most nodes that
        # m - |exc| <= incumbent prunes before any packing (596 of 3,963).
        dense = realize_profile((1, 1, 2, 1, 0, 0, 1), 3)
        for f, n, nodes in ((K3, 8, 91), (K3, 9, 295), (K3, 10, 667), (K4_MINUS, 6, 71),
                            (dense, 8, 3963)):
            record = solve_exact(forbidden_triples(f, n))
            assert (record.nodes, record.status) == (nodes, STATUS_OPTIMAL)
        seeded = solve_exact(forbidden_triples(T4, 7), seed_witness=max_odd_bipartite(7, 4)[1])
        assert (seeded.optimum, seeded.nodes) == (20, 493)
        cut = solve_exact(forbidden_triples(K3, 11), budget_nodes=500)
        assert (cut.optimum, cut.nodes, cut.status) == (30, 500, STATUS_LOWER_BOUND)

    def test_node_budget_of_n_allows_n_nodes(self):
        # The triangle's proofs at n = 5..8 take 7, 19, 31 and 91 nodes: a
        # budget of exactly that many proves them, one fewer cuts them there.
        for n, nodes in ((5, 7), (6, 19), (7, 31), (8, 91)):
            system = forbidden_triples(K3, n)
            exact = solve_exact(system, budget_nodes=nodes)
            assert (exact.nodes, exact.status) == (nodes, STATUS_OPTIMAL)
            cut = solve_exact(system, budget_nodes=nodes - 1)
            assert (cut.nodes, cut.status) == (nodes - 1, STATUS_LOWER_BOUND)

    def test_setup_is_linear_in_the_conflict_count(self):
        # One node on 13,860 and on 278,460 conflicts (20 times as many),
        # over 66 and 153 ground edges. The m * C / 8 bitset bytes grow 47
        # times, so a linear setup lands between 20 and 47 times: building
        # each edge's bitset once as bytes takes 22 to 27 times as long
        # (0.010 and 0.22 s); setting each conflict's bit in ints that grow
        # as they go is quadratic and takes 130 to 150 times as long (0.016
        # and 2.2 s, Python 3.11, 2 cores). Best of three, sizes interleaved,
        # so load that slows one size slows the other.
        small, large = (forbidden_triples(matching(2, 3), n) for n in (12, 18))
        assert (len(small.conflicts), len(large.conflicts)) == (13_860, 278_460)
        best = [float("inf")] * 2
        for _ in range(3):
            for i, system in enumerate((small, large)):
                start = time.perf_counter()
                solve_exact(system, budget_nodes=1)
                best[i] = min(best[i], time.perf_counter() - start)
        assert best[1] / best[0] < 50

    def test_incumbent_above_the_cap_raises(self):
        with pytest.raises(ValueError, match="9 edges exceeds the cap 8"):
            solve_exact(forbidden_triples(K3, 6), seed_witness=K33, cap=8)

    def test_matches_reference_search(self):
        # Every r=2,3 class at n = support .. support+2 with conflicts and at
        # most 35 ground edges: same optimum, node count and witness as the
        # per-node rescanning search in the test helpers.
        instances = []
        for r in (2, 3):
            for entry in enumerate_three_edge(r).entries:
                f = entry.representative
                for n in range(f.support_size, f.support_size + 3):
                    system = forbidden_triples(f, n)
                    if system.conflicts and len(system.ground) <= 35:
                        instances.append((entry.profile, system))
        assert len(instances) == 36 and len({p for p, _ in instances}) == 15
        # The dense r=4,5 systems (up to 1,260 conflicts on 35 edges) at
        # n = support, support+1, where propagation does most of the work.
        # C(n, r) is checked before building: the copy scan is cubic in it.
        dense = []
        for r in (4, 5):
            for entry in enumerate_three_edge(r).entries:
                f = entry.representative
                for n in (f.support_size, f.support_size + 1):
                    if comb(n, r) <= 35:
                        system = forbidden_triples(f, n)
                        if system.conflicts:
                            dense.append((entry.profile, system))
        assert len(dense) == 21 and len({p for p, _ in dense}) == 15
        for _, system in instances + dense:
            record = solve_exact(system)
            assert reference_search(system) == (record.optimum, record.nodes, record.witness)
        system = forbidden_triples(T4, 7)
        seed = max_odd_bipartite(7, 4)[1]
        seed_mask = sum(1 << system.ground.index(e) for e in seed.edges)
        record = solve_exact(system, seed_witness=seed)
        assert reference_search(system, seed_mask) == (record.optimum, record.nodes, record.witness)

    def test_rebuild_path_matches_reference_search(self):
        # A dense r=3 system: 5,040 conflicts on 56 edges, where a child
        # usually finds more dead conflicts than twice its undecided edges
        # and rebuilds its branch counts instead of updating the parent's.
        system = forbidden_triples(realize_profile((0, 1, 2, 2, 1, 0, 0), 3), 8)
        assert (len(system.conflicts), len(system.ground)) == (5040, 56)
        record = solve_exact(system)
        assert (record.optimum, record.nodes) == (21, 281)
        assert reference_search(system) == (record.optimum, record.nodes, record.witness)

    @pytest.mark.parametrize("budgets", [
        {"budget_nodes": 0},
        {"budget_nodes": -5},
        {"budget_secs": -1.0},
        {"budget_secs": float("nan")},
    ])
    def test_bad_budgets_rejected(self, budgets):
        with pytest.raises(ValueError, match="budget"):
            solve_exact(forbidden_triples(K3, 5), **budgets)
        with pytest.raises(ValueError, match="budget"):
            solve_family(K3, 5, **budgets)

    @settings(derandomize=True, deadline=None, max_examples=30, database=None)
    @given(st.data())
    def test_optimum_matches_subset_scan(self, data):
        # Any region profile of three distinct r-edges, r <= 5, at an n from
        # its support (below it there are no conflicts) to support + 2 whose
        # ground set the subset scan can cover.
        r = data.draw(st.integers(1, 5), label="r")
        a123 = data.draw(st.integers(0, r), label="a123")
        a12 = data.draw(st.integers(0, r - a123), label="a12")
        a13 = data.draw(st.integers(0, r - a123 - a12), label="a13")
        a23 = data.draw(st.integers(0, r - a123 - max(a12, a13)), label="a23")
        profile = (r - a12 - a13 - a123, r - a12 - a23 - a123, r - a13 - a23 - a123,
                   a12, a13, a23, a123)
        f = realize_profile(profile, r)
        assume(len(set(f.edges)) == 3)  # else two edges coincide
        ns = [n for n in range(max(r, f.support_size), f.support_size + 3) if comb(n, r) <= 20]
        assume(ns)
        n = data.draw(st.sampled_from(ns), label="n")
        system = forbidden_triples(f, n)
        assert solve_exact(system).optimum == subset_scan_optimum(system)


class TestDensitySequence:
    def test_mantel_densities(self):
        records = density_sequence(K3, range(3, 7), family_name="triangle")
        densities = [r.density() for r in records]
        assert densities == [
            Fraction(2, 3),
            Fraction(4, 6),
            Fraction(6, 10),
            Fraction(9, 15),
        ]

    def test_seed_rule_called_for_each_searched_n(self, tmp_path):
        # n = 6 is a cache hit, so only n = 5 and 7 are searched and seeded.
        path = str(tmp_path / "c.jsonl")
        density_sequence(K3, [6], cache=ResultCache(path))
        seeded = []
        records = density_sequence(K3, [5, 6, 7], cache=ResultCache(path), seed_for=seeded.append)
        assert [r.optimum for r in records] == [6, 9, 12]
        assert seeded == [5, 7]

    def test_k4_minus_non_increasing(self):
        records = density_sequence(K4_MINUS, range(4, 7))
        densities = [r.density() for r in records]
        assert all(b <= a for a, b in zip(densities, densities[1:]))

    def test_audit_detects_violations(self):
        def fake(n, optimum):
            return SolveRecord(
                family_profile=(0, 0, 0, 1, 1, 1, 0),
                family_name="triangle",
                n=n,
                r=2,
                optimum=optimum,
                witness=(),
                status=STATUS_OPTIMAL,
                nodes=0,
                millis=0,
                version="1",
            )

        with pytest.raises(RuntimeError, match="density increased"):
            audit_density_monotone([fake(4, 2), fake(5, 6)])

    def test_singleton_range_trivially_monotone(self):
        audit_density_monotone(density_sequence(K3, [5]))

    def test_empty_run_checks_pattern_and_budgets(self):
        with pytest.raises(ValueError, match="budget"):
            density_sequence(K3, [], budget_nodes=0)
        with pytest.raises(ValueError, match="^need exactly 3 edges, got 2$"):
            density_sequence(matching(3, 2), [])

    def test_solve_family_is_the_one_n_run(self, tmp_path):
        # Either call's miss is the other's hit, and the hit appends nothing.
        def one_n_run(f, n, cache):
            return density_sequence(f, [n], cache=cache)[0]

        for name, first, second in (("a", solve_family, one_n_run), ("b", one_n_run, solve_family)):
            path = tmp_path / f"{name}.jsonl"
            cache = ResultCache(str(path))
            miss = first(K3, 6, cache=cache)
            assert second(K3, 6, cache=cache) == miss == cache.records()[0]
            assert path.read_text().count("\n") == 1

    def test_range_starting_below_uniformity(self):
        # n < r has no r-sets and a placeholder density 0; the audit skips it
        records = density_sequence(K3, [1, 2, 3, 4])
        assert [r.density() for r in records] == [0, 1, Fraction(2, 3), Fraction(2, 3)]
        assert all(r.proved_optimal for r in records)


class TestInterrupt:
    """Ctrl-C in a search returns its verified incumbent as a lower bound,
    which is never cached; triangle n = 11 takes 2,557 nodes, so its search
    reaches the first deadline poll."""

    def test_solve_exact_returns_the_incumbent(self, monkeypatch):
        interrupt_at_first_poll(monkeypatch)
        record = solve_exact(forbidden_triples(K3, 11))
        assert (record.status, record.closed_by, record.nodes) == (STATUS_LOWER_BOUND, "interrupted", 256)
        assert record.optimum == len(record.witness) > 0
        assert next(copies_of(K3, record.witness_hypergraph()), None) is None

    def test_density_sequence_stops_at_the_interrupted_n(self, monkeypatch, tmp_path):
        interrupt_at_first_poll(monkeypatch)
        path = tmp_path / "c.jsonl"
        seeded = []
        records = density_sequence(K3, [5, 6, 11, 12], cache=ResultCache(str(path)), seed_for=seeded.append)
        assert [(r.n, r.status, r.closed_by) for r in records] == [
            (5, STATUS_OPTIMAL, "search"), (6, STATUS_OPTIMAL, "cap"), (11, STATUS_LOWER_BOUND, "interrupted"),
        ]
        assert [r.n for r in ResultCache(str(path)).records()] == [5, 6]
        assert seeded == [5, 6, 11]


class TestAveragingCap:
    """density_sequence stops the search at n at floor(ex(n-1) * n / (n - r))
    when the same call's search proved ex(n-1)."""

    def test_chain_closes_by_the_cap(self):
        # Uncapped, n = 6 and 7 take 19 and 31 nodes.
        records = density_sequence(K3, [5, 6, 7])
        assert [(r.optimum, r.closed_by, r.nodes) for r in records] == [
            (6, "search", 7), (9, "cap", 9), (12, "cap", 12),
        ]
        assert all(r.proved_optimal for r in records)

    def test_seed_meeting_the_cap_takes_no_nodes(self):
        # ex(5) = 6 caps n = 6 at 6 * 6 // 4 = 9, which K_{3,3} meets.
        six = density_sequence(K3, [5, 6], seed_for={6: K33}.get)[1]
        assert (six.optimum, six.nodes, six.status, six.closed_by) == (9, 0, STATUS_OPTIMAL, "cap")
        assert six.witness == K33.edges
        direct = solve_exact(forbidden_triples(K3, 6), seed_witness=K33, cap=9)
        assert (direct.optimum, direct.nodes, direct.closed_by) == (9, 0, "cap")

    def test_cached_optimum_gives_no_cap(self, tmp_path):
        # A hand-written n = 5 line whose witness, the 5-cycle, is triangle
        # free, so the hit passes its check; but ex(5) = 6. Its cap at n = 6,
        # 5 * 6 // 4 = 7, would stop there with 7 and pass the audit. The
        # search proves 9 instead, and the audit flags 5/10 < 9/15.
        path = tmp_path / "cache.jsonl"
        cycle = [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]
        path.write_text(json.dumps(dict(K33_RECORD, n=5, optimum=5, witness=cycle)) + "\n")
        cache = ResultCache(str(path))
        with pytest.raises(RuntimeError, match="density increased from n=5"):
            density_sequence(K3, [5, 6], cache=cache)
        six = cache.records()[-1]
        assert (six.n, six.optimum, six.status, six.closed_by) == (6, 9, STATUS_OPTIMAL, "search")

    def test_lower_bound_gives_no_cap(self):
        # 90 nodes bound ex(8) by 16 but do not prove it (91 do). A cap from
        # the bound, 16 * 9 // 7 = 20 = ex(9), would prove n = 9 at once.
        records = density_sequence(K3, [8, 9], budget_nodes=90)
        assert [(r.optimum, r.status, r.closed_by) for r in records] == [
            (16, STATUS_LOWER_BOUND, "search"), (20, STATUS_LOWER_BOUND, "search"),
        ]

    def test_gap_gives_no_cap(self):
        seven = density_sequence(K3, [5, 7])[1]
        assert (seven.optimum, seven.closed_by, seven.nodes) == (12, "search", 31)

    def test_n_equal_to_r_gives_no_cap(self):
        # n - r = 0 at n = 2; n = 3 then takes the loose cap 1 * 3 // 1 = 3.
        records = density_sequence(K3, [1, 2, 3])
        assert [(r.optimum, r.closed_by) for r in records] == [(0, "search"), (1, "search"), (2, "search")]

    def test_capped_chains_match_uncapped_search_and_subset_scan(self):
        # Every r=2..5 class from its support up to the last n with at most
        # 22 ground edges.
        instances = closed_by_cap = 0
        for r in (2, 3, 4, 5):
            for entry in enumerate_three_edge(r).entries:
                f = entry.representative
                ns = [n for n in range(f.support_size, 8) if comb(n, r) <= 22]
                for record in density_sequence(f, ns):
                    system = forbidden_triples(f, record.n)
                    assert record.optimum == solve_exact(system).optimum == subset_scan_optimum(system)
                    instances += 1
                    closed_by_cap += record.closed_by == "cap"
        assert (instances, closed_by_cap) == (42, 10)


class TestSuspensionInequality:
    def test_finite_chain(self):
        # ex(n, suspended pattern) / C(n, 3) <= ex(n-1, base) / C(n-1, 2)
        for n in (4, 5, 6):
            upper = solve_exact(forbidden_triples(K3, n - 1)).optimum
            lifted = solve_exact(forbidden_triples(K4_MINUS, n)).optimum
            assert Fraction(lifted, len(forbidden_triples(K4_MINUS, n).ground)) <= Fraction(
                upper, len(forbidden_triples(K3, n - 1).ground)
            )


def _record_with_triangle() -> SolveRecord:
    """The proved triangle n=6 record, with one edge added that closes a
    triangle and its optimum raised to match: consistent, but not K3-free."""
    record = solve_exact(forbidden_triples(K3, 6, "triangle"))
    obj = record.to_json_dict()
    u, v = next(
        (u, v) for u in range(6) for v in range(u + 1, 6) if [u, v] not in obj["witness"]
    )
    obj["witness"].append([u, v])
    obj["optimum"] += 1
    return SolveRecord.from_json_dict(obj)


class TestCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        cache.append(record)
        loaded = cache.records()
        assert len(loaded) == 1
        assert loaded[0] == record

    def test_lookup_and_reuse(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        first = solve_family(K3, 5, family_name="triangle", cache=cache)
        again = solve_family(K3, 5, family_name="triangle", cache=cache)
        assert first == again
        assert len(cache.records()) == 1  # second call was a cache hit

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        stale = json.loads(json.dumps(record.to_json_dict()))
        stale["version"] = "0-obsolete"
        stale["witness"] = stale["witness"][:-1]
        stale["optimum"] = len(stale["witness"])
        path.write_text(json.dumps(stale) + "\n")
        assert cache.lookup(record.family_profile, 5) is None

    def test_trailing_partial_record_tolerated(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        cache.append(record)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"family_profile": [0, 0, 0')  # append in progress
        assert len(cache.records()) == 1

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        path.write_text("not json\n" + json.dumps(record.to_json_dict()) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            cache.records()

    @pytest.mark.parametrize("last", [False, True])
    def test_optimum_disagreeing_with_witness_raises(self, tmp_path, last):
        # A complete line is never an append in progress, even the last one.
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 6, "triangle"))
        good = json.dumps(record.to_json_dict())
        bad = json.dumps(dict(record.to_json_dict(), optimum=record.optimum + 6))
        path.write_text("\n".join([good, bad] if last else [bad, good]) + "\n")
        with pytest.raises(ValueError, match=f"corrupt cache line {2 if last else 1}"):
            cache.records()
        with pytest.raises(ValueError, match="corrupt"):
            solve_family(K3, 6, cache=cache)

    def test_other_writers_appends_are_seen(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        reader, writer = ResultCache(path), ResultCache(path)
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        assert reader.lookup(record.family_profile, 5) is None
        writer.append(record)
        assert reader.lookup(record.family_profile, 5) == record
        newer = solve_exact(forbidden_triples(K3, 6, "triangle"))
        writer.append(newer)
        assert reader.lookup(newer.family_profile, 6) == newer
        assert reader.records() == [record, newer]

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        renamed = SolveRecord.from_json_dict(dict(record.to_json_dict(), family_name="again"))
        cache.append(record)
        assert cache.lookup(record.family_profile, 5) == record
        cache.append(renamed)
        assert cache.lookup(record.family_profile, 5) == renamed

    def test_partial_line_completed_later(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        first = solve_exact(forbidden_triples(K3, 5, "triangle"))
        second = solve_exact(forbidden_triples(K3, 6, "triangle"))
        cache.append(first)
        line = json.dumps(second.to_json_dict()) + "\n"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[:40])
        assert cache.records() == [first]
        assert cache.lookup(second.family_profile, 6) is None
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[40:])
        assert cache.records() == [first, second]
        assert cache.lookup(second.family_profile, 6) == second

    def test_unterminated_last_line_waits_for_its_newline(self, tmp_path):
        # A record is a line that ends in a newline: a complete record on the
        # last line is not read until its newline arrives.
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        path.write_text(json.dumps(record.to_json_dict()))
        assert cache.lookup(record.family_profile, 5) is None
        assert cache.records() == []
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n" + json.dumps(record.to_json_dict()) + "\n")
        with pytest.raises(ValueError, match="corrupt cache line 1"):
            cache.records()

    def test_undecodable_complete_line_is_corrupt(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        cache.append(record)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(ValueError, match="corrupt cache line 2"):
            cache.records()

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize(
        "bad",
        [
            "[1, 2]",
            '"text"',
            '{"x": 1}',
            # a witness edge of letters, and a profile of lists (unhashable)
            '{"family_profile":[0,0,0,1,1,1,0],"family_name":"","n":3,"r":2,"optimum":1,'
            '"status":"proved-optimal","witness":["ab"],"nodes":1,"millis":0,"version":"1"}',
            '{"family_profile":[[0],[1]],"family_name":"","n":3,"r":2,"optimum":1,'
            '"status":"proved-optimal","witness":[[0,1]],"nodes":1,"millis":0,"version":"1"}',
            # an edge listed twice with the optimum raised to the list length,
            # a float n, a float optimum, and a profile given as one string
            '{"family_profile":[0,0,0,1,1,1,0],"family_name":"","n":3,"r":2,"optimum":2,'
            '"status":"proved-optimal","witness":[[0,1],[0,1]],"nodes":1,"millis":0,"version":"1"}',
            '{"family_profile":[0,0,0,1,1,1,0],"family_name":"","n":3.0,"r":2,"optimum":1,'
            '"status":"proved-optimal","witness":[[0,1]],"nodes":1,"millis":0,"version":"1"}',
            '{"family_profile":[0,0,0,1,1,1,0],"family_name":"","n":3,"r":2,"optimum":1.0,'
            '"status":"proved-optimal","witness":[[0,1]],"nodes":1,"millis":0,"version":"1"}',
            '{"family_profile":"0001110","family_name":"","n":3,"r":2,"optimum":1,'
            '"status":"proved-optimal","witness":[[0,1]],"nodes":1,"millis":0,"version":"1"}',
            *map(json.dumps, NON_RECORDS.values()),
            "[" * 100_000,  # nested past the decoder's recursion limit
        ],
        ids=["list", "string", "keyless", "letter-edge", "list-profile", "repeated-edge",
             "float-n", "float-optimum", "string-profile", *NON_RECORDS, "deep-nesting"],
    )
    def test_non_record_line_is_corrupt(self, tmp_path, bad, last):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        good = json.dumps(record.to_json_dict())
        path.write_text("\n".join([good, good, bad] if last else [good, bad, good]) + "\n")
        with pytest.raises(ValueError, match=f"corrupt cache line {3 if last else 2} in {path}"):
            cache.records()
        with pytest.raises(ValueError, match="corrupt cache line"):
            solve_family(K3, 5, cache=cache)

    def test_huge_vertex_is_rejected_before_its_mask_is_built(self, tmp_path):
        # 1 << 100_000_000 alone would take 12.5 MB.
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(NON_RECORDS["huge-vertex"]) + "\n")
        cache = ResultCache(str(path))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="corrupt cache line 1"):
                cache.records()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_append_ends_an_unterminated_line(self, tmp_path):
        # A record left without its newline is kept: the next append starts
        # on a fresh line instead of gluing onto it.
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        five = solve_exact(forbidden_triples(K3, 5, "triangle"))
        six = solve_exact(forbidden_triples(K3, 6, "triangle"))
        cache.append(five)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        cache.append(six)
        assert cache.records() == [five, six]
        assert ResultCache(str(path)).lookup(five.family_profile, 5) == five

    def test_short_write_raises(self, tmp_path, monkeypatch):
        # A second write could land after another writer's line, so a short
        # write is reported, not finished.
        path = tmp_path / "cache.jsonl"
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:-1]))
        with pytest.raises(OSError, match=f"short write to {path}"):
            ResultCache(str(path)).append(solve_exact(forbidden_triples(K3, 5, "triangle")))

    def test_corrupt_line_in_later_read_keeps_absolute_number(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        for _ in range(3):
            cache.append(record)
        assert len(cache.records()) == 3
        bad = json.dumps(dict(record.to_json_dict(), optimum=record.optimum + 1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + bad + "\n")
        for _ in range(2):  # every later call raises, not only the first
            with pytest.raises(ValueError, match=f"corrupt cache line 5 in {path}"):
                cache.records()
            with pytest.raises(ValueError, match="corrupt cache line 5"):
                cache.lookup(record.family_profile, 5)

    def test_replaced_truncated_or_removed_file_reread(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        five = solve_exact(forbidden_triples(K3, 5, "triangle"))
        six = solve_exact(forbidden_triples(K3, 6, "triangle"))
        cache.append(five)
        cache.append(six)
        assert cache.records() == [five, six]
        # Truncated in place: same inode, fewer bytes.
        path.write_text(json.dumps(six.to_json_dict()) + "\n")
        assert cache.records() == [six]
        assert cache.lookup(five.family_profile, 5) is None
        # Replaced by a longer file under the same name.
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_text("".join(json.dumps(r.to_json_dict()) + "\n" for r in (five, five, five)))
        os.replace(fresh, path)
        assert cache.records() == [five, five, five]
        assert cache.lookup(six.family_profile, 6) is None
        path.unlink()
        assert cache.records() == []
        assert cache.lookup(five.family_profile, 5) is None

    def test_replacing_a_corrupt_file_clears_the_error(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        path.write_text("not json\n" + json.dumps(record.to_json_dict()) + "\n")
        with pytest.raises(ValueError, match="corrupt cache line 1"):
            cache.records()
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_text(json.dumps(record.to_json_dict()) + "\n")
        os.replace(fresh, path)
        assert cache.records() == [record]

    def test_file_vanishing_before_open_is_a_miss(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        cache.append(record)
        assert cache.lookup(record.family_profile, 5) == record
        path.unlink()
        # The file is gone between an existence check and the open.
        exists = os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda p: p == str(path) or exists(p))
        assert cache.lookup(record.family_profile, 5) is None
        assert cache.records() == []

    def test_truncating_a_corrupt_line_to_a_partial_line_clears_it(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        record = solve_exact(forbidden_triples(K3, 5, "triangle"))
        good = json.dumps(record.to_json_dict()) + "\n"
        path.write_text(good + "not json\n")
        with pytest.raises(ValueError, match="corrupt cache line 2"):
            cache.lookup(record.family_profile, 5)
        with open(path, "r+", encoding="utf-8") as fh:
            fh.truncate(len(good) + len("not "))  # now an append in progress
        assert cache.lookup(record.family_profile, 5) == record
        path.write_text(good + good)  # the line mended in place
        assert cache.records() == [record, record]

    def test_hit_containing_the_pattern_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(str(path))
        cache.append(_record_with_triangle())
        with pytest.raises(ValueError, match=f"contains the pattern in {path}"):
            solve_family(K3, 6, family_name="triangle", cache=cache)

    def test_concurrent_appends_do_not_interleave(self, tmp_path):
        # Long lines (about 50 KB each) and a busy-wait start keep the two
        # writers' appends overlapping, so split writes would interleave.
        path = tmp_path / "cache.jsonl"
        go = tmp_path / "go"
        script = (
            "import os, sys\n"
            "from turankit import ResultCache, expanded_triangle, forbidden_triples, solve_exact\n"
            "record = solve_exact(forbidden_triples(expanded_triangle(1), 6, sys.argv[2] * 50000))\n"
            "cache = ResultCache(sys.argv[1])\n"
            "while not os.path.exists(sys.argv[3]):\n"
            "    pass\n"
            "for _ in range(200):\n"
            "    cache.append(record)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(turankit.__file__).parents[1]))
        writers = [
            subprocess.Popen([sys.executable, "-c", script, str(path), name, str(go)], env=env)
            for name in "ab"
        ]
        go.touch()
        assert [w.wait(timeout=60) for w in writers] == [0, 0]
        records = ResultCache(str(path)).records()
        assert len(records) == 400
        assert sorted({rec.family_name[0] for rec in records}) == ["a", "b"]

    def test_line_without_closed_by_loads_as_search(self):
        line = json.dumps(solve_exact(forbidden_triples(K3, 6)).to_json_dict(), separators=(",", ":"))
        assert '"closed_by"' not in line
        record = SolveRecord.from_json_dict(json.loads(line))
        assert record.closed_by == "search"
        assert json.dumps(record.to_json_dict(), separators=(",", ":")) == line

    def test_capped_record_round_trips(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        records = density_sequence(K3, [5, 6], family_name="triangle", cache=ResultCache(str(path)))
        assert [r.closed_by for r in records] == ["search", "cap"]
        lines = path.read_text().splitlines()
        assert '"closed_by"' not in lines[0]
        assert lines[1].endswith('"version":"1","closed_by":"cap"}')
        assert ResultCache(str(path)).records() == records

    def test_json_schema_round_trip(self):
        record = solve_exact(forbidden_triples(K4_MINUS, 5, "k4minus"))
        rebuilt = SolveRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert rebuilt == record


# SHA-256 of export texts that outside SAT and ILP solvers read: a change to
# the writers must keep these bytes.
R4_CLASS = (0, 1, 2, 2, 1, 0, 1)
EXPORT_DIGESTS = {
    ("cnf", "triangle", 4, None): "89b13e378f76a4ac27ec287119a84e60ccc8ad13598c931059a28c4bf8a9ed0c",
    ("cnf", "triangle", 4, 0): "481953bede0a9729ed87fa0c697a78832b90fdd86621ee3420baf39d804ec558",
    ("cnf", "triangle", 4, 1): "4ff8e187182d570abad55e6ea003e47a843ad998424ff4e70ed3c0038ab3eef2",
    ("cnf", "triangle", 4, 3): "20844525b85e01b121c681b032156f1a21a46fb4d6c76c697f5219a78d6d34fe",
    ("cnf", "triangle", 4, 5): "02c44f6fdcd83d21ddb00661d4c2b2ce1f8ed0328a728d187366467aa5739c16",
    ("cnf", "triangle", 4, 6): "312f3090254007acd3448ce12e1eb59e728f4577ed322a61a3264dd76099a48c",
    ("cnf", "triangle", 6, None): "f1bd80364a7aec35ceb969c7015f02ad4abc6352e1a5debcb4baa721413ff374",
    ("cnf", "triangle", 6, 0): "72161350ab2ec2fcc8a27045fc7a234615bb8c4956d832c7052fb3315f293fad",
    ("cnf", "triangle", 6, 1): "9bcdb0290960b74fcf508002f1327eaad77c24ce617b1cfb0d383b8a82753b69",
    ("cnf", "triangle", 6, 7): "7fb8a12144027982c7fa4ff71305f16d675a5228cfa4810cc821782ae49067c6",
    ("cnf", "triangle", 6, 14): "edcdcc7c679841e39ebd6a8eda713ae3eaa3565a9329a48599c0355fc87c7952",
    ("cnf", "triangle", 6, 15): "71af87d5767024025e92062592bb936868a0f41a34b6442abcf40939045a6934",
    ("cnf", "triangle", 30, None): "8225a07ab3481bc1350c99a551e62c198d57b9560ebcca95e5566f8ab51e6f08",
    ("cnf", "triangle", 30, 0): "6c1c6914f5a30d73444322986539d659eb280ee2e28aec9cdab63f20cb50210f",
    ("cnf", "triangle", 30, 1): "dcb58bf0cd78debb8ccc8f2dbe2ae5f8006783b1d82c86ebf770fe9a1371571a",
    ("cnf", "triangle", 30, 217): "f67d5a99451ce7e26191d9ad640c78aff708d60204808e8c895c19d077add31f",
    ("cnf", "triangle", 30, 434): "1bed5e09f50936ba98a3cd6746266061a9c067ca852ccbae5e49578acfdc04a9",
    ("cnf", "triangle", 30, 435): "fb367baffcb5362cae09609e8ddb79245bff3fcac97b5e31dc31107a60e16067",
    ("cnf", "r4-class", 9, 30): "583e8cb173bb943fdaee8bcac11fac12aa0940f7b98016c1934901ea525ab46b",
    ("cnf", "r4-class", 9, None): "f1e90a669bb696c46867508af4a1c42e3f63b4fb480eabbbabd338ccb7a55529",
    ("ilp", "triangle", 4, None): "eec6a23123064ea391f3242dfd14697f61594790b29b6c7e9aad5484cbfcb5b8",
    ("ilp", "triangle", 6, None): "deae5c643582b77c56396d9902761564291613628ccb408bb0507413685186bd",
    ("ilp", "triangle", 30, None): "81e3b04eac467ba2b4fb0adbf71e849e09546c74d57d86c266bacb16c385c787",
    ("ilp", "r4-class", 9, None): "e2ddc43b4aad07572e65c469ee53c1781aa25ff08ae4cdddea6d8ecac6f09218",
}


@pytest.mark.parametrize("key", EXPORT_DIGESTS, ids=lambda key: "-".join(map(str, key)))
def test_export_bytes_are_pinned(key):
    fmt, family, n, at_least = key
    if family == "triangle":
        system = forbidden_triples(K3, n, "triangle")
    else:
        system = forbidden_triples(realize_profile(R4_CLASS, 4), n)
    text = export_cnf(system, at_least=at_least) if fmt == "cnf" else export_ilp(system)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_DIGESTS[key]


class TestExportCnf:
    @pytest.mark.parametrize("f, n", [(K3, 3), (K3, 4), (K3, 5), (K4_MINUS, 4), (K4_MINUS, 5), (T4, 6)])
    def test_header_counts_every_variable_and_clause(self, f, n):
        # Every ground edge lies in some conflict here, so even at_least=0
        # names every selection variable in a clause.
        system = forbidden_triples(f, n)
        assert len({e for triple in system.conflicts for e in triple}) == len(system.ground)
        for t in range(len(system.ground) + 1):
            lines = export_cnf(system, at_least=t).splitlines()
            (header,) = [line for line in lines if line.startswith("p cnf ")]
            clauses = lines[lines.index(header) + 1:]
            assert all(line.endswith(" 0") for line in clauses)
            top = max(abs(int(tok)) for line in clauses for tok in line.split())
            assert header == f"p cnf {top} {len(clauses)}"

    def test_export_memory_is_about_twice_the_text(self):
        # A writer that builds each of the 182,504 counter clauses as a tuple
        # before formatting it peaks at about 14 times the text's size.
        system = forbidden_triples(K3, 30)
        tracemalloc.start()
        try:
            text = export_cnf(system, at_least=225)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_triangle_counts(self):
        text = export_cnf(forbidden_triples(K3, 4))
        nvars, clauses = parse_dimacs(text)
        assert nvars == 6
        assert len(clauses) == 4
        assert all(len(c) == 3 and all(l < 0 for l in c) for c in clauses)

    def test_unconstrained(self):
        text = export_cnf(forbidden_triples(T4, 5))
        _, clauses = parse_dimacs(text)
        assert clauses == []

    def test_cardinality_semantics(self):
        # Satisfiable with "at least t" exactly when the optimum reaches t.
        system = forbidden_triples(K3, 4)
        optimum = solve_exact(system).optimum
        assert optimum == 4
        for t in range(0, 7):
            nvars, clauses = parse_dimacs(export_cnf(system, at_least=t))
            assert dpll_satisfiable(nvars, clauses) == (t <= optimum)

    def test_cardinality_with_fixed_selection(self):
        # Fixing the selection variables leaves the counter satisfiable
        # exactly when the selection is large enough and conflict-free.
        # Ground order: var 1..6 = edges 01, 02, 12, 03, 13, 23.
        system = forbidden_triples(K3, 4)
        nvars, clauses = parse_dimacs(export_cnf(system, at_least=3))
        conflict_free = (frozenset([2, 3, 4]), frozenset([1, 2, 4]))  # no triangle
        for selection in conflict_free:
            fixed = {v: (v in selection) for v in range(1, 7)}
            assert dpll_satisfiable(nvars, clauses, fixed)
        triangle_sel = frozenset([1, 2, 3])  # edges 01, 02, 12: a triangle
        fixed = {v: (v in triangle_sel) for v in range(1, 7)}
        assert not dpll_satisfiable(nvars, clauses, fixed)
        too_small = frozenset([1, 6])  # conflict-free but below the threshold
        fixed = {v: (v in too_small) for v in range(1, 7)}
        assert not dpll_satisfiable(nvars, clauses, fixed)

    def test_threshold_above_ground_rejected(self):
        with pytest.raises(ValueError):
            export_cnf(forbidden_triples(K3, 4), at_least=7)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            export_cnf(forbidden_triples(K3, 4), at_least=-3)


class TestExportIlp:
    def test_layout_and_counts(self):
        system = forbidden_triples(K3, 4)
        nvars, triples = parse_lp_maximize(export_ilp(system))
        assert nvars == 6
        assert sorted(triples) == sorted(tuple(c) for c in system.conflicts)

    def test_cross_solver_agreement(self):
        pytest.importorskip("scipy")
        for f, n in ((K3, 5), (K4_MINUS, 5)):
            system = forbidden_triples(f, n)
            nvars, triples = parse_lp_maximize(export_ilp(system))
            assert milp_optimum(nvars, triples) == solve_exact(system).optimum


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: forbidden_triples(K3, 65), r"vertex count 65 outside 0\.\.64"),
        (lambda: forbidden_triples(K3, -1), r"vertex count -1 outside 0\.\.64"),
        (lambda: solve_exact(forbidden_triples(K3, 4), seed_witness=[0b10001]),
         r"seed edge \[0, 4\] is not a ground edge"),
    ],
    ids=["forbidden-triples-65", "forbidden-triples-negative", "seed-edge-off-ground"],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
