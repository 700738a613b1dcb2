"""Conflict systems, the exact solver, the result cache, and constraint export.

Pinned optima in this file were first computed with the exhaustive subset-scan
oracle (m <= 20) and cross-checked against an independent integer-programming
solve; see also the acceptance suite.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

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
    max_odd_bipartite,
    solve_exact,
    solve_family,
    suspension,
)

from helpers import (
    NON_RECORDS,
    dpll_satisfiable,
    milp_optimum,
    parse_dimacs,
    parse_lp_maximize,
    reference_search,
    subset_scan_optimum,
)
from turankit.catalog import realize_profile

K3 = expanded_triangle(1)
K4_MINUS = suspension(K3, 3)
T4 = expanded_triangle(2)


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
        for f, n, nodes in ((K3, 8, 91), (K3, 9, 295), (K3, 10, 667), (K4_MINUS, 6, 71)):
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

    def test_range_starting_below_uniformity(self):
        # n < r has no r-sets and a placeholder density 0; the audit skips it
        records = density_sequence(K3, [1, 2, 3, 4])
        assert [r.density() for r in records] == [0, 1, Fraction(2, 3), Fraction(2, 3)]
        assert all(r.proved_optimal for r in records)


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

    def test_json_schema_round_trip(self):
        record = solve_exact(forbidden_triples(K4_MINUS, 5, "k4minus"))
        rebuilt = SolveRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert rebuilt == record


class TestExportCnf:
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
