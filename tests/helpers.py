"""Shared test oracles, deliberately independent of the library's fast paths:
exhaustive subset scans, permutation-based isomorphism, brute-force copy and
homomorphism search, canonical region profiles from every raw profile, a
miniature DPLL solver for CNF checks, and cache lines that break one record
rule each, a solver clock that interrupts the search, and a conflict build
that loses a copy."""

import itertools
import sys
import time
from types import SimpleNamespace

from turankit import Hypergraph, edge_mask, edge_vertices, from_masks


def interrupt_at_first_poll(monkeypatch) -> None:
    """Make the solver's clock raise KeyboardInterrupt at a search's first
    deadline poll (its 256th node), as Ctrl-C there would. The clock reads
    at a solve's start and end pass through."""
    from turankit import solver

    def monotonic():
        if sys._getframe(1).f_code.co_name == "dfs":
            raise KeyboardInterrupt
        return time.monotonic()

    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=monotonic))


def lose_first_copy(monkeypatch) -> None:
    """Make the solver's conflict build skip the first copy copies_of yields."""
    from turankit import solver

    scan = solver.copies_of
    monkeypatch.setattr(solver, "copies_of", lambda f, h: itertools.islice(scan(f, h), 1, None))


def subset_scan_optimum(system) -> int:
    """Largest conflict-free subset of the ground set, by checking all 2^m
    subsets. Usable up to m = 22.

    A subset is a pair (H, L) of its high and low ground indices, and a
    table marks the bad pairs, those holding some conflict. A conflict lies
    in (H, L) when its high part hm is inside H and its low part inside L.
    So each conflict marks the L of its own row hm, and a pass over the
    high bits ORs every row hm into the rows of the supersets of hm."""
    import numpy as np

    m = len(system.ground)
    assert m <= 22, "subset scan oracle limited to small ground sets"
    low = m // 2
    high = m - low
    lows = np.arange(1 << low)
    bad = np.zeros((1 << high, 1 << low), dtype=bool)
    for a, b, c in system.conflicts:
        mask = (1 << a) | (1 << b) | (1 << c)
        part = mask & ((1 << low) - 1)
        bad[mask >> low] |= (lows & part) == part
    for bit in range(high):
        rows = bad.reshape(-1, 2, 1 << bit, 1 << low)  # axis 1 is this bit of H
        rows[:, 1] |= rows[:, 0]
    size = np.array([bin(i).count("1") for i in range(1 << max(low, high))], dtype=np.int8)
    sizes = size[: 1 << high, None] + size[None, : 1 << low]
    return int(sizes[~bad].max())


def plain_subset_scan_optimum(system) -> int:
    """subset_scan_optimum's obvious form, one full pass over all 2^m
    subsets per conflict, kept to check the table version on small m."""
    import numpy as np

    m = len(system.ground)
    assert m <= 16, "plain scan kept for small ground sets"
    subsets = np.arange(1 << m, dtype=np.uint32)
    ok = np.ones(1 << m, dtype=bool)
    for a, b, c in system.conflicts:
        cmask = np.uint32((1 << a) | (1 << b) | (1 << c))
        ok &= (subsets & cmask) != cmask
    pop = np.zeros(1 << m, dtype=np.uint8)
    for bit in range(m):
        pop += ((subsets >> np.uint32(bit)) & np.uint32(1)).astype(np.uint8)
    return int(pop[ok].max())


def permutation_isomorphic(f1: Hypergraph, f2: Hypergraph) -> bool:
    """Isomorphism by trying every degree-preserving bijection between the
    supports. An isomorphism preserves degrees, so none is skipped."""
    sup1 = edge_vertices(f1.support_mask)
    sup2 = edge_vertices(f2.support_mask)
    if f1.r != f2.r and f1.edges and f2.edges:
        return False
    if len(sup1) != len(sup2) or len(f1.edges) != len(f2.edges):
        return False
    degs1, degs2 = f1.degrees(), f2.degrees()
    levels = sorted({degs1[v] for v in sup1})
    groups1 = [[v for v in sup1 if degs1[v] == d] for d in levels]
    groups2 = [[w for w in sup2 if degs2[w] == d] for d in levels]
    if [len(g) for g in groups1] != [len(g) for g in groups2]:
        return False
    domain = list(itertools.chain.from_iterable(groups1))
    edges2 = set(f2.edges)
    for parts in itertools.product(*(itertools.permutations(g) for g in groups2)):
        phi = dict(zip(domain, itertools.chain.from_iterable(parts)))
        if all(edge_mask(phi[v] for v in edge_vertices(e)) in edges2 for e in f1.edges):
            return True
    return False


def brute_force_canonical_profiles(r: int) -> list[tuple[int, ...]]:
    """Sorted canonical profiles of all three-edge r-graphs: every raw region
    profile (a1, a2, a3, a12, a13, a23, a123) of three distinct r-edges,
    minimized over the six relabelings of its edges, then de-duplicated."""
    seen = set()
    for a123 in range(r + 1):
        for a12 in range(r - a123 + 1):
            for a13 in range(r - a123 - a12 + 1):
                for a23 in range(r - a123 - a12 + 1):
                    singles = (r - a12 - a13 - a123, r - a12 - a23 - a123, r - a13 - a23 - a123)
                    pairs = {(0, 1): a12, (0, 2): a13, (1, 2): a23}
                    # edges i and j differ on their own singleton regions and
                    # on the pair regions that hold exactly one of them
                    if min(singles) < 0 or any(
                        singles[i] + singles[j]
                        + sum(size for pair, size in pairs.items() if (i in pair) != (j in pair)) == 0
                        for i, j in pairs
                    ):
                        continue
                    # edge x of a relabeling is edge order[x] of this one
                    seen.add(min(
                        tuple(singles[i] for i in order)
                        + tuple(pairs[tuple(sorted((order[x], order[y])))] for x, y in pairs)
                        + (a123,)
                        for order in itertools.permutations(range(3))
                    ))
    return sorted(seen)


def brute_force_copies(f: Hypergraph, h: Hypergraph) -> list[tuple[int, int, int]]:
    """Copies of the three-edge f in h, via permutation isomorphism only."""
    out = []
    for triple in itertools.combinations(h.edges, 3):
        candidate = from_masks(h.n, h.r, triple)
        if permutation_isomorphic(f, candidate):
            out.append(tuple(sorted(triple)))
    return out


def all_maps_homomorphism_exists(f1: Hypergraph, f2: Hypergraph) -> bool:
    """Homomorphism existence by checking every vertex map. Tiny inputs only."""
    edges2 = set(f2.edges)
    verts = [v for v in range(f1.n) if sum(e >> v & 1 for e in f1.edges)]
    for images in itertools.product(range(f2.n), repeat=len(verts)):
        phi = dict(zip(verts, images))
        if all(
            edge_mask(phi[v] for v in edge_vertices(e)) in edges2 for e in f1.edges
        ):
            return True
    return False


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    nvars = None
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p cnf"):
            _, _, nv, nc = line.split()
            nvars = int(nv)
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert nvars is not None
    return nvars, clauses


def dpll_satisfiable(nvars: int, clauses: list[list[int]], fixed: dict[int, bool] | None = None) -> bool:
    """Small DPLL with unit propagation; `fixed` pins variables up front."""
    assignment: dict[int, bool] = dict(fixed or {})

    def value(lit: int):
        var = abs(lit)
        if var not in assignment:
            return None
        val = assignment[var]
        return val if lit > 0 else not val

    def solve(clauses_left: list[list[int]]) -> bool:
        while True:
            unit = None
            simplified = []
            for clause in clauses_left:
                vals = [value(l) for l in clause]
                if any(v is True for v in vals):
                    continue
                undecided = [l for l, v in zip(clause, vals) if v is None]
                if not undecided:
                    return False
                if len(undecided) == 1:
                    unit = undecided[0]
                simplified.append(undecided)
            if unit is None:
                clauses_left = simplified
                break
            assignment[abs(unit)] = unit > 0
            clauses_left = simplified
        if not clauses_left:
            return True
        branch = abs(clauses_left[0][0])
        for choice in (True, False):
            assignment[branch] = choice
            saved = dict(assignment)
            if solve(clauses_left):
                return True
            assignment.clear()
            assignment.update(saved)
            del assignment[branch]
        return False

    return solve([list(c) for c in clauses])


def parse_lp_maximize(text: str):
    """Parse the exported LP text: returns (num_vars, constraint index triples)."""
    lines = [ln.strip() for ln in text.splitlines()]
    obj_line = next(ln for ln in lines if ln.startswith("obj:"))
    variables = obj_line[len("obj:"):].split(" + ")
    nvars = len(variables)
    triples = []
    for ln in lines:
        if ln.startswith("c") and ": " in ln and "<= 2" in ln:
            body = ln.split(": ", 1)[1].replace(" <= 2", "")
            idxs = tuple(sorted(int(tok.strip()[1:]) - 1 for tok in body.split(" + ")))
            triples.append(idxs)
    return nvars, triples


def milp_optimum(nvars: int, triples: list[tuple[int, int, int]]) -> int:
    """Exact optimum of the parsed integer program via scipy's HiGHS backend."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    c = -np.ones(nvars)
    constraints = []
    if triples:
        a = np.zeros((len(triples), nvars))
        for row, (i, j, k) in enumerate(triples):
            a[row, i] = a[row, j] = a[row, k] = 1.0
        constraints.append(LinearConstraint(a, -np.inf, 2.0))
    res = milp(c=c, constraints=constraints, integrality=np.ones(nvars), bounds=Bounds(0, 1))
    assert res.status == 0, res.message
    return round(-res.fun)


def reference_search(system, seed_mask: int = 0) -> tuple[int, int, tuple[int, ...]]:
    """The solver's branch and bound with the per-node rescan: every node
    walks all active conflicts to rebuild the branch counts and the greedy
    2-/3-undecided packing. Same branching, packing, propagation and root
    break as solve_exact, no budgets. Returns (optimum, nodes, witness)."""
    m = len(system.ground)
    conflicts = system.conflicts
    assert m and conflicts, "reference search needs a system with conflicts"
    best_val = seed_mask.bit_count()
    best_mask = seed_mask
    nodes = 0
    full = (1 << m) - 1
    pairs = [[] for _ in range(m)]
    membership = [0] * m
    conflict_edge_masks = []
    for ci, (a, b, c) in enumerate(conflicts):
        pairs[a].append((b, c))
        pairs[b].append((a, c))
        pairs[c].append((a, b))
        bit = 1 << ci
        membership[a] |= bit
        membership[b] |= bit
        membership[c] |= bit
        conflict_edge_masks.append((1 << a) | (1 << b) | (1 << c))
    all_active = (1 << len(conflicts)) - 1

    def include(inc, exc, dead, e):
        inc |= 1 << e
        for j, k in pairs[e]:
            jb, kb = 1 << j, 1 << k
            if exc & (jb | kb):
                continue
            j_in = inc & jb
            k_in = inc & kb
            if j_in and k_in:
                return None
            if j_in:
                exc |= kb
                dead |= membership[k]
            elif k_in:
                exc |= jb
                dead |= membership[j]
        return inc, exc, dead

    def dfs(inc, exc, dead):
        nonlocal best_val, best_mask, nodes
        nodes += 1
        active = all_active & ~dead
        exc_count = exc.bit_count()
        if not active:
            val = m - exc_count
            if val > best_val:
                best_val = val
                best_mask = full & ~exc
            return
        inc_count = inc.bit_count()
        undecided = m - inc_count - exc_count
        if inc_count + undecided <= best_val:
            return
        counts = [0] * m
        parts2 = []
        parts3 = []
        a = active
        while a:
            low = a & -a
            ci = low.bit_length() - 1
            a ^= low
            u = conflict_edge_masks[ci] & ~inc
            if u.bit_count() == 2:
                parts2.append(u)
            else:
                parts3.append(u)
            while u:
                ub = u & -u
                counts[ub.bit_length() - 1] += 1
                u ^= ub
        used = 0
        packed = 0
        for u in parts2 + parts3:
            if not u & used:
                packed += 1
                used |= u
        bound = inc_count + undecided - packed
        if bound <= best_val:
            return
        branch = counts.index(max(counts))
        include_state = include(inc, exc, dead, branch)
        exclude_state = (inc, exc | (1 << branch), dead | membership[branch])
        if bound - best_val >= 2:
            order = (include_state, exclude_state)
        else:
            order = (exclude_state, include_state)
        for state in order:
            if state is not None:
                dfs(*state)

    dfs(*include(0, 0, 0, 0))
    witness = tuple(system.ground[i] for i in range(m) if best_mask >> i & 1)
    return best_val, nodes, witness


# A proved triangle record for n=6 whose witness is K_{3,3}.
K33_RECORD = {
    "family_profile": [0, 0, 0, 1, 1, 1, 0], "family_name": "triangle", "n": 6, "r": 2,
    "optimum": 9, "status": "proved-optimal",
    "witness": [[u, v] for u in range(3) for v in range(3, 6)],
    "nodes": 1, "millis": 0, "version": "1",
}

# K33_RECORD with one record rule broken, and only that one (an empty
# witness keeps n=-1 and r=0 clear of the witness rules, and an all-zero
# profile keeps r=0 clear of the profile's edge sizes).
NON_RECORDS = {
    "string-nodes": dict(K33_RECORD, nodes="many"),
    "negative-millis": dict(K33_RECORD, millis=-5),
    "bool-nodes": dict(K33_RECORD, nodes=True),
    "unknown-status": dict(K33_RECORD, status="done"),
    "int-name": dict(K33_RECORD, family_name=7),
    "int-version": dict(K33_RECORD, version=1),
    "six-entry-profile": dict(K33_RECORD, family_profile=[0, 0, 0, 1, 1, 1]),
    "negative-n": dict(K33_RECORD, n=-1, optimum=0, witness=[]),
    "n-65": dict(K33_RECORD, n=65),
    "r-0": dict(K33_RECORD, family_profile=[0] * 7, r=0, optimum=0, witness=[]),
    # the triangle profile's edges have 2 vertices, so r must be 2
    "r-3-triangle-profile": dict(K33_RECORD, r=3, optimum=1, witness=[[0, 1, 2]]),
    "vertex-outside-n": dict(K33_RECORD, witness=K33_RECORD["witness"][:-1] + [[0, 9]]),
    "edge-of-3-at-r-2": dict(K33_RECORD, witness=K33_RECORD["witness"][:-1] + [[0, 1, 2]]),
    "huge-vertex": dict(K33_RECORD, witness=K33_RECORD["witness"][:-1] + [[0, 100_000_000]]),
    # [2, 5, 5] and [False, 3] name the edges {2, 5} and {0, 3} that they replace
    "repeated-vertex": dict(K33_RECORD, witness=K33_RECORD["witness"][:-1] + [[2, 5, 5]]),
    "r-entries-one-vertex": dict(K33_RECORD, witness=K33_RECORD["witness"][:-1] + [[5, 5]]),
    "bool-vertex": dict(K33_RECORD, witness=[[False, 3]] + K33_RECORD["witness"][1:]),
    # closed_by is "search" or "cap", and only a proof closes by the cap
    "cap-on-lower-bound": dict(K33_RECORD, status="lower-bound-only", closed_by="cap"),
    "unknown-closed-by": dict(K33_RECORD, closed_by="x"),
    "list-closed-by": dict(K33_RECORD, closed_by=["cap"]),
}
