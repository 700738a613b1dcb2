"""Exact maximum edge counts for a forbidden three-edge pattern.

The problem is encoded as a maximum independent set in a 3-uniform conflict
system: the ground set holds all C(n, r) possible edges and each conflict
triple marks three of them forming a copy of the forbidden pattern. Solving
is branch and bound over include/exclude decisions per ground edge, with a
greedy disjoint-conflict packing bound, root-level symmetry breaking, and an
append-only JSONL result cache keyed by the pattern's region profile.

The search state is a handful of Python ints used as bitsets: included and
excluded edges over the ground set, and the active and hit conflicts over
the conflict list. Packing and propagation are big-int operations on
per-edge conflict-membership masks, the one conflict index the search
keeps; the per-edge branch counts pass from parent to child.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from itertools import starmap
from math import comb
from typing import Iterable, Optional, Sequence

from .constructions import complete_rgraph
from .hypergraph import (
    MAX_VERTICES,
    Hypergraph,
    checked_edge_mask,
    copies_of,
    edge_vertices,
    from_masks,
    pattern_profile,
)

SOLVER_VERSION = "1"
DEFAULT_BUDGET_NODES = 100_000_000
DEFAULT_BUDGET_SECS = 300.0

STATUS_OPTIMAL = "proved-optimal"
STATUS_LOWER_BOUND = "lower-bound-only"


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class TripleSystem:
    """Conflict encoding of "contains the forbidden pattern" over the
    complete r-graph on n vertices.

    ground holds every possible edge (ascending bit vectors); conflicts are
    index triples into it. A subset of the ground set is pattern-free exactly
    when it contains no conflict triple entirely.
    """

    n: int
    r: int
    ground: tuple[int, ...]
    conflicts: tuple[tuple[int, int, int], ...]
    family_profile: tuple[int, ...]
    family_name: str


@dataclass(frozen=True)
class SolveRecord:
    """Result of one exact computation: the optimum (or best lower bound on
    budget exhaustion), a verified pattern-free witness, and search stats.

    The field order is the key order of the JSON object (a cache line)."""

    family_profile: tuple[int, ...]
    family_name: str
    n: int
    r: int
    optimum: int
    status: str
    witness: tuple[int, ...]
    nodes: int
    millis: int
    version: str

    @property
    def proved_optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL

    def witness_hypergraph(self) -> Hypergraph:
        return from_masks(self.n, self.r, self.witness)

    def density(self) -> Fraction:
        total = comb(self.n, self.r)
        return Fraction(self.optimum, total) if total else Fraction(0)

    def to_json_dict(self) -> dict:
        return dict(
            vars(self),
            family_profile=list(self.family_profile),
            witness=[edge_vertices(e) for e in self.witness],
        )

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SolveRecord":
        """Decode a cache line's object, the one check of a record: KeyError,
        TypeError or ValueError when it is not one. Keys that are not fields
        are ignored, so a line from a later version still loads."""
        kw = {key: obj[key] for key in _RECORD_KEYS}
        profile = kw["family_profile"] = tuple(kw["family_profile"])
        n, r, optimum, edges = kw["n"], kw["r"], kw["optimum"], kw["witness"]
        counts = (n, r, optimum, kw["nodes"], kw["millis"], *profile)
        if not (
            len(profile) == 7
            and set(map(type, counts)) == {int}
            and min(counts) >= 0 and r >= 1 and n <= MAX_VERTICES
            # r is each edge size the profile implies: a1+a12+a13+a123 and the like
            and r == profile[0] + profile[3] + profile[4] + profile[6]
            == profile[1] + profile[3] + profile[5] + profile[6]
            == profile[2] + profile[4] + profile[5] + profile[6]
            and kw["status"] in (STATUS_OPTIMAL, STATUS_LOWER_BOUND)
            and type(kw["family_name"]) is str and type(kw["version"]) is str
            and optimum == len(edges)
            and optimum == len(witness := {*starmap(partial(_edge_mask_memo, n, r), edges)})
        ):
            raise ValueError("not a solve record")
        kw["witness"] = tuple(sorted(witness))
        return cls(**kw)


_RECORD_KEYS = tuple(f.name for f in fields(SolveRecord))
# Cache lines repeat a few hundred distinct edges. typed: False or 3.0 is not a hit for 0 or 3.
_edge_mask_memo = lru_cache(maxsize=1 << 12, typed=True)(checked_edge_mask)


def forbidden_triples(f: Hypergraph, n: int, family_name: str = "") -> TripleSystem:
    """Materialize the conflict system of the three-edge pattern f on [n].

    When n is smaller than f's support the conflict list is empty.
    """
    profile = pattern_profile(f)
    r = f.r
    complete = complete_rgraph(n, r) if n >= r else Hypergraph(n, r, ())
    ground = complete.edges
    if n < f.support_size:
        return TripleSystem(n, r, ground, (), profile, family_name)
    # The ground is ascending and copies_of yields ascending triples in
    # lexicographic order, so the index triples come out sorted.
    index = {mask: i for i, mask in enumerate(ground)}
    conflicts = tuple((index[a], index[b], index[c]) for a, b, c in copies_of(f, complete))
    return TripleSystem(n, r, ground, conflicts, profile, family_name)


def _violates(conflicts: Sequence[tuple[int, int, int]], mask: int) -> bool:
    """True when the ground-index bitmask selects every edge of some conflict."""
    for a, b, c in conflicts:
        if mask >> a & 1 and mask >> b & 1 and mask >> c & 1:
            return True
    return False


def _normalize_witness(system: TripleSystem, witness) -> int:
    """Seed witness (Hypergraph or edge masks) -> ground-index bitmask."""
    if witness is None:
        return 0
    masks = witness.edges if isinstance(witness, Hypergraph) else tuple(witness)
    index = {mask: i for i, mask in enumerate(system.ground)}
    selected = 0
    for mask in masks:
        if mask not in index:
            raise ValueError(f"seed edge {edge_vertices(mask)} is not a ground edge")
        selected |= 1 << index[mask]
    if _violates(system.conflicts, selected):
        raise ValueError("seed witness contains a forbidden triple")
    return selected


def _check_budgets(budget_nodes: int | None, budget_secs: float | None) -> None:
    if budget_nodes is not None and budget_nodes < 1:
        raise ValueError(f"node budget must be at least 1, got {budget_nodes}")
    # `not >=` also catches NaN, which would disable the deadline.
    if budget_secs is not None and not budget_secs >= 0:
        raise ValueError(f"time budget must be a non-negative number of seconds, got {budget_secs}")


def solve_exact(
    system: TripleSystem,
    *,
    budget_nodes: int | None = None,
    budget_secs: float | None = None,
    seed_witness: Optional[Hypergraph | Iterable[int]] = None,
) -> SolveRecord:
    """Branch and bound for the maximum conflict-free subset of the ground set.

    The incumbent starts from the optional seed witness. Branching picks the
    undecided edge lying in the most active conflicts (the lowest index among
    ties); the bound subtracts a greedy packing of active conflicts with
    disjoint undecided parts from the count of undecided edges. Completing
    within budget proves optimality; otherwise the record is marked
    lower-bound-only. The returned witness is re-verified to be conflict-free
    either way. budget_nodes must be at least 1 (a budget of N allows N
    nodes) and budget_secs a non-negative number (0.0 stops at the first
    deadline poll); anything else raises ValueError.

    A conflict is active while none of its edges is excluded, and the search
    carries hit, the conflicts containing an included edge. Including edge e
    excludes the third edge of each conflict in membership[e] & active & hit,
    the active conflicts of e that already hold an included edge. So an
    active conflict never holds two included edges: when its second edge was
    included it was active and in hit, and its third edge was excluded then.
    Including an undecided edge is therefore always feasible, and the active
    conflicts in hit have exactly two undecided edges, the others three. The
    packing takes the former, then the latter, each in conflict-index order,
    keeping a conflict when no earlier pick shares an undecided edge with it;
    each pick removes every conflict through its undecided edges' membership
    masks. This is the same first-fit greedy as scanning every active
    conflict, at O(picks) big-int operations instead of O(active).

    A branch node passes its active set and branch counts (active conflicts
    per undecided edge, at most 0 per decided one) to both children. A child
    decrements a copy by the three edges of each conflict dead since then,
    or rebuilds it when those conflicts outnumber half its undecided edges.

    The root fixes the first ground edge to included, which is valid for the
    documented TripleSystem shape: a complete ground set, whose relabeling
    symmetry moves any edge of an optimal solution onto the first one.
    """
    _check_budgets(budget_nodes, budget_secs)
    t0 = time.monotonic()
    node_budget = DEFAULT_BUDGET_NODES if budget_nodes is None else budget_nodes
    secs_budget = DEFAULT_BUDGET_SECS if budget_secs is None else budget_secs
    deadline = t0 + secs_budget
    m = len(system.ground)
    conflicts = system.conflicts
    seed_mask = _normalize_witness(system, seed_witness)

    best_val = seed_mask.bit_count()
    best_mask = seed_mask
    nodes = 0
    status = STATUS_OPTIMAL
    full = (1 << m) - 1

    if not conflicts:
        best_val, best_mask = m, full
    else:
        # Conflict ci is bit last - ci of the conflict bitsets, so the
        # lowest-index conflict of a set is its top bit, read in O(1).
        last = len(conflicts) - 1
        membership = [0] * m
        for ci, (a, b, c) in enumerate(conflicts):
            bit = 1 << (last - ci)
            membership[a] |= bit
            membership[b] |= bit
            membership[c] |= bit
        all_conflicts = (1 << len(conflicts)) - 1
        keep = [all_conflicts & ~mem for mem in membership]

        def include(inc: int, exc: int, active: int, hit: int, e: int):
            # Include edge e and propagate: each active conflict of e that
            # already holds an included edge forces its third edge out.
            # Exclusions cascade no further, so one pass suffices.
            inc |= 1 << e
            forced = membership[e] & active & hit
            while forced:
                for x in conflicts[last + 1 - forced.bit_length()]:
                    if not inc >> x & 1:
                        exc |= 1 << x
                        active &= keep[x]
                forced &= active
            return inc, exc, active, hit | membership[e]

        def dfs(inc: int, exc: int, active: int, hit: int, parent_active: int, parent_counts: list):
            nonlocal best_val, best_mask, nodes
            if nodes == node_budget:
                raise _BudgetExhausted
            nodes += 1
            if not nodes & 255 and time.monotonic() > deadline:
                raise _BudgetExhausted
            exc_count = exc.bit_count()
            if not active:
                # No conflict can still be violated: take every undecided edge.
                val = m - exc_count
                if val > best_val:
                    best_val = val
                    best_mask = full & ~exc
                return
            inc_count = inc.bit_count()
            undecided = m - inc_count - exc_count
            if inc_count + undecided <= best_val:
                return
            # Greedy packing, first fit in conflict order: the active
            # conflicts in hit (one edge included, two undecided) first,
            # then the rest (three undecided). Packing a conflict drops
            # every conflict sharing one of its undecided edges.
            packed = 0
            rem = active
            two = rem & hit
            while two:
                packed += 1
                a, b, c = conflicts[last + 1 - two.bit_length()]
                u, v = (b, c) if inc >> a & 1 else (a, c) if inc >> b & 1 else (a, b)
                rem &= keep[u] & keep[v]
                two = rem & hit
            while rem:
                packed += 1
                a, b, c = conflicts[last + 1 - rem.bit_length()]
                rem &= keep[a] & keep[b] & keep[c]
            bound = inc_count + undecided - packed
            if bound <= best_val:
                return
            gone = parent_active & ~active  # the conflicts dead since the parent
            if 2 * gone.bit_count() <= undecided:
                counts = parent_counts[:]
                for bit in edge_vertices(gone):
                    for x in conflicts[last - bit]:
                        counts[x] -= 1
            else:
                counts = [-1] * m
                for e in edge_vertices(full & ~(inc | exc)):
                    counts[e] = (membership[e] & active).bit_count()
            # Branch on the undecided edge in the most active conflicts, the
            # lowest index among ties. Each active conflict has at least two
            # undecided edges, so the maximum is at least 1: no decided edge wins.
            branch = counts.index(max(counts))
            counts[branch] = -1
            include_state = (*include(inc, exc, active, hit, branch), active, counts)
            exclude_state = (inc, exc | (1 << branch), active & keep[branch], hit, active, counts)
            if bound - best_val >= 2:
                order = (include_state, exclude_state)
            else:
                order = (exclude_state, include_state)
            for state in order:
                dfs(*state)

        # Root symmetry breaking: ground edges are interchangeable under
        # vertex relabeling and a single edge is always conflict-free, so
        # some optimum contains the first ground edge.
        counts = [-1] + [mem.bit_count() for mem in membership[1:]]
        try:
            dfs(*include(0, 0, all_conflicts, 0, 0), all_conflicts, counts)
        except _BudgetExhausted:
            status = STATUS_LOWER_BOUND

    witness = tuple(
        system.ground[i] for i in range(m) if best_mask >> i & 1
    )
    if _violates(conflicts, best_mask):
        raise AssertionError("witness contains a forbidden triple")
    millis = int((time.monotonic() - t0) * 1000)
    return SolveRecord(
        family_profile=system.family_profile,
        family_name=system.family_name,
        n=system.n,
        r=system.r,
        optimum=best_val,
        status=status,
        witness=witness,
        nodes=nodes,
        millis=millis,
        version=SOLVER_VERSION,
    )


# -- result cache -----------------------------------------------------------

class ResultCache:
    """Append-only JSONL store of solve records.

    One rule for the line format, kept by the reader and the writer: a
    record is a line that ends in a newline. The file is loaded once per
    ResultCache: each records() or lookup() call stats it and decodes only
    the lines completed since the previous call, so appends by other
    writers are seen on the next call. The bytes after the last newline are
    an append in progress: they are not decoded, and they are read again on
    the next call. A missing file is an empty cache, even one that vanishes
    as it is opened. A file that was replaced (a new device and inode) or
    shrank is read again from the start; rewriting read lines in place
    without shrinking the file is not detected. Blank lines are skipped.
    Every other line must decode to a record (SolveRecord.from_json_dict);
    otherwise it is a corrupt line: reading stops before it, so each later
    call reads it again and raises it with the same line number until it is
    mended in place or the file is replaced, truncated or removed. append
    writes each record with a single write on an O_APPEND descriptor, so
    concurrent writers never interleave within a line, and starts it with a
    newline when the file does not end in one, so a record never lands on
    another line (an interrupted append's partial line becomes a corrupt line).
    solve_family checks every hit's witness against the requested pattern.
    """

    def __init__(self, path: str):
        self.path = path
        self._reset(None)

    def _reset(self, file_id: Optional[tuple[int, int]]) -> None:
        self._file_id = file_id
        self._offset = 0  # bytes before the first unread line
        self._lines = 0  # lines before the first unread line
        self._records: list[SolveRecord] = []
        # (profile, n) -> the last proved record of the current version
        self._index: dict[tuple[tuple[int, ...], int], SolveRecord] = {}

    def _refresh(self) -> None:
        """Bring the records up to date with the file, raising on a corrupt line."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._reset(None)
            return
        with fh:
            st = os.fstat(fh.fileno())
            file_id = (st.st_dev, st.st_ino)
            if file_id != self._file_id or st.st_size < self._offset:
                self._reset(file_id)
            if st.st_size <= self._offset:
                return
            fh.seek(self._offset)
            data = fh.read()
        for line in data.split(b"\n")[:-1]:
            if line.strip():
                try:
                    rec = SolveRecord.from_json_dict(json.loads(line))
                except (TypeError, ValueError, KeyError, RecursionError):
                    raise ValueError(f"corrupt cache line {self._lines + 1} in {self.path}") from None
                self._records.append(rec)
                if rec.version == SOLVER_VERSION and rec.proved_optimal:
                    self._index[rec.family_profile, rec.n] = rec
            self._offset += len(line) + 1
            self._lines += 1

    def records(self) -> list[SolveRecord]:
        self._refresh()
        return list(self._records)

    def lookup(self, profile: tuple[int, ...], n: int) -> Optional[SolveRecord]:
        """The last proved record of the current version for (profile, n)."""
        self._refresh()
        return self._index.get((tuple(profile), n))

    def append(self, record: SolveRecord) -> None:
        line = (json.dumps(record.to_json_dict(), separators=(",", ":")) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + line  # end the line an earlier write left open
            written = os.write(fd, line)
        finally:
            os.close(fd)
        # A second write could land after another writer's line, so a short
        # write is an error rather than something to finish.
        if written != len(line):
            raise OSError(f"short write to {self.path}: {written} of {len(line)} bytes")


def solve_family(
    f: Hypergraph,
    n: int,
    *,
    family_name: str = "",
    cache: Optional[ResultCache] = None,
    budget_nodes: int | None = None,
    budget_secs: float | None = None,
    seed_witness: Optional[Hypergraph | Iterable[int]] = None,
) -> SolveRecord:
    """Cache-aware wrapper: consult the cache first, otherwise build the
    conflict system, solve, and append the result when proved optimal.
    Budgets are checked before the cache is read, so a bad budget is refused
    whether or not the record is cached. A cached witness that contains a
    copy of f raises ValueError naming the cache file."""
    profile = pattern_profile(f)
    _check_budgets(budget_nodes, budget_secs)
    if cache is not None:
        hit = cache.lookup(profile, n)
        if hit is not None:
            if next(copies_of(f, hit.witness_hypergraph()), None) is not None:
                raise ValueError(f"cached witness for n={n} contains the pattern in {cache.path}")
            return hit
    system = forbidden_triples(f, n, family_name)
    record = solve_exact(
        system,
        budget_nodes=budget_nodes,
        budget_secs=budget_secs,
        seed_witness=seed_witness,
    )
    if cache is not None and record.proved_optimal:
        cache.append(record)
    return record


# -- density sequences -------------------------------------------------------

def density_sequence(
    f: Hypergraph,
    n_values: Sequence[int],
    *,
    family_name: str = "",
    cache: Optional[ResultCache] = None,
    budget_nodes: int | None = None,
    budget_secs: float | None = None,
    seed_for: Optional[dict[int, Hypergraph | Iterable[int]]] = None,
) -> list[SolveRecord]:
    """Solve a run of n values and audit the densities.

    The density ex(n)/C(n, r) of consecutive proved-optimal entries must be
    non-increasing; a violation raises, since it can only come from a solver
    bug. Entries that exhausted their budget, and entries with n < r, are
    kept but excluded from the audit.
    """
    records = []
    for n in sorted(n_values):
        seed = (seed_for or {}).get(n)
        records.append(
            solve_family(
                f,
                n,
                family_name=family_name,
                cache=cache,
                budget_nodes=budget_nodes,
                budget_secs=budget_secs,
                seed_witness=seed,
            )
        )
    audit_density_monotone(records)
    return records


def audit_density_monotone(records: Sequence[SolveRecord]) -> None:
    """Exact-arithmetic check that proved-optimal densities never increase,
    over the records with n >= r (below r the density is a placeholder 0)."""
    proved = sorted(
        (rec for rec in records if rec.proved_optimal and rec.n >= rec.r), key=lambda rec: rec.n
    )
    for prev, cur in zip(proved, proved[1:]):
        if cur.density() > prev.density():
            raise RuntimeError(
                f"density increased from n={prev.n} ({prev.density()}) "
                f"to n={cur.n} ({cur.density()}); solver bug"
            )


# -- constraint export --------------------------------------------------------

def export_cnf(system: TripleSystem, at_least: Optional[int] = None) -> str:
    """DIMACS CNF for the conflict system.

    Variable i+1 selects ground edge i (edges ascending by bit vector; the
    comment header lists the vertex sets). One clause -a -b -c per conflict.
    With at_least=t, a sequential-counter encoding over the negated selection
    literals enforces at least t selected edges, using auxiliary variables
    numbered above the selection variables.
    """
    m = len(system.ground)
    clauses: list[tuple[int, ...]] = [
        tuple(-(i + 1) for i in triple) for triple in system.conflicts
    ]
    nvars = m
    if at_least is not None:
        if not 0 <= at_least <= m:
            raise ValueError(f"cannot require {at_least} of {m} edges")
        if at_least > 0:
            counter_clauses, nvars = _at_most_k_sequential(
                literals=[-(i + 1) for i in range(m)],
                k=m - at_least,
                next_var=m + 1,
            )
            clauses.extend(counter_clauses)
    lines = [
        f"c conflict-free edge selection: n={system.n} r={system.r} "
        f"family={system.family_name or 'unnamed'}",
        f"c profile={list(system.family_profile)}",
        "c var i selects ground edge i-1; edge vertex sets:",
    ]
    for i, mask in enumerate(system.ground):
        lines.append(f"c var {i + 1} = {' '.join(str(v) for v in edge_vertices(mask))}")
    if at_least is not None:
        lines.append(f"c cardinality: at least {at_least} selected (sequential counter)")
    lines.append(f"p cnf {nvars} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _at_most_k_sequential(literals: list[int], k: int, next_var: int) -> tuple[list[tuple[int, ...]], int]:
    """Sinz sequential-counter clauses for at-most-k over the given literals.

    Needs k < len(literals). Returns (clauses, highest variable number used).
    k = 0 degenerates to unit clauses negating every literal.
    """
    n = len(literals)
    if k == 0:
        return [(-lit,) for lit in literals], next_var - 1
    # s[i][j] (1-based j <= k): the count among the first i+1 literals is >= j
    reg = [[next_var + i * k + j for j in range(k)] for i in range(n - 1)]
    top = next_var + (n - 1) * k - 1
    clauses = []
    clauses.append((-literals[0], reg[0][0]))
    for j in range(1, k):
        clauses.append((-reg[0][j],))
    for i in range(1, n - 1):
        clauses.append((-literals[i], reg[i][0]))
        clauses.append((-reg[i - 1][0], reg[i][0]))
        for j in range(1, k):
            clauses.append((-literals[i], -reg[i - 1][j - 1], reg[i][j]))
            clauses.append((-reg[i - 1][j], reg[i][j]))
        clauses.append((-literals[i], -reg[i - 1][k - 1]))
    clauses.append((-literals[n - 1], -reg[n - 2][k - 1]))
    return clauses, top


def export_ilp(system: TripleSystem) -> str:
    """LP-format integer program: maximize the selected edge count subject to
    x_a + x_b + x_c <= 2 per conflict, all variables binary.

    Variable xi selects ground edge i-1, matching the CNF numbering.
    """
    lines = [
        f"\\ conflict-free edge selection: n={system.n} r={system.r} "
        f"family={system.family_name or 'unnamed'}",
        f"\\ profile={list(system.family_profile)}",
        "Maximize",
        " obj: " + " + ".join(f"x{i + 1}" for i in range(len(system.ground))),
        "Subject To",
    ]
    for ci, (a, b, c) in enumerate(system.conflicts):
        lines.append(f" c{ci + 1}: x{a + 1} + x{b + 1} + x{c + 1} <= 2")
    lines.append("Binary")
    lines.append(" " + " ".join(f"x{i + 1}" for i in range(len(system.ground))))
    lines.append("End")
    return "\n".join(lines) + "\n"
