"""Exact maximum edge counts for a forbidden three-edge pattern.

The problem is encoded as a maximum independent set in a 3-uniform conflict
system: the ground set holds all C(n, r) possible edges and each conflict
triple marks three of them forming a copy of the forbidden pattern. Solving
is branch and bound over include/exclude decisions per ground edge, with a
greedy disjoint-conflict packing bound, root-level symmetry breaking, an
optional cap that stops the search (density sequences take it from the
n - 1 optimum they just proved), and an append-only JSONL result cache
keyed by the pattern's region profile. A budget or the cap ends a search
through one exception that carries the record's status and close reason.

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
from fractions import Fraction
from functools import lru_cache, partial
from itertools import starmap
from math import comb
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .constructions import complete_rgraph
from .hypergraph import (
    MAX_VERTICES,
    Hypergraph,
    RegionProfile,
    check_build,
    check_capacity,
    checked_edge_mask,
    copies_of,
    copy_count,
    edge_vertices,
    from_masks,
    pattern_profile,
)

SOLVER_VERSION = "1"
DEFAULT_BUDGET_NODES = 100_000_000
DEFAULT_BUDGET_SECS = 300.0

STATUS_OPTIMAL = "proved-optimal"
STATUS_LOWER_BOUND = "lower-bound-only"
CLOSED_BY_SEARCH = "search"
CLOSED_BY_CAP = "cap"
CLOSED_BY_INTERRUPT = "interrupted"


class _Stop(Exception):
    """Ends a search early; its args are the record's (status, closed_by)."""


class DensityIncreased(RuntimeError):
    """A proved-optimal density rose with n: a cached optimum is too low or
    the solver is wrong (raised by audit_density_monotone)."""


class TripleSystem(NamedTuple):
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
    family_profile: RegionProfile
    family_name: str


class SolveRecord(NamedTuple):
    """Result of one exact computation: the optimum (or best lower bound on
    budget exhaustion), a verified pattern-free witness, and search stats.

    closed_by says how a proof closed: "search" when the search ran out of
    nodes to explore, "cap" when the incumbent met the upper bound passed
    to solve_exact; "interrupted" marks a lower bound cut short by Ctrl-C.
    The field order is the key order of the JSON object (a cache line),
    which holds closed_by only when it is "cap"."""

    family_profile: RegionProfile
    family_name: str
    n: int
    r: int
    optimum: int
    status: str
    witness: tuple[int, ...]
    nodes: int
    millis: int
    version: str
    closed_by: str = CLOSED_BY_SEARCH

    @property
    def proved_optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL

    def witness_hypergraph(self) -> Hypergraph:
        return from_masks(self.n, self.r, self.witness)

    def density(self) -> Fraction:
        total = comb(self.n, self.r)
        return Fraction(self.optimum, total) if total else Fraction(0)

    def to_json_dict(self) -> dict:
        obj = dict(
            self._asdict(),
            family_profile=list(self.family_profile),
            witness=[edge_vertices(e) for e in self.witness],
        )
        if self.closed_by == CLOSED_BY_SEARCH:
            del obj["closed_by"]  # so lines without the key stay byte-identical
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SolveRecord":
        """Decode a cache line's object, the one check of a record: KeyError,
        TypeError or ValueError when it is not one. Keys that are not fields
        are ignored, so a line from a later version still loads, and a
        missing closed_by is "search"."""
        kw = {key: obj[key] for key in _RECORD_KEYS}
        kw["closed_by"] = obj.get("closed_by", CLOSED_BY_SEARCH)
        p = kw["family_profile"] = RegionProfile._make(kw["family_profile"])
        n, r, optimum, edges = kw["n"], kw["r"], kw["optimum"], kw["witness"]
        counts = (n, r, optimum, kw["nodes"], kw["millis"], *p)
        if not (
            set(map(type, counts)) == {int}
            and min(counts) >= 0 and r >= 1 and n <= MAX_VERTICES
            # r is each edge size the profile implies
            and r == p.a1 + p.a12 + p.a13 + p.a123
            == p.a2 + p.a12 + p.a23 + p.a123
            == p.a3 + p.a13 + p.a23 + p.a123
            and kw["status"] in (STATUS_OPTIMAL, STATUS_LOWER_BOUND)
            # only a proof closes by the cap
            and (kw["closed_by"] == CLOSED_BY_SEARCH
                 or kw["closed_by"] == CLOSED_BY_CAP and kw["status"] == STATUS_OPTIMAL)
            and type(kw["family_name"]) is str and type(kw["version"]) is str
            and optimum == len(edges)
            and optimum == len(witness := {*starmap(partial(_edge_mask_memo, n, r), edges)})
        ):
            raise ValueError("not a solve record")
        kw["witness"] = tuple(sorted(witness))
        return cls(**kw)


_RECORD_KEYS = tuple(name for name in SolveRecord._fields if name != "closed_by")
# Cache lines repeat a few hundred distinct edges. typed: False or 3.0 is not a hit for 0 or 3.
_edge_mask_memo = lru_cache(maxsize=1 << 12, typed=True)(checked_edge_mask)


def forbidden_triples(f: Hypergraph, n: int, family_name: str = "") -> TripleSystem:
    """Materialize the conflict system of the three-edge pattern f on [n].

    Sizes and copy_count are checked first, and a count of 0 scans nothing.
    """
    profile = pattern_profile(f)
    check_capacity(n, f.r)
    count = copy_count(profile, n)
    check_build(count, "conflicts")
    complete = complete_rgraph(n, f.r)
    # The ground is ascending and copies_of yields ascending triples in
    # lexicographic order, so the index triples come out sorted.
    index = {mask: i for i, mask in enumerate(complete.edges)}
    conflicts = tuple((index[a], index[b], index[c]) for a, b, c in copies_of(f, complete)) if count else ()
    if len(conflicts) != count:
        raise AssertionError(f"{len(conflicts)} conflicts built, {count} copies counted")
    return TripleSystem(n, f.r, complete.edges, conflicts, profile, family_name)


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
    cap: int | None = None,
) -> SolveRecord:
    """Branch and bound for the maximum conflict-free subset of the ground set.

    The incumbent starts from the optional seed witness. One test prunes: a
    node's bound is |inc| + |undecided| - packed = m - |exc| - packed, for a
    greedy packing of active conflicts with disjoint undecided parts, and the
    node is pruned iff bound <= incumbent. It is sound: a conflict-free
    completion leaves out a distinct undecided edge of each packed conflict.
    The packing stops once the bound reaches the incumbent, which prunes the
    same nodes. A surviving node with no active conflict is a leaf, whose
    completion takes every undecided edge; any other node branches on the
    undecided edge in the most active conflicts (the lowest index among
    ties). The node budget, the deadline (polled every 256 nodes) and the
    cap end the search by one exception, _Stop, whose args are the record's
    status and closed_by: lower-bound-only on a budget. A KeyboardInterrupt
    in the search also gives lower-bound-only, closed_by "interrupted". The
    witness is re-verified in every case. budget_nodes must be at least 1 (a
    budget of N allows N nodes) and budget_secs a non-negative number (0.0
    stops at the first deadline poll); anything else raises ValueError.

    cap, when given, is a stop rule: the caller vouches that no
    conflict-free subset is larger, so the search stops, proved optimal
    with closed_by "cap", as soon as the incumbent reaches it (a seed that
    meets it takes 0 nodes). The proof is then only as sound as the cap;
    an incumbent above it raises ValueError. Without a cap, nodes,
    witnesses and records are those of the plain search.

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
    symmetry moves any edge of an optimal solution (nonempty, since a single
    edge is conflict-free) onto the first one.
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
    closed_by = CLOSED_BY_SEARCH
    full = (1 << m) - 1
    # No subset exceeds m, so m + 1 never stops an uncapped search.
    stop_at = m + 1 if cap is None else cap

    if best_val >= stop_at:
        closed_by = CLOSED_BY_CAP
    elif not conflicts:
        best_val, best_mask = m, full
    else:
        # Conflict ci is bit last - ci of the conflict bitsets, so the
        # lowest-index conflict of a set is its top bit, read in O(1).
        # Each edge's bitset is set byte by byte and converted once, which
        # is linear in the conflict count; OR-ing bits into growing ints
        # is quadratic.
        last = len(conflicts) - 1
        rows = [bytearray(last // 8 + 1) for _ in range(m)]
        for ci, triple in enumerate(conflicts):
            byte, flag = divmod(last - ci, 8)
            flag = 1 << flag
            for e in triple:
                rows[e][byte] |= flag
        membership = [int.from_bytes(row, "little") for row in rows]
        del rows
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
                raise _Stop(STATUS_LOWER_BOUND, CLOSED_BY_SEARCH)
            nodes += 1
            if not nodes & 255 and time.monotonic() > deadline:
                raise _Stop(STATUS_LOWER_BOUND, CLOSED_BY_SEARCH)
            # The docstring's greedy packing, stopped at room picks, where bound = incumbent.
            exc_count = exc.bit_count()
            room = m - exc_count - best_val
            packed = 0
            rem = active
            two = rem & hit
            while two and packed < room:
                packed += 1
                a, b, c = conflicts[last + 1 - two.bit_length()]
                u, v = (b, c) if inc >> a & 1 else (a, c) if inc >> b & 1 else (a, b)
                rem &= keep[u] & keep[v]
                two = rem & hit
            while rem and packed < room:
                packed += 1
                a, b, c = conflicts[last + 1 - rem.bit_length()]
                rem &= keep[a] & keep[b] & keep[c]
            bound = m - exc_count - packed
            if bound <= best_val:
                return
            if not active:
                # No conflict can still be violated: take every undecided edge.
                best_val, best_mask = bound, full & ~exc
                if bound >= stop_at:
                    raise _Stop(STATUS_OPTIMAL, CLOSED_BY_CAP)
                return
            inc_count = inc.bit_count()
            undecided = m - inc_count - exc_count
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

        # Root symmetry breaking (see the docstring): some optimum holds edge 0.
        counts = [-1] + [mem.bit_count() for mem in membership[1:]]
        try:
            dfs(*include(0, 0, all_conflicts, 0, 0), all_conflicts, counts)
        except _Stop as stop:
            status, closed_by = stop.args
        except KeyboardInterrupt:
            # It may land between the two incumbent updates: the mask counts.
            status, closed_by = STATUS_LOWER_BOUND, CLOSED_BY_INTERRUPT
            best_val = best_mask.bit_count()

    witness = tuple(system.ground[i] for i in range(m) if best_mask >> i & 1)
    if _violates(conflicts, best_mask):
        raise AssertionError("witness contains a forbidden triple")
    if cap is not None and best_val > cap:
        raise ValueError(f"a conflict-free subset of {best_val} edges exceeds the cap {cap}")
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
        closed_by=closed_by,
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
    density_sequence checks every hit's witness against the requested pattern.
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
    """density_sequence at the one n, so never capped; seed_witness seeds it
    on a miss. Budgets and sizes are checked before the cache is read. A hit
    is the stored record as is (family_name, nodes and millis too); its
    optimum is trusted and only its witness is checked: a copy of f in it
    raises ValueError naming the cache file. A line that is too low is
    served until deleted or SOLVER_VERSION bumped."""
    return density_sequence(
        f, [n], family_name=family_name, cache=cache, budget_nodes=budget_nodes,
        budget_secs=budget_secs, seed_for=lambda _: seed_witness,
    )[0]


# -- density sequences -------------------------------------------------------

def density_sequence(
    f: Hypergraph,
    n_values: Sequence[int],
    *,
    family_name: str = "",
    cache: Optional[ResultCache] = None,
    budget_nodes: int | None = None,
    budget_secs: float | None = None,
    seed_for: Optional[Callable[[int], Hypergraph | Iterable[int] | None]] = None,
) -> list[SolveRecord]:
    """Solve a run of n values in ascending order and audit the densities.
    The pattern, the budgets, then each n's sizes (check_capacity and the
    build limit) are checked first, even for an empty run, so a run that
    crosses a limit reads no cache and solves nothing. seed_for(n) is called
    once per n searched, after its build (never for a hit), to seed it.

    The density ex(n)/C(n, r) of consecutive proved-optimal entries must be
    non-increasing; a violation raises DensityIncreased, since it can only
    come from a solver bug or a cached optimum that is too low. Entries that
    exhausted their budget, and entries with n < r, are kept but excluded
    from the audit; an interrupted entry (see solve_exact) ends the run.
    An entry solved under the cap below passes it by construction, whether
    or not it stopped there, so in a capped chain only an independent check
    (the tests compare against uncapped search and a subset scan) catches
    an ex(n-1) that is too low.

    When this call's search proved ex(n-1) and n > r, the solve at n stops
    at the averaging cap floor(ex(n-1) * n / (n - r)): deleting a vertex of
    a pattern-free r-graph on n vertices leaves one on n - 1, and each edge
    survives n - r of the n deletions, so e * (n - r) <= n * ex(n-1)
    (Katona, Nemetz and Simonovits, 1964). Neither a lower-bound-only
    record, an n - 1 missing from n_values nor a cache hit gives a cap: a
    hit's optimum is trusted and only its witness is checked (ValueError
    naming the cache file when it holds a copy of f). So only an uncapped
    search at a later n of this call, cached before the audit, exposes a
    line that is too low; delete it or bump SOLVER_VERSION.
    """
    profile = pattern_profile(f)
    _check_budgets(budget_nodes, budget_secs)
    n_values = sorted(n_values)
    for n in n_values:
        check_capacity(n, f.r)
        check_build(copy_count(profile, n), "conflicts")
        check_build(comb(n, f.r), "r-sets")
    records = []
    proved: dict[int, int] = {}  # n -> ex(n), proved by a search in this call
    for n in n_values:
        record = cache.lookup(profile, n) if cache is not None else None
        if record is not None:
            if next(copies_of(f, record.witness_hypergraph()), None) is not None:
                raise ValueError(f"cached witness for n={n} contains the pattern in {cache.path}")
        else:
            prev = proved.get(n - 1)
            record = solve_exact(
                forbidden_triples(f, n, family_name),
                budget_nodes=budget_nodes,
                budget_secs=budget_secs,
                seed_witness=seed_for(n) if seed_for else None,
                cap=prev * n // (n - f.r) if prev is not None and n > f.r else None,
            )
            if record.proved_optimal:
                proved[n] = record.optimum
                if cache is not None:
                    cache.append(record)
        records.append(record)
        if record.closed_by == CLOSED_BY_INTERRUPT:
            break
    audit_density_monotone(records)
    return records


def audit_density_monotone(records: Sequence[SolveRecord]) -> None:
    """Exact-arithmetic check that proved-optimal densities never increase,
    over the records with n >= r (below r the density is a placeholder 0).

    A pair whose later record was solved under the averaging cap from the
    earlier one (see density_sequence) passes by construction, since the
    cap is this very bound, so within a capped chain the audit cannot catch
    an ex(n-1) that is too low; it still checks pairs across cache hits,
    gaps and uncapped searches."""
    proved = sorted(
        (rec for rec in records if rec.proved_optimal and rec.n >= rec.r), key=lambda rec: rec.n
    )
    for prev, cur in zip(proved, proved[1:]):
        if cur.density() > prev.density():
            raise DensityIncreased(
                f"density increased from n={prev.n} ({prev.density()}) to n={cur.n} "
                f"({cur.density()}): a cached optimum may be too low, or the solver may be wrong"
            )


# -- constraint export --------------------------------------------------------

# Conflicts per text chunk: the per-line strings of one chunk are alive at once.
_CHUNK = 1 << 12


def check_at_least(at_least: int, m: int) -> None:
    """The one range rule of export_cnf's at_least: 0..m for m ground edges."""
    if not 0 <= at_least <= m:
        raise ValueError(f"cannot require {at_least} of {m} edges")


def export_cnf(system: TripleSystem, at_least: Optional[int] = None) -> str:
    """DIMACS CNF for the conflict system.

    Variable i+1 selects ground edge i (edges ascending by bit vector; the
    comment header lists the vertex sets). One clause -a -b -c per conflict.
    With at_least=t, a sequential-counter encoding over the negated selection
    literals enforces at least t selected edges, using auxiliary variables
    numbered above the selection variables.

    The text is joined once from chunks formatted straight from the conflict
    triples and the counter's variable arithmetic, so it costs about twice
    its own size in memory.
    """
    m = len(system.ground)
    conflicts = system.conflicts
    nvars, nclauses, counter = m, len(conflicts), []
    if at_least is not None:
        check_at_least(at_least, m)
        if at_least > 0:
            nvars, extra, counter = _at_most_k_sequential(m, m - at_least)
            nclauses += extra
    head = [
        f"c conflict-free edge selection: n={system.n} r={system.r} "
        f"family={system.family_name or 'unnamed'}\n",
        f"c profile={list(system.family_profile)}\n",
        "c var i selects ground edge i-1; edge vertex sets:\n",
    ]
    head += [
        f"c var {i} = {' '.join(map(str, edge_vertices(mask)))}\n"
        for i, mask in enumerate(system.ground, 1)
    ]
    if at_least is not None:
        head.append(f"c cardinality: at least {at_least} selected (sequential counter)\n")
    head.append(f"p cnf {nvars} {nclauses}\n")
    clauses = [
        "".join(f"-{a + 1} -{b + 1} -{c + 1} 0\n" for a, b, c in conflicts[lo:lo + _CHUNK])
        for lo in range(0, len(conflicts), _CHUNK)
    ]
    return "".join(head + clauses + counter)


def _at_most_k_sequential(n: int, k: int) -> tuple[int, int, list[str]]:
    """Sinz sequential-counter clauses for at most k true literals among the
    negated selection literals -1..-n, that is, at most k edges left out.

    Needs k < n. Register s(i, j), "at least j+1 of the first i+1 literals
    are true", is variable n + 1 + i*k + j. Returns the highest variable
    number used, the clause count, and the clauses as DIMACS text, one
    chunk per counter row. k = 0 degenerates to unit clauses selecting
    every edge.
    """
    if k == 0:
        return n, n, ["".join(f"{i} 0\n" for i in range(1, n + 1))]
    s = n + 1  # s(0, 0)
    rows = [f"1 {s} 0\n" + "".join(f"-{s + j} 0\n" for j in range(1, k))]
    for i in range(1, n - 1):
        p, q = s + (i - 1) * k, s + i * k  # s(i-1, 0), s(i, 0)
        rows.append(
            f"{i + 1} {q} 0\n-{p} {q} 0\n"
            + "".join(f"{i + 1} -{p + j - 1} {q + j} 0\n-{p + j} {q + j} 0\n" for j in range(1, k))
            + f"{i + 1} -{q - 1} 0\n"
        )
    top = s + (n - 1) * k - 1  # s(n-2, k-1)
    rows.append(f"{n} -{top} 0\n")
    return top, k + 1 + (n - 2) * (2 * k + 1), rows


def export_ilp(system: TripleSystem) -> str:
    """LP-format integer program: maximize the selected edge count subject to
    x_a + x_b + x_c <= 2 per conflict, all variables binary.

    Variable xi selects ground edge i-1, matching the CNF numbering.
    """
    conflicts = system.conflicts
    names = [f"x{i}" for i in range(1, len(system.ground) + 1)]
    head = (
        f"\\ conflict-free edge selection: n={system.n} r={system.r} "
        f"family={system.family_name or 'unnamed'}\n"
        f"\\ profile={list(system.family_profile)}\n"
        f"Maximize\n obj: {' + '.join(names)}\nSubject To\n"
    )
    rows = [
        "".join(
            f" c{ci}: x{a + 1} + x{b + 1} + x{c + 1} <= 2\n"
            for ci, (a, b, c) in enumerate(conflicts[lo:lo + _CHUNK], lo + 1)
        )
        for lo in range(0, len(conflicts), _CHUNK)
    ]
    return "".join([head, *rows, f"Binary\n {' '.join(names)}\nEnd\n"])
