"""Generate perfbench/pins.json, the table every benchmark run checks against.

Each ladder, census and requery instance is solved with turankit and
cross-checked three ways: the benchmark's own copy enumeration must give the
same conflict count, the witness must pass the benchmark's own check, and an
independent integer program (scipy's HiGHS milp) must reach the same
optimum. Class counts, export conflict counts and the reduction targets used
by the toolkit workload are pinned the same way. Any disagreement aborts.

This takes several minutes and needs scipy, so it is run once by hand:

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import csr_matrix  # noqa: E402

import instances as inst  # noqa: E402
import oracle  # noqa: E402
from turankit.catalog import enumerate_three_edge, realize_profile  # noqa: E402
from turankit.constructions import max_odd_bipartite  # noqa: E402
from turankit.hypergraph import canonical_regions  # noqa: E402
from turankit.morphisms import reduce_to_max_degree3  # noqa: E402
from turankit.solver import forbidden_triples, solve_family  # noqa: E402


def highs_optimum(m: int, conflicts) -> int:
    if not conflicts:
        return m
    rows = np.repeat(np.arange(len(conflicts)), 3)
    cols = np.array(conflicts).ravel()
    a = csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(len(conflicts), m))
    res = milp(
        -np.ones(m),
        constraints=LinearConstraint(a, -np.inf, 2),
        integrality=np.ones(m),
        bounds=Bounds(0, 1),
        options={"time_limit": 600},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(-res.fun))


def pin_solve(profile, n: int, seeded: bool) -> dict:
    pattern = oracle.Pattern(profile)
    f = realize_profile(profile, pattern.r)
    own = pattern.conflicts(n) if n >= pattern.support else []
    program = forbidden_triples(f, n)
    if len(program.conflicts) != len(own):
        raise RuntimeError(f"{profile}@{n}: {len(program.conflicts)} conflicts, own count {len(own)}")
    seed = max_odd_bipartite(n, pattern.r)[1] if seeded else None
    rec = solve_family(f, n, seed_witness=seed)
    if not rec.proved_optimal:
        raise RuntimeError(f"{profile}@{n}: solver did not prove optimality")
    problem = pattern.witness_problem(n, list(rec.witness))
    if problem or len(rec.witness) != rec.optimum:
        raise RuntimeError(f"{profile}@{n}: bad witness: {problem}")
    t0 = time.monotonic()
    highs = highs_optimum(comb(n, pattern.r), own)
    if highs != rec.optimum:
        raise RuntimeError(f"{profile}@{n}: solver {rec.optimum}, HiGHS {highs}")
    print(f"{inst.pin_key(profile, n):24} optimum {rec.optimum:4} conflicts {len(own):5} "
          f"HiGHS {time.monotonic() - t0:6.2f} s", flush=True)
    return {"optimum": rec.optimum, "conflicts": len(own)}


def main() -> None:
    pins = {"solves": {}, "exports": {}, "classes": {}, "min_degree_two": {}, "hom_targets": {}}

    for r in inst.CLASSIFY_R:
        own = oracle.classes(r)
        program = [e.profile.as_tuple() for e in enumerate_three_edge(r).entries]
        if sorted(program) != own:
            raise RuntimeError(f"r={r}: catalog differs from the own class enumeration")
        pins["classes"][str(r)] = len(own)
        pins["min_degree_two"][str(r)] = sum(1 for p in own if oracle.min_degree(p) >= 2)

    wanted = {}
    for _, profile, n, seeded in inst.LADDER:
        wanted[inst.pin_key(profile, n)] = (profile, n, seeded)
    for r in inst.CENSUS_R:
        for profile in oracle.classes(r):
            for n in inst.census_ns(profile) + (inst.REQUERY_MISS_N,):
                wanted.setdefault(inst.pin_key(profile, n), (profile, n, False))
    for key, (profile, n, seeded) in sorted(wanted.items()):
        pins["solves"][key] = pin_solve(profile, n, seeded)

    for _, profile, n, _ in inst.EXPORTS:
        key = inst.pin_key(profile, n)
        if key in pins["exports"]:
            continue
        pattern = oracle.Pattern(profile)
        if profile == inst.TRIANGLE:
            own = comb(n, 3)  # a triangle is any three vertices of K_n
        else:
            own = len(pattern.conflicts(n))
        program = len(forbidden_triples(realize_profile(profile, pattern.r), n).conflicts)
        if program != own:
            raise RuntimeError(f"export {key}: {program} conflicts, own count {own}")
        pins["exports"][key] = own

    for r in inst.REDUCE_R:
        for entry in enumerate_three_edge(r).min_degree_one:
            f = entry.representative
            target, vmap = reduce_to_max_degree3(f)
            problem = oracle.map_problem(f.edges, target.edges, vmap.images, r)
            if problem:
                raise RuntimeError(f"reduction of {entry.profile.as_tuple()}: {problem}")
            key = ",".join(map(str, entry.profile.as_tuple()))
            pins["hom_targets"][key] = list(canonical_regions(*target.edges))

    out = HERE / "pins.json"
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(pins['solves'])} solves")


if __name__ == "__main__":
    main()
