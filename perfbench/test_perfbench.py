"""Self-tests of the benchmark: output schema, exact counts that must repeat
between runs of one seed, the independent checks, and pin coverage.

    python3 -m pytest perfbench/test_perfbench.py

The exact-count tests run every workload twice in traced mode and take a
few minutes.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import instances as inst  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())
EXACT_COUNTS = (
    "solver.nodes",
    "solver.conflicts",
    "solver.cache_lines_parsed",
    "hypergraph.copies_yielded",
    "stability.partitions_scanned",
)


def start(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.Popen:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace)]
    return subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def check_schema(res: dict, expected: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = res["metrics"][m["name"]]
        assert set(value) == {"value", "unit"}
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_untraced_schema():
    res = result(start("toolkit", 0, 0))
    check_schema(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_exact_counts_repeat_for_one_seed(workload):
    first, second = start(workload, 3, 1), start(workload, 3, 1)
    a, b = result(first), result(second)
    check_schema(a, SPEC["per_layer"])
    for name, unit, _ in tracing.PER_LAYER:
        if unit == "count":
            assert a["metrics"][name] == b["metrics"][name], name
    assert a["attempted"] == b["attempted"]
    active = {name for name in EXACT_COUNTS if a["metrics"][name]["value"]}
    expected = {
        "ladder": {"solver.nodes", "solver.conflicts", "hypergraph.copies_yielded"},
        "census": {"solver.nodes", "solver.conflicts", "solver.cache_lines_parsed",
                   "hypergraph.copies_yielded"},
        "requery": {"solver.nodes", "solver.conflicts", "solver.cache_lines_parsed",
                    "hypergraph.copies_yielded"},
        "toolkit": {"solver.conflicts", "hypergraph.copies_yielded",
                    "stability.partitions_scanned"},
    }[workload]
    assert active == expected
    if workload == "ladder":
        assert a["metrics"]["solver.nodes"]["value"] == 45938


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = start("ladder", 0, 0, cwd=tmp_path)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in out


def test_pins_cover_every_instance():
    keys = {inst.pin_key(p, n) for _, p, n, _ in inst.LADDER}
    for r in inst.CENSUS_R:
        assert PINS["classes"][str(r)] == len(oracle.classes(r))
        for p in oracle.classes(r):
            keys |= {inst.pin_key(p, n) for n in inst.census_ns(p) + (inst.REQUERY_MISS_N,)}
    assert keys == set(PINS["solves"])
    census = sum(len(inst.census_ns(p)) for r in inst.CENSUS_R for p in oracle.classes(r))
    assert census == 171
    assert PINS["solves"][inst.pin_key(inst.TRIANGLE, 12)]["optimum"] == 36  # Mantel: 12^2/4
    assert {inst.pin_key(p, n) for _, p, n, _ in inst.EXPORTS} == set(PINS["exports"])


def test_witness_check_finds_a_copy():
    pattern = oracle.Pattern(inst.TRIANGLE)
    square = [oracle.mask(e) for e in ((0, 1), (1, 2), (2, 3), (0, 3))]
    assert pattern.witness_problem(4, square) is None
    assert "copy" in pattern.witness_problem(4, square + [oracle.mask((0, 2))])
    assert "subset" in pattern.witness_problem(3, square)
    assert len(pattern.conflicts(5)) == 10


def test_map_check_finds_a_non_edge():
    source = [oracle.mask(e) for e in ((0, 1), (1, 2))]
    target = [oracle.mask((0, 1))]
    assert oracle.map_problem(source, target, [0, 1, 0], 2) is None
    assert "non-edge" in oracle.map_problem(source, target, [0, 1, 2], 2)
    assert "collapses" in oracle.map_problem(source, target, [0, 0, 0], 2)


def test_export_checks_count_conflicts():
    from turankit.hypergraph import make_hypergraph
    from turankit.solver import export_cnf, export_ilp, forbidden_triples

    system = forbidden_triples(make_hypergraph(3, 2, [(0, 1), (1, 2), (0, 2)]), 5)
    pattern = oracle.Pattern(inst.TRIANGLE)
    assert oracle.cnf_problem(export_cnf(system, at_least=4), pattern, 5, 10, 4) is None
    assert oracle.ilp_problem(export_ilp(system), pattern, 5, 10) is None
    assert "expected 11" in oracle.cnf_problem(export_cnf(system, at_least=4), pattern, 5, 11, 4)
    broken = export_ilp(system).replace(" c1: x1 + x2 + x3 <= 2\n", " c1: x1 + x2 + x10 <= 2\n")
    assert "not a copy" in oracle.ilp_problem(broken, pattern, 5, 10)
    rows = [line for line in export_ilp(system).splitlines() if line.endswith("<= 2")]
    repeated = export_ilp(system).replace(rows[1], rows[1].split(":")[0] + ":" + rows[0].split(":")[1])
    assert "repeats" in oracle.ilp_problem(repeated, pattern, 5, 10)
    cnf = export_cnf(system, at_least=4).splitlines()
    first = next(i for i, line in enumerate(cnf) if line.startswith("-"))
    cnf[first + 1] = cnf[first]
    assert "repeats" in oracle.cnf_problem("\n".join(cnf), pattern, 5, 10, 4)


def test_a_check_that_raises_fails_the_op():
    import run
    import workloads

    measurement = run.Measurement(None)
    measurement.call(0, workloads.Op("cli.solve", 2, lambda: "not json", json.loads))
    assert (measurement.attempted, measurement.failed) == (2, 2)
    assert "check raised JSONDecodeError" in measurement.problems[0]


def test_deviation_recount_agrees_with_definition():
    n, r = 6, 2
    part1 = oracle.mask((0, 1, 2))
    complete = [oracle.mask(c) for c in itertools.combinations(range(n), r)
                if (oracle.mask(c) & part1).bit_count() % 2]
    assert oracle.deviation(complete, n, r, part1) == (0, 0)
    assert oracle.deviation(complete[1:] + [oracle.mask((0, 1))], n, r, part1) == (1, 1)


def test_reference_units_are_taken_out_of_the_measured_time():
    import time

    import run
    import speed
    import workloads

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return []

    sampler = speed.Sampler()
    sampler.start()
    try:
        measurement = run.Measurement(None, sampler)
        elapsed = measurement.call(0, workloads.Op("busy", 1, busy, lambda got: got))
    finally:
        sampler.stop()
    assert measurement.speed.units >= 10
    assert abs(elapsed + measurement.speed.seconds - 0.3) < 0.02
    assert measurement.speed.scale() > 0
