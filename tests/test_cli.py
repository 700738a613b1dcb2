"""End-to-end command-line tests against module-level outputs."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import turankit
from turankit import (
    Partition,
    copies_of,
    expanded_triangle,
    export_cnf,
    forbidden_triples,
    format_hypergraph,
    from_masks,
    link,
    make_hypergraph,
    odd_bipartite,
    parse_hypergraph,
    solve_exact,
    suspension,
)
from turankit import cli
from turankit.cli import main

from helpers import K33_RECORD, NON_RECORDS, interrupt_at_first_poll, lose_first_copy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_expanded_triangle(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "expanded-triangle", "--k", "2")
        assert code == 0
        assert parse_hypergraph(out) == expanded_triangle(2)

    def test_odd_bipartite_best(self, capsys):
        code, out, err = run(
            capsys, "construct", "--family", "odd-bipartite", "--n", "6", "--k", "2", "--best"
        )
        assert code == 0
        assert "(1, 5)" in err and "10 edges" in err
        assert len(parse_hypergraph(out).edges) == 10

    def test_complete(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "complete", "--n", "4", "--r", "3")
        assert code == 0
        assert len(parse_hypergraph(out).edges) == 4

    def test_complete_below_uniformity_is_edgeless(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "complete", "--n", "2", "--r", "3")
        assert (code, out) == (0, "n=2 r=3\n")

    def test_suspension_from_file(self, capsys, tmp_path):
        base = tmp_path / "base.hg"
        base.write_text(format_hypergraph(expanded_triangle(1)))
        code, out, _ = run(
            capsys, "construct", "--family", "suspension", "--input", str(base), "--r", "3"
        )
        assert code == 0
        assert parse_hypergraph(out) == suspension(expanded_triangle(1), 3)

    @pytest.mark.parametrize("part_flags", [("--part1", "0,1"), ("--part1-size", "2")])
    def test_odd_bipartite_given_part(self, capsys, part_flags):
        code, out, _ = run(
            capsys, "construct", "--family", "odd-bipartite", "--n", "6", "--k", "2", *part_flags
        )
        assert code == 0
        assert parse_hypergraph(out) == odd_bipartite(Partition(6, 0b11), 4)

    @pytest.mark.parametrize(
        "part_flags, message",
        [
            (("--part1", "0,1", "--best"), "argument --best: not allowed with argument --part1"),
            (("--part1", "0,1", "--part1-size", "3"),
             "argument --part1-size: not allowed with argument --part1"),
            (("--part1-size", "3", "--best"), "argument --best: not allowed with argument --part1-size"),
        ],
        ids=["part1-best", "part1-part1-size", "part1-size-best"],
    )
    def test_odd_bipartite_part_flags_are_one_of(self, capsys, part_flags, message):
        code, out, err = run(
            capsys, "construct", "--family", "odd-bipartite", "--n", "6", "--k", "1", *part_flags
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("part1", ["a", "1,,2", "0,x", ""])
    def test_odd_bipartite_bad_part1_list_names_the_flag(self, capsys, part1):
        code, out, err = run(
            capsys, "construct", "--family", "odd-bipartite", "--n", "5", "--k", "1", "--part1", part1
        )
        assert (code, out) == (1, "")
        assert err == f"error: argument --part1: not a comma-separated list of integers: {part1!r}\n"

    def test_odd_bipartite_needs_a_part(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "odd-bipartite", "--n", "6", "--k", "2")
        assert code == 1 and out == ""
        assert "needs --best, --part1, or --part1-size" in err

    def test_suspension_needs_input(self, capsys):
        code, out, err = run(capsys, "construct", "--family", "suspension", "--r", "3")
        assert code == 1 and out == ""
        assert "--input" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.hg"
        code, out, _ = run(
            capsys, "construct", "--family", "matching", "--r", "3", "--m", "2",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert len(parse_hypergraph(target.read_text()).edges) == 2


# SHA-256 of `classify --r R` stdout for R = 2..8, per output format: a change
# to any class's profile, degrees or width, or to their order, shows here.
CLASSIFY_SHA256 = {
    "table": (
        "5d07f92f8d63821270f6f4b6cd3572ff279530274af08e2cf59d0aeb865af855",
        "72cfe60d62134b61235911b35dae4c67ca53f51c9a682beb8219bcbf107d326f",
        "4abcb9be5cc0a897bc4c3f0024d6d701d943981026e2942d5e78dbe3ef017459",
        "54befeb4611cffa95a561012e0d9c020867ffbbe11c6cfd48d30f7071b62e597",
        "6503d8b1d5c81e0e1fc4adc4f70d20935c6c19bd6ef6fb7635fbd769a916047a",
        "5711ded7e96f39b669d8535fc80fc2e15570c9a8a5afad676c8696c936684098",
        "9a95807c7fe802a2f57572c05771515395a4ebc4f54a52e595a9476c298b9b19",
    ),
    "csv": (
        "fc1f8be036ed67e5675609daec8896f0e948d4e9a5f8c0cb3cbe8f17756a30c6",
        "e693824042610150c656deba1ddfdc4b940cb625f6c81f1fb12ccefaf3f60b0b",
        "17c7b2bda9359d020cdaa997b134f4ef13b02853579b5b664c49dc37e2f7866b",
        "0e578864e7242af29a0f8acb57bf2658b0b521a5d18605323302302479cea8da",
        "1ccb31cae8783fd8eed183e12e8a7b9cf43f7af1f88a7e90fffda690b633cb7d",
        "e67c97301db2e03d79f55e4d28ca661780b3ef80f324f276da34ec8742d3f6d4",
        "761f616277a91dc99bd74962f4c9826726cd205e2342761e504c680c987f32c9",
    ),
    "json": (
        "d1dc98474829fcdb715c5a23baf7dbdc867421c1ef498e4c09424b1fe1d457b6",
        "f584bcd63220e810ca31a8ac1af27b4016ae1a503f17e2d0c66cbc976491b407",
        "d1d0ad1c7c442349016a847d746f611afb66ebd6be20215e12bc2a6079a013bc",
        "36d50fd1aee92a1bcfc4a7bb172735ac68a96870e11b55fdbab96e206639b543",
        "91f6a21781e04343d4bbd3b6e513f956443e166cb2fe8b453a501cbd9bc41219",
        "5830cfa48e825da0c79900f81b8535e96bb25694efb81c81994cfef41cc0dd36",
        "4c6d2cbe90cb4b201b26c9af18292b95a62de823e9c8480aa16441d194b2fc38",
    ),
}


class TestClassify:
    @pytest.mark.parametrize("fmt", sorted(CLASSIFY_SHA256))
    def test_stdout_is_byte_identical_to_the_recorded_catalog(self, capsys, fmt):
        for r, digest in zip(range(2, 9), CLASSIFY_SHA256[fmt]):
            code, out, _ = run(capsys, "--format", fmt, "classify", "--r", str(r))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (fmt, r)

    def test_r5_table(self, capsys):
        code, out, _ = run(capsys, "classify", "--r", "5")
        assert code == 0
        assert "2 with min degree >= 2" in out
        assert out.count("suspended-expanded-triangle") == 2

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "classify", "--r", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("profile,")
        assert len(lines) == 6  # header + 5 classes

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "classify", "--r", "4")
        payload = json.loads(out)
        assert payload["min_degree_two_count"] == 2


class TestSolveAndDensity:
    def test_solve_triangle_six(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "triangle", "--n", "6",
        )
        assert code == 0
        assert "optimum=9" in out
        assert "asymptotic reference, not asserted" in out

    def test_solve_json_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "json", "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "k4minus", "--n", "5",
        )
        assert code == 0
        payload = json.loads(out)
        direct = solve_exact(forbidden_triples(suspension(expanded_triangle(1), 3), 5, "k4minus"))
        assert payload == direct.to_json_dict()

    def test_solve_family_file(self, capsys, tmp_path):
        fam = tmp_path / "pattern.hg"
        fam.write_text(format_hypergraph(expanded_triangle(1)))
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", str(fam), "--n", "5",
        )
        assert code == 0 and "optimum=6" in out

    @pytest.mark.parametrize("seed", [[], ["--seed-construction"]])
    def test_solve_pattern_of_uniformity_44(self, capsys, tmp_path, seed):
        # Three 44-sets on 46 vertices: the wide widths that the reference
        # lines and the seed check look up need more than 64 vertices.
        fam = tmp_path / "wide.hg"
        full = (1 << 46) - 1
        fam.write_text(format_hypergraph(from_masks(46, 44, [full & ~0b11, full & ~0b1100, full & ~0b101])))
        code, out, err = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", str(fam), "--n", "45", *seed,
        )
        assert (code, err) == (0, "") and "optimum=45 status=proved-optimal" in out

    @pytest.mark.parametrize("i,n,bound", [("1", "6", "1/5"), ("2", "7", "152/499")])
    def test_flag_algebra_reference_line(self, capsys, tmp_path, i, n, bound):
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "suspended-expanded-triangle", "--i", i, "--r", "5", "--n", n,
        )
        assert code == 0
        assert f"reference: {bound} flag-algebra bound (asymptotic reference, not asserted)" in out

    def test_budget_exhaustion_exit_code(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "triangle", "--n", "8", "--budget-nodes", "3",
        )
        assert code == 2
        assert "lower-bound-only" in out

    def test_density_table(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "density", "--family", "triangle", "--n-from", "3", "--n-to", "6",
        )
        assert code == 0
        assert "3/5" in out  # density at n = 5 and 6

    def test_density_budget_exhaustion_exit_code(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "density", "--family", "triangle", "--n-from", "8", "--n-to", "9",
            "--budget-nodes", "5",
        )
        assert code == 2
        assert "lower-bound-only" in out

    def test_density_csv(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--format", "csv", "--cache", str(tmp_path / "c.jsonl"),
            "density", "--family", "triangle", "--n-from", "3", "--n-to", "5",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "n,optimum,density,density_float,status"
        assert len(lines) == 4

    def test_density_json_says_how_each_proof_closed(self, capsys, tmp_path):
        # n = 6 and 7 stop at the cap from the n - 1 proved just before.
        code, out, _ = run(
            capsys, "--format", "json", "--cache", str(tmp_path / "c.jsonl"),
            "density", "--family", "triangle", "--n-from", "5", "--n-to", "7",
        )
        records = json.loads(out)["records"]
        assert code == 0
        assert [(r["optimum"], r.get("closed_by")) for r in records] == [(6, None), (9, "cap"), (12, "cap")]

    def test_density_range_starting_below_uniformity(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--format", "csv", "--cache", str(tmp_path / "c.jsonl"),
            "density", "--family", "triangle", "--n-from", "1", "--n-to", "4",
        )
        assert code == 0 and err == ""
        assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [
            ["1", "0", "0/1"], ["2", "1", "1/1"], ["3", "2", "2/3"], ["4", "4", "2/3"],
        ]

    def test_density_reversed_range_rejected(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "density", "--family", "triangle", "--n-from", "6", "--n-to", "3",
        )
        assert code == 1 and out == ""
        assert "--n-from" in err and "--n-to" in err

    def test_inconsistent_cache_line_rejected(self, capsys, tmp_path):
        cache = tmp_path / "c.jsonl"
        run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        cache.write_text(cache.read_text().replace('"optimum":9', '"optimum":15'))
        code, out, err = run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        assert code == 1 and out == ""
        assert err.startswith("error: corrupt cache line 1")

    @pytest.mark.parametrize(
        "bad",
        [
            "[1, 2]",
            '"text"',
            '{"x": 1}',
            # the n=6 triangle optimum K_{3,3}, with one edge listed twice
            # and the optimum raised to the list length, or with a float n
            pytest.param(json.dumps(dict(K33_RECORD, optimum=10,
                                         witness=K33_RECORD["witness"] + [[0, 3]])), id="repeated-edge"),
            pytest.param(json.dumps(dict(K33_RECORD, n=6.0)), id="float-n"),
            *(pytest.param(json.dumps(obj), id=name) for name, obj in NON_RECORDS.items()),
        ],
    )
    def test_non_record_cache_line_rejected(self, capsys, tmp_path, bad):
        cache = tmp_path / "c.jsonl"
        cache.write_text(bad + "\n")
        code, out, err = run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        assert code == 1 and out == ""
        assert err == f"error: corrupt cache line 1 in {cache}\n"

    def test_cache_line_golden(self, capsys, tmp_path):
        # The line solve writes, millis masked, is fixed byte for byte, and
        # decoding and re-encoding it gives the same bytes.
        golden = (
            '{"family_profile":[0,0,0,1,1,1,0],"family_name":"triangle","n":6,"r":2,'
            '"optimum":9,"status":"proved-optimal","witness":[[0,1],[0,2],[0,3],[1,4],'
            '[2,4],[3,4],[1,5],[2,5],[3,5]],"nodes":19,"millis":0,"version":"1"}'
        )
        cache = tmp_path / "c.jsonl"
        run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        line = cache.read_text()
        assert re.sub(r'"millis":\d+', '"millis":0', line) == golden + "\n"
        record = turankit.SolveRecord.from_json_dict(json.loads(golden))
        assert json.dumps(record.to_json_dict(), separators=(",", ":")) == golden

    def test_cache_line_with_an_extra_key_served(self, capsys, tmp_path):
        # A line from a later version, with a key this one does not know.
        cache = tmp_path / "c.jsonl"
        cache.write_text(json.dumps(dict(K33_RECORD, stats={})) + "\n")
        code, out, err = run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        assert code == 0 and err == ""
        assert "optimum=9" in out and "nodes=1 " in out
        assert len(cache.read_text().splitlines()) == 1  # a hit appends nothing

    def test_record_left_without_its_newline_kept(self, capsys, tmp_path):
        # The next append ends the unterminated line, so the n=5 record is
        # still served after other records are appended.
        cache = tmp_path / "c.jsonl"
        solve = ("--cache", str(cache), "solve", "--family", "triangle", "--n")
        assert run(capsys, *solve, "5")[0] == 0
        cache.write_bytes(cache.read_bytes().rstrip(b"\n"))
        for n in ("6", "4"):
            assert run(capsys, *solve, n)[0] == 0
        code, out, _ = run(capsys, *solve, "5")
        assert code == 0 and "optimum=6" in out
        assert len(cache.read_text().splitlines()) == 3

    def test_cached_witness_containing_the_pattern_rejected(self, capsys, tmp_path):
        # One edge added to the cached witness closes a triangle; the optimum
        # is raised to match, so only the hit check can catch it.
        cache = tmp_path / "c.jsonl"
        run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        obj = json.loads(cache.read_text())
        u, v = next(
            (u, v) for u in range(6) for v in range(u + 1, 6) if [u, v] not in obj["witness"]
        )
        obj["witness"].append([u, v])
        obj["optimum"] += 1
        cache.write_text(json.dumps(obj) + "\n")
        for argv in (["solve", "--n", "6"], ["density", "--n-from", "5", "--n-to", "6"]):
            code, out, err = run(capsys, "--cache", str(cache), argv[0], "--family", "triangle", *argv[1:])
            assert code == 1 and out == ""
            assert err.startswith("error: cached witness for n=6 contains the pattern in " + str(cache))

    def test_cached_optimum_too_low_fails_the_density_audit(self, capsys, tmp_path):
        # The 5-cycle is triangle-free, so the hit check passes, but ex(5) = 6:
        # the n=5 row's density 1/2 is below the n=6 row's 3/5.
        cache = tmp_path / "c.jsonl"
        cycle = [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]
        cache.write_text(json.dumps(dict(K33_RECORD, n=5, optimum=5, witness=cycle)) + "\n")
        code, out, err = run(
            capsys, "--cache", str(cache), "density", "--family", "triangle", "--n-from", "5", "--n-to", "6"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: density increased from n=5 (1/2) to n=6 (3/5): "
            "a cached optimum may be too low, or the solver may be wrong\n"
        )

    def test_empty_cache_flag_turns_the_cache_off(self, capsys, tmp_path, monkeypatch):
        # ./turan-cache.jsonl, the default, holds a corrupt line: --cache ''
        # neither reads nor writes it.
        monkeypatch.chdir(tmp_path)
        default = tmp_path / "turan-cache.jsonl"
        default.write_bytes(b"not json\n")
        argv = ["solve", "--family", "triangle", "--n", "5"]
        code, out, err = run(capsys, "--cache", "", *argv)
        assert (code, err) == (0, "") and "optimum=6" in out
        assert default.read_bytes() == b"not json\n"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "corrupt cache line 1" in err

    def test_cache_reused_across_runs(self, capsys, tmp_path):
        cache = tmp_path / "c.jsonl"
        run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        assert len(cache.read_text().splitlines()) == 1
        code, out, _ = run(capsys, "--cache", str(cache), "solve", "--family", "triangle", "--n", "6")
        assert code == 0 and "optimum=9" in out
        assert len(cache.read_text().splitlines()) == 1

    def test_seed_construction_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "expanded-triangle", "--k", "2", "--n", "6",
            "--seed-construction",
        )
        assert code == 0 and "optimum=10" in out

    def test_seed_construction_builds_no_seed_on_a_hit(self, capsys, tmp_path, monkeypatch):
        argv = ["--cache", str(tmp_path / "c.jsonl"),
                "solve", "--family", "expanded-triangle", "--k", "2", "--n", "7", "--seed-construction"]
        first = run(capsys, *argv)
        assert first[0] == 0

        def max_odd_bipartite(*args):
            raise AssertionError("a seed built for a cache hit")

        monkeypatch.setattr(cli, "max_odd_bipartite", max_odd_bipartite)
        assert run(capsys, *argv) == first

    def test_seeded_run_over_the_limit_reports_the_unseeded_error(self, capsys, monkeypatch):
        # Seeds built for every n before the run's checks would stop the
        # seeded run at n = 46's 1,035 r-sets, not at n = 20's 1,140 conflicts.
        monkeypatch.setattr("turankit.hypergraph.MAX_BUILD", 1000)
        argv = ["--cache", "", "density", "--family", "triangle", "--n-from", "3", "--n-to", "60"]
        unseeded = run(capsys, *argv)
        assert unseeded == (1, "", "error: 1,140 conflicts exceed the build limit 1,000\n")
        assert run(capsys, *argv, "--seed-construction") == unseeded

    @pytest.mark.parametrize("r", ["2", "3"])
    def test_seed_construction_with_two_edge_pattern_rejected(self, capsys, tmp_path, r):
        code, out, err = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "matching", "--r", r, "--m", "2", "--n", "5", "--seed-construction",
        )
        assert code == 1 and out == ""
        assert err == "error: need exactly 3 edges, got 2\n"

    def test_env_budget_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TURANKIT_BUDGET_NODES", "3")
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "triangle", "--n", "8",
        )
        assert code == 2 and "lower-bound-only" in out
        monkeypatch.setenv("TURANKIT_BUDGET_NODES", "1000000")
        code, out, _ = run(
            capsys, "--cache", str(tmp_path / "c2.jsonl"),
            "solve", "--family", "triangle", "--n", "8",
        )
        assert code == 0 and "optimum=16" in out

    @pytest.mark.parametrize("via_env", [False, True])
    @pytest.mark.parametrize("flag, env, value", [
        ("--budget-nodes", "TURANKIT_BUDGET_NODES", "0"),
        ("--budget-nodes", "TURANKIT_BUDGET_NODES", "-5"),
        ("--budget-secs", "TURANKIT_BUDGET_SECS", "nan"),
        ("--budget-secs", "TURANKIT_BUDGET_SECS", "-1"),
    ])
    def test_bad_budget_rejected(self, capsys, tmp_path, monkeypatch, flag, env, value, via_env):
        # The record is cached first: a bad budget is refused even on a hit.
        argv = ["--cache", str(tmp_path / "c.jsonl"), "solve", "--family", "triangle", "--n", "5"]
        assert run(capsys, *argv)[0] == 0
        if via_env:
            monkeypatch.setenv(env, value)
        else:
            argv += [flag, value]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "budget" in err and value in err

    @pytest.mark.parametrize("env, value", [
        ("TURANKIT_BUDGET_NODES", "abc"),
        ("TURANKIT_BUDGET_SECS", "fast"),
    ])
    def test_non_numeric_env_budget_named(self, capsys, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        code, out, err = run(capsys, "solve", "--family", "triangle", "--n", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and env in err and value in err

    def test_quiet_suppresses_detail(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--quiet", "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "triangle", "--n", "5",
        )
        assert code == 0
        assert "optimum=6" in out
        assert "witness" not in out and "reference" not in out


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "triangle", "--n", "4"],
    ["export", "--family", "triangle", "--n", "4", "--format", "cnf"],
])
def test_a_build_one_copy_short_raises(capsys, monkeypatch, argv):
    # The conflict build certifies its count for every command that reads
    # the system: an incomplete encoding is a fault, not a usage error.
    lose_first_copy(monkeypatch)
    with pytest.raises(AssertionError, match="^3 conflicts built, 4 copies counted$"):
        main(["--cache", "", *argv])
    assert capsys.readouterr().out == ""


class TestExport:
    def test_cnf(self, capsys):
        code, out, _ = run(
            capsys, "export", "--family", "triangle", "--n", "4", "--format", "cnf"
        )
        assert code == 0
        assert out == export_cnf(forbidden_triples(expanded_triangle(1), 4, "triangle"))
        assert "p cnf 6 4" in out

    def test_cnf_with_threshold(self, capsys):
        code, out, _ = run(
            capsys, "export", "--family", "triangle", "--n", "4",
            "--format", "cnf", "--at-least", "3",
        )
        assert code == 0
        assert "at least 3 selected" in out

    def test_negative_threshold_rejected(self, capsys):
        code, out, err = run(
            capsys, "export", "--family", "triangle", "--n", "4",
            "--format", "cnf", "--at-least", "-3",
        )
        assert code == 1 and out == ""
        assert "-3" in err

    def test_threshold_with_ilp_rejected(self, capsys):
        code, out, err = run(
            capsys, "export", "--family", "triangle", "--n", "4",
            "--format", "ilp", "--at-least", "2",
        )
        assert code == 1 and out == ""
        assert "--at-least" in err

    @pytest.mark.parametrize("at_least", ["-1", "16"])
    def test_at_least_out_of_range_refused_before_the_conflict_build(self, capsys, monkeypatch, at_least):
        def no_build(*args, **kwargs):
            raise AssertionError("conflicts built before the --at-least check")

        monkeypatch.setattr(cli, "forbidden_triples", no_build)
        # C(6, 2) = 15 ground edges
        code, out, err = run(
            capsys, "export", "--family", "triangle", "--n", "6",
            "--format", "cnf", "--at-least", at_least,
        )
        assert (code, out, err) == (1, "", f"error: cannot require {at_least} of 15 edges\n")

    def test_ilp_to_file(self, capsys, tmp_path):
        target = tmp_path / "model.lp"
        code, _, _ = run(
            capsys, "export", "--family", "k4minus", "--n", "5", "--format", "ilp",
            "--output", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("\\ conflict-free edge selection")
        assert text.count("<= 2") == 20


# stdout of `stability` per --format on a graph whose bad and missing counts differ
BAD_NOT_MISSING = {
    "table": "best partition part1=[0, 1, 2, 3] sizes=(4, 4)\nbad=0 missing=2 total=2\n",
    "csv": 'part1,bad,missing,total\r\n"0,1,2,3",0,2,2\r\n',
    "json": '{"part1": [0, 1, 2, 3], "sizes": [4, 4], "bad": 0, "missing": 2, "total": 2}\n',
}
# the same for `stability --scan-links`; json as its (vertex, part1, bad, missing, total) rows
LINKS_BAD_NOT_MISSING = {
    "table": "vertex part1                  bad  missing  total\n"
             "     0 0,3,4,5                  1        2      3\n"
             "     1 0                        1        1      2\n"
             "     2 0                        0        1      1\n"
             "     3 0,1,2,3,4,5              3        0      3\n"
             "     4 0,1,2,3,4,5              2        0      2\n"
             "     5 0,1,2,3,4,5              3        0      3\n"
             "max pairwise distance: 3\n"
             "mean pairwise distance: 1.2000\n",
    "csv": 'vertex,part1,bad,missing,total\r\n0,"0,3,4,5",1,2,3\r\n1,0,1,1,2\r\n2,0,0,1,1\r\n'
           '3,"0,1,2,3,4,5",3,0,3\r\n4,"0,1,2,3,4,5",2,0,2\r\n5,"0,1,2,3,4,5",3,0,3\r\n',
    "json": [(0, "0,3,4,5", 1, 2, 3), (1, "0", 1, 1, 2), (2, "0", 0, 1, 1),
             (3, "0,1,2,3,4,5", 3, 0, 3), (4, "0,1,2,3,4,5", 2, 0, 2), (5, "0,1,2,3,4,5", 3, 0, 3)],
}


class TestReduceHomStability:
    def test_reduce_trace(self, capsys, tmp_path):
        source = tmp_path / "m.hg"
        source.write_text("n=4 r=2\n0 1\n2 3\n# two disjoint pairs plus nothing\n")
        code, out, _ = run(capsys, "reduce", "--input", str(source))
        assert code == 1  # needs exactly three edges

        source.write_text("n=6 r=2\n0 1\n2 3\n4 5\n")
        code, out, _ = run(capsys, "reduce", "--input", str(source))
        assert code == 0
        assert "status: " in out and "fold" in out

    def test_reduce_to_degree3(self, capsys, tmp_path):
        source = tmp_path / "m.hg"
        source.write_text("n=9 r=3\n0 1 2\n3 4 5\n6 7 8\n")
        code, out, _ = run(capsys, "reduce", "--input", str(source), "--to-degree3")
        assert code == 0
        assert "verified homomorphism: True" in out

    def test_hom_found_and_none(self, capsys, tmp_path):
        a = tmp_path / "a.hg"
        b = tmp_path / "b.hg"
        a.write_text("n=3 r=2\n0 1\n1 2\n0 2\n")
        b.write_text("n=2 r=2\n0 1\n")
        code, out, _ = run(capsys, "hom", "--source", str(a), "--target", str(b))
        assert code == 0 and out.strip() == "none"
        code, out, _ = run(capsys, "hom", "--source", str(a), "--target", str(a))
        assert code == 0 and "->" in out

    def test_stability_report(self, capsys, tmp_path):
        from turankit import Partition, odd_bipartite

        h = odd_bipartite(Partition.from_part1(6, [0]), 4)
        source = tmp_path / "b.hg"
        source.write_text(format_hypergraph(h))
        code, out, _ = run(capsys, "stability", "--input", str(source))
        assert code == 0
        assert "bad=0 missing=0 total=0" in out

    def test_stability_zero_threshold_warns_every_call(self, capsys, tmp_path):
        from turankit import Partition, odd_bipartite

        h = odd_bipartite(Partition.from_part1(6, [0]), 4)
        source = tmp_path / "b.hg"
        source.write_text(format_hypergraph(h))
        for _ in range(2):
            code, out, err = run(capsys, "stability", "--input", str(source), "--threshold", "0")
            assert code == 0
            assert "heavy vertices (threshold 0): [0, 1, 2, 3, 4, 5]" in out
            assert err == "warning: threshold 0 selects every vertex\n"

    def test_stability_negative_threshold_refused_before_the_scan(self, capsys, tmp_path, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("partitions scanned before the threshold check")

        monkeypatch.setattr(cli, "best_partition", no_scan)
        source = tmp_path / "b.hg"
        source.write_text(format_hypergraph(odd_bipartite(Partition.from_part1(6, [0]), 4)))
        code, out, err = run(capsys, "stability", "--input", str(source), "--threshold", "-1")
        assert (code, out, err) == (1, "", "error: threshold must be non-negative\n")

    @pytest.mark.parametrize("fmt", list(BAD_NOT_MISSING))
    def test_stability_bad_and_missing_differ(self, capsys, tmp_path, fmt):
        # The complete odd-bipartite 4-graph over part1 {0, 1, 2, 3} less its
        # two smallest edges: no bad edge and two missing ones.
        full = odd_bipartite(Partition(8, 0b1111), 4)
        source = tmp_path / "b.hg"
        source.write_text(format_hypergraph(from_masks(8, 4, full.edges[2:])))
        code, out, _ = run(capsys, "--format", fmt, "stability", "--input", str(source))
        assert (code, out) == (0, BAD_NOT_MISSING[fmt])

    @pytest.mark.parametrize("fmt", list(LINKS_BAD_NOT_MISSING))
    def test_stability_scan_links_bad_and_missing_differ(self, capsys, tmp_path, fmt):
        # Edges {0, a, b} for a in {1, 2} and b in {3, 4, 5}, {0, 1, 2} and
        # {1, 3, 5}: the link rows' (bad, missing) are (1, 2), (1, 1), (0, 1),
        # (3, 0), (2, 0) and (3, 0).
        edges = [(0, a, b) for a in (1, 2) for b in (3, 4, 5)] + [(0, 1, 2), (1, 3, 5)]
        source = tmp_path / "s.hg"
        source.write_text(format_hypergraph(make_hypergraph(6, 3, edges)))
        code, out, _ = run(capsys, "--format", fmt, "stability", "--input", str(source), "--scan-links")
        assert code == 0
        if fmt == "json":
            rows = json.loads(out)["rows"]
            out = [(row["vertex"], row["part1"], row["bad"], row["missing"], row["total"]) for row in rows]
        assert out == LINKS_BAD_NOT_MISSING[fmt]

    @pytest.mark.parametrize("threshold", ["0", "2"])
    def test_stability_threshold_with_scan_links_rejected(self, capsys, tmp_path, threshold):
        from turankit import Partition, odd_bipartite

        hat = suspension(odd_bipartite(Partition.from_part1(5, [0]), 2), 3)
        source = tmp_path / "s.hg"
        source.write_text(format_hypergraph(hat))
        code, out, err = run(
            capsys, "stability", "--input", str(source), "--threshold", threshold, "--scan-links"
        )
        assert code == 1 and out == ""
        assert err == "error: --threshold applies without --scan-links only\n"

    def test_stability_balanced_flag(self, capsys, tmp_path):
        from turankit import Partition, odd_bipartite

        h = odd_bipartite(Partition.from_part1(6, [0, 1, 2]), 2)
        source = tmp_path / "b.hg"
        source.write_text(format_hypergraph(h))
        code, out, _ = run(capsys, "stability", "--input", str(source), "--balanced")
        assert code == 0
        assert "sizes=(3, 3)" in out and "total=0" in out

    def test_stability_scan_links_json(self, capsys, tmp_path):
        from turankit import Partition, odd_bipartite

        hat = suspension(odd_bipartite(Partition.from_part1(5, [0]), 2), 3)
        source = tmp_path / "s.hg"
        source.write_text(format_hypergraph(hat))
        code, out, _ = run(
            capsys, "--format", "json", "stability", "--input", str(source), "--scan-links"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == hat.n
        assert len(payload["distances"]) == hat.n


SOLVE_KEYS = {"family_profile", "family_name", "n", "r", "optimum", "status",
              "witness", "nodes", "millis", "version"}
# subcommands without CSV rows: argv (with {src}/{tgt} placeholders), JSON keys
TABLE_ONLY = [
    (["reduce", "--input", "{src}"], {"mode", "status", "steps", "terminal_edges", "map"}),
    (["reduce", "--input", "{src}", "--to-degree3"], {"mode", "target_edges", "map", "verified"}),
    (["hom", "--source", "{src}", "--target", "{tgt}"], {"map"}),
    (["solve", "--family", "triangle", "--n", "5"], SOLVE_KEYS),
]


class TestRenderer:
    @pytest.mark.parametrize("argv,keys", TABLE_ONLY)
    def test_csv_prints_table_and_json_parses(self, capsys, tmp_path, argv, keys):
        src = tmp_path / "src.hg"
        src.write_text("n=9 r=3\n0 1 2\n3 4 5\n6 7 8\n")
        tgt = tmp_path / "tgt.hg"
        tgt.write_text(format_hypergraph(suspension(expanded_triangle(1), 3)))
        argv = [a.format(src=src, tgt=tgt) for a in argv]
        # one cache: the solve record (and its millis) is reused by the later runs
        cache = ["--cache", str(tmp_path / "c.jsonl")]
        code, table, _ = run(capsys, "--format", "table", *cache, *argv)
        assert code == 0 and table
        code, out, _ = run(capsys, "--format", "csv", *cache, *argv)
        assert code == 0 and out == table
        code, out, _ = run(capsys, "--format", "json", *cache, *argv)
        assert code == 0 and set(json.loads(out)) == keys

    @pytest.mark.parametrize("extra,header", [
        ([], "part1,bad,missing,total"),
        (["--scan-links"], "vertex,part1,bad,missing,total"),
    ])
    def test_stability_csv_header(self, capsys, tmp_path, extra, header):
        from turankit import Partition, odd_bipartite

        hat = suspension(odd_bipartite(Partition.from_part1(5, [0]), 2), 3)
        source = tmp_path / "s.hg"
        source.write_text(format_hypergraph(hat if extra else link(hat, 5)))
        code, out, _ = run(capsys, "--format", "csv", "stability", "--input", str(source), *extra)
        assert code == 0
        assert out.splitlines()[0] == header


# (family, flags supplied, flags left out) for every parametrised named family
MISSING_FAMILY_FLAGS = [
    ("expanded-triangle", [], ["--k"]),
    ("suspended-expanded-triangle", ["--i", "1"], ["--r"]),
    ("suspended-expanded-triangle", ["--r", "4"], ["--i"]),
    ("suspended-expanded-triangle", [], ["--i", "--r"]),
    ("matching", ["--r", "2"], ["--m"]),
    ("matching", ["--m", "3"], ["--r"]),
    ("matching", [], ["--r", "--m"]),
]
FAMILY_SUBCOMMANDS = {
    "solve": ["--n", "5"],
    "density": ["--n-from", "4", "--n-to", "5"],
    "export": ["--n", "5", "--format", "cnf"],
}


class TestErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "--family", "odd-bipartite", "--n", "100000000", "--k", "2", "--best"],
             "vertex count 100000000 outside 0..64"),
            (["construct", "--family", "odd-bipartite", "--n", "6", "--k", "500000000", "--best"],
             "uniformity 1000000000 outside 1..64"),
            (["construct", "--family", "odd-bipartite", "--n", "6", "--k", "1", "--part1", "0,-1"],
             "vertex -1 outside the integers 0..5"),
            (["construct", "--family", "odd-bipartite", "--n", "6", "--k", "1", "--part1-size", "-1"],
             "vertex count -1 outside 0..64"),
            (["solve", "--family", "expanded-triangle", "--k", "2", "--n", "100000000",
              "--seed-construction"], "vertex count 100000000 outside 0..64"),
            (["density", "--family", "triangle", "--n-from", "60", "--n-to", "65",
              "--budget-secs", "0.01"], "vertex count 65 outside 0..64"),
            (["stability", "--input", "huge-r.hg"], "uniformity 1000000000 outside 1..64"),
            # n = 16 passes the limit (3,203,200 conflicts) but would take
            # GBs to set up; n = 18 does not, so nothing is solved.
            (["density", "--family", "expanded-triangle", "--k", "3", "--n-from", "16", "--n-to", "18",
              "--budget-nodes", "1"], "13,613,600 conflicts exceed the build limit 10,000,000"),
            # Seeds built for every n before the run's checks take about 10 s here.
            (["density", "--family", "expanded-triangle", "--k", "4", "--n-from", "20", "--n-to", "26",
              "--seed-construction"], "727,476,750 conflicts exceed the build limit 10,000,000"),
            (["stability", "--input", "n25.hg"], "16,777,216 partitions exceed the build limit 10,000,000"),
            # Over the conflict limit too (13,613,600 at n = 18), but --at-least is checked first.
            (["export", "--family", "expanded-triangle", "--k", "3", "--n", "18", "--format", "cnf",
              "--at-least", "-1"], "cannot require -1 of 18564 edges"),
        ],
        ids=["odd-bipartite-best-n", "odd-bipartite-best-k", "part1-negative",
             "part1-size-negative", "solve-seeded-n", "density-past-64", "stability-header-r",
             "density-conflicts", "density-seeded-conflicts", "stability-partitions",
             "export-at-least-over-conflicts"],
    )
    def test_runaway_sizes_exit_at_once(self, capsys, tmp_path, monkeypatch, argv, message):
        # Each is refused before anything of its size is built, scanned or
        # solved: no output and no cache file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge-r.hg").write_text("n=3 r=1000000000\n")
        (tmp_path / "n25.hg").write_text("n=25 r=2\n0 1\n")
        start = time.monotonic()
        code, out, err = run(capsys, "--cache", "c.jsonl", *argv)
        assert time.monotonic() - start < 1
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("command", sorted(FAMILY_SUBCOMMANDS))
    @pytest.mark.parametrize("family,supplied,missing", MISSING_FAMILY_FLAGS)
    def test_missing_family_params(self, capsys, tmp_path, command, family, supplied, missing):
        code, out, err = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            command, "--family", family, *supplied, *FAMILY_SUBCOMMANDS[command],
        )
        assert code == 1 and out == ""
        assert family in err
        for flag in missing:
            assert flag in err
        for flag in supplied[::2]:
            assert flag not in err

    def test_closed_stdout_pipe_exits_one_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(turankit.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "turankit.cli", "classify", "--r", "8"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    @pytest.mark.parametrize(
        "exc, message", [(KeyboardInterrupt, "interrupted"), (MemoryError, "out of memory")]
    )
    def test_interrupt_or_memory_error_outside_a_search(self, capsys, monkeypatch, exc, message):
        def density_sequence(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "density_sequence", density_sequence)
        assert run(capsys, "--cache", "", "solve", "--family", "triangle", "--n", "5") == (
            1, "", f"error: {message}\n")

    def test_unknown_family(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "--cache", str(tmp_path / "c.jsonl"),
            "solve", "--family", "no-such-family", "--n", "5",
        )
        assert code == 1
        assert "unknown family" in err

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1

    def test_validation_error_exit_one(self, capsys):
        code, _, err = run(capsys, "classify", "--r", "12")
        assert code == 1
        assert "error" in err

    def test_missing_construct_params(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "expanded-triangle")
        assert code == 1 and "--k" in err
        code, _, err = run(capsys, "construct", "--family", "complete", "--n", "5")
        assert code == 1 and "--r" in err


# Each subcommand's flags as its --help lists them, and a quick call of it
# (the .hg files are written by test_a_call_builds_only_its_own_parser).
SUBCOMMANDS = {
    "construct": (["--family", "--k", "--n", "--r", "--m", "--input", "--part1", "--part1-size",
                   "--best", "--output"],
                  ["construct", "--family", "expanded-triangle", "--k", "1"]),
    "classify": (["--r"], ["classify", "--r", "2"]),
    "reduce": (["--input", "--to-degree3"], ["reduce", "--input", "m.hg"]),
    "hom": (["--source", "--target"], ["hom", "--source", "m.hg", "--target", "m.hg"]),
    "solve": (["--family", "--k", "--i", "--r", "--m", "--budget-nodes", "--budget-secs",
               "--seed-construction", "--n"],
              ["--cache", "", "solve", "--family", "triangle", "--n", "4"]),
    "density": (["--family", "--k", "--i", "--r", "--m", "--budget-nodes", "--budget-secs",
                 "--seed-construction", "--n-from", "--n-to"],
                ["--cache", "", "density", "--family", "triangle", "--n-from", "3", "--n-to", "4"]),
    "export": (["--family", "--k", "--i", "--r", "--m", "--n", "--format", "--at-least", "--output"],
               ["export", "--family", "triangle", "--n", "4", "--format", "cnf"]),
    "stability": (["--input", "--balanced", "--threshold", "--scan-links"],
                  ["stability", "--input", "k4.hg"]),
}


class TestInterrupt:
    """Ctrl-C in a search prints the verified incumbent as a lower bound and
    exits 2; the record is not cached, and a density run solves no later n."""

    def test_solve(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        interrupt_at_first_poll(monkeypatch)
        code, out, err = run(capsys, "--cache", "c.jsonl", "solve", "--family", "triangle", "--n", "11")
        assert (code, err) == (2, "")
        assert re.fullmatch(r"family=triangle n=11 r=2 optimum=\d+ status=lower-bound-only", out.splitlines()[0])
        assert not (tmp_path / "c.jsonl").exists()

    def test_density(self, capsys, tmp_path, monkeypatch):
        # k4minus takes 71 nodes at n = 6 and 3,669 at n = 7.
        monkeypatch.chdir(tmp_path)
        interrupt_at_first_poll(monkeypatch)
        code, out, err = run(
            capsys, "--cache", "c.jsonl", "--format", "csv",
            "density", "--family", "k4minus", "--n-from", "6", "--n-to", "8",
        )
        assert (code, err) == (2, "")
        assert [row.split(",")[-1] for row in out.splitlines()] == ["status", "proved-optimal", "lower-bound-only"]
        assert [json.loads(line)["n"] for line in (tmp_path / "c.jsonl").read_text().splitlines()] == [6]

    def test_sigint_to_the_process(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(turankit.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "turankit.cli", "--cache", "c.jsonl", "solve", "--family", "k4minus", "--n", "9"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            # Python maps SIGINT to KeyboardInterrupt only if it starts with the default action.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (2, "")
        lines = out.splitlines()
        assert lines[0].endswith(" status=lower-bound-only")
        witness = [list(map(int, edge.split())) for edge in lines[2].removeprefix("witness: ").split(" / ")]
        assert next(copies_of(suspension(expanded_triangle(1), 3), make_hypergraph(9, 3, witness)), None) is None
        assert not (tmp_path / "c.jsonl").exists()


class TestParser:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_a_call_builds_only_its_own_parser(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.hg").write_text("n=6 r=2\n0 1\n2 3\n4 5\n")
        (tmp_path / "k4.hg").write_text("n=4 r=2\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        code, _, err = run(capsys, *SUBCOMMANDS[command][1])
        assert (code, err) == (0, "")
        assert built == ["turankit", f"turankit {command}"]

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_lists_its_flags(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: turankit {command} ")
        listed = re.findall(r"^  (-h, --help|--[\w-]+)", out, re.MULTILINE)
        assert listed == ["-h, --help", *SUBCOMMANDS[command][0]]

    def test_top_level_help_lists_every_subcommand(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert re.findall(r"^    (\w+) +(\S.*)$", out, re.MULTILINE) == [
            ("construct", "emit a named construction in the text format"),
            ("classify", "catalog of three-edge classes for one uniformity"),
            ("reduce", "fold reduction trace for a three-edge hypergraph"),
            ("hom", "homomorphism witness between two hypergraph files"),
            ("solve", "exact optimum for a forbidden three-edge family"),
            ("density", "density sequence over a range of n"),
            ("export", "emit the conflict system as CNF or an integer program"),
            ("stability", "odd-bipartite deviation diagnostics"),
        ]

    def test_unknown_subcommand_exit_one(self, capsys):
        code, out, err = run(capsys, "bogus")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument command: invalid choice: 'bogus' (choose from ")


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI call pays for its imports. Compared against a bare
    # interpreter, so whatever site imports is not counted.
    env = dict(os.environ, PYTHONPATH=str(Path(turankit.__file__).parents[1]))
    loaded = [
        set(subprocess.run([sys.executable, "-c", f"import sys{extra}; print(*sys.modules)"],
                           capture_output=True, text=True, check=True, env=env,
                           timeout=60).stdout.split())
        for extra in ("", ", turankit.cli")
    ]
    added = loaded[1] - loaded[0]
    assert "turankit.cli" in added
    assert not added & {"dataclasses", "inspect"}
