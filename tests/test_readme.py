"""The README's examples run as written.

Every `turankit ...` line of the README's `sh` blocks goes through
`cli.main` in a scratch working directory that holds the hypergraph files
the examples name, and the `python` block prints what its comment says.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from turankit import (
    Partition,
    expanded_triangle,
    format_hypergraph,
    from_masks,
    make_hypergraph,
    odd_bipartite,
    suspension,
)
from turankit.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
CLI_LINES = [
    line.strip()
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("turankit ")
]

FIXTURES = {
    # a path of three 3-edges: max degree 2, so reduce --to-degree3 folds first
    "pattern.hg": make_hypergraph(7, 3, [[0, 1, 2], [2, 3, 4], [4, 5, 6]]),
    "a.hg": make_hypergraph(5, 3, [[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
    "b.hg": suspension(expanded_triangle(1), 3),
    # even uniformity: the odd-bipartite 4-graph on 6 vertices less one edge
    "witness.hg": from_masks(6, 4, odd_bipartite(Partition.from_part1(6, [0, 1]), 4).edges[1:]),
    # odd uniformity: a suspended odd-bipartite 2-graph
    "links.hg": suspension(odd_bipartite(Partition.from_part1(5, [0]), 2), 3),
}


def test_examples_found():
    assert len(CLI_LINES) >= 10
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, h in FIXTURES.items():
        (tmp_path / name).write_text(format_hypergraph(h))
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err


def test_library_example_prints_its_comment():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "40 proved-optimal\n"
