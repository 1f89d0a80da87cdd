"""The CLI's bytes and its dispatch shape: every README command line and a
set of bad inputs keep their exit code and output, with timings masked, and
every leaf of the parser names its own handler."""

import argparse
import ast
import hashlib
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rainbowfree import cli
from rainbowfree.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

# (command line, exit code, sha256 prefix of stdout + stderr with the
# "millis" values and "(N ms)" timings masked), run in order in one
# directory: the README's CLI block, then answers and bad inputs that
# exercise each query's load, parse and refusal order
GOLDEN_CLI = (
    ("gen R1 --n 9 --m 4 -o r1.txt --describe", 0, "a7642c2febe18aff"),
    ("gen counter4t --tparam 1 --n 20 -o c.txt", 0, "e3b0c44298fc1c14"),
    ("detect --pattern K2uK3 r1.txt", 0, "eeaefb4cadff5deb"),
    ("kconn --k 2 --colors mono r1.txt", 0, "9f354f0caa2b172c"),
    ("kconn --k 4 --colors mask=1,3 c.txt", 0, "915da5792029df3c"),
    ("gallai sample --n 9 --m 3 --seed 1 -o g.txt", 0, "e3b0c44298fc1c14"),
    ("gallai check g.txt", 0, "a9ab928b52546873"),
    ("gallai partition g.txt", 0, "9464ca57eed028ee"),
    ("gallai verify --lemma 2conn g.txt", 0, "ed773d979dafa82c"),
    ("bipartite gen-b --s 10 --t 10 --m 6 --seed 3 -o b.txt", 0, "e3b0c44298fc1c14"),
    ("bipartite classify b.txt", 0, "3f086ed8f2150ce7"),
    ("bipartite verify-cor43 --k 2 b.txt", 0, "c058af2d62eb2ca9"),
    ("paths --color 1 r1.txt", 0, "e99034da4e0404ed"),
    ("paths prop61 --a 4,4,5 g.txt", 0, "467df8ddbd1a7ad5"),
    ("cycles --color 1 g.txt", 0, "126488c4f6704a1b"),
    ("verify --filter 'R1-*' --seed 0 --json report.json", 0, "4fea0822994a59de"),
    ("crosscheck --max-n 5 --max-m 2", 0, "8c2204e44bda9887"),
    ("kconn --k 1 --colors pairs r1.txt", 0, "0b38fb382d290af7"),
    ("kconn --k 0 --colors mono r1.txt", 2, "fcf965c0210da400"),
    ("kconn --k 2 --colors bogus r1.txt", 2, "35653146b93f02eb"),
    ("kconn --k 2 --colors mask=1,x r1.txt", 2, "be785cb0904373cf"),
    ("kconn --k 2 --colors bogus missing.txt", 2, "4821a4f7327f3408"),
    ("paths --color 9 r1.txt", 2, "41b5aa81514ae7d3"),
    ("cycles --color 9 r1.txt", 2, "41b5aa81514ae7d3"),
    ("cycles --color 2 r1.txt", 0, "df48f332e4c6c8db"),
    ("gallai partition r1.txt", 2, "006dad1b5a829c8a"),
    ("gallai verify --lemma 3conn r1.txt", 2, "209367e83d246326"),
    ("gallai verify --lemma 3conn g.txt", 0, "eb1752b55d31c082"),
    ("gallai verify --lemma 2conn b.txt", 2, "6a4f0e029fb00733"),
    ("gallai check r1.txt", 1, "0b27d48da4e227e9"),
    ("bipartite classify r1.txt", 2, "1dc5b8a1e131356f"),
    ("bipartite verify-cor43 --k 5 b.txt", 2, "a63c77cb9b2fb6bc"),
    ("prop61 --a 4,4,5 g.txt", 0, "467df8ddbd1a7ad5"),
    ("paths prop61 --a 4,x,5 g.txt", 2, "c1f0041faffa8d37"),
    ("prop61 --a 4,x,5 g.txt", 2, "c1f0041faffa8d37"),
    ("paths prop61 --a 9,9,9 g.txt", 2, "9aa3362a5381d1f3"),
    ("prop61 --a 9,9,9 g.txt", 2, "9aa3362a5381d1f3"),
    ("paths prop61 --a 4,4 g.txt", 2, "6f05a7b23d5c027a"),
    ("paths prop61 --a 4,4,5 missing.txt", 2, "4821a4f7327f3408"),
    ("bipartite gen-b --s 4 --t 4 --m 3 --parts-u 1,x -o x.txt", 2, "8305287b7f30c3f8"),
    ("detect --pattern K3uP3 r1.txt", 1, "69b5fdaeda1f3b25"),
    ("detect --pattern bogus r1.txt", 2, "817a7c9dc9d17274"),
)


def _masked(text: str) -> str:
    return re.sub(r"\(\d+ ms\)", "(N ms)", re.sub(r'"millis": \d+', '"millis": N', text))


def _run(line: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(line))
    return code, _masked(out.getvalue() + err.getvalue())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_cli_bytes_match_the_golden_answers(tmp_path, monkeypatch):
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    readme = [shlex.join(shlex.split(line, comments=True)[1:]) for line in block.splitlines()]
    readme = [line for line in readme if line]
    assert [line for line, _, _ in GOLDEN_CLI[: len(readme)]] == readme
    monkeypatch.chdir(tmp_path)
    got = {}
    for line, code, digest in GOLDEN_CLI:
        got[line] = _run(line)
        assert (got[line][0], _digest(got[line][1])) == (code, digest), line
    # `paths prop61` is the documented spelling of `prop61`
    for quotas in ("4,4,5", "4,x,5", "9,9,9"):
        assert got[f"paths prop61 --a {quotas} g.txt"] == got[f"prop61 --a {quotas} g.txt"]


def test_every_leaf_sets_its_own_handler():
    # each leaf names its handler, and a host-file query names its query, so
    # no group handler dispatches on a subcommand name
    def walk(parser, path):
        groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        yield path, parser, bool(groups)
        for group in groups:
            for name, child in group.choices.items():
                yield from walk(child, path + (name,))

    leaves = 0
    for path, parser, is_group in walk(build_parser(), ()):
        fn = parser._defaults.get("fn")
        if is_group:
            assert fn is None, path
            continue
        leaves += 1
        assert callable(fn), path
        assert fn is not cli._answer or callable(parser._defaults.get("query")), path
    assert leaves == 15
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    reads = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    assert not [attr for attr in reads if attr.endswith("_cmd")]


def test_a_negative_json_answer_exits_1(tmp_path, monkeypatch):
    # the record's "ok" alone picks the exit code, whichever query made it
    def refuted(answer):
        return lambda *args: answer(*args)._replace(ok=False)

    monkeypatch.chdir(tmp_path)
    _run("gallai sample --n 9 --m 3 --seed 1 -o g.txt")
    _run("bipartite gen-b --s 10 --t 10 --m 6 --seed 3 -o b.txt")
    monkeypatch.setitem(cli._LEMMAS, "2conn", refuted(cli._LEMMAS["2conn"]))
    for name in ("verify_background_spanning_kconn", "check_mono_path_quota"):
        monkeypatch.setattr(cli, name, refuted(getattr(cli, name)))
    for line in (
        "gallai verify --lemma 2conn g.txt",
        "bipartite verify-cor43 --k 2 b.txt",
        "paths prop61 --a 4,4,5 g.txt",
    ):
        code, text = _run(line)
        assert code == 1 and '"ok": false' in text, line
