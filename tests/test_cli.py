import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowfree
from rainbowfree import cli
from rainbowfree.cli import main
from rainbowfree.connectivity import CertificationError
from rainbowfree.core import load_coloring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_detect_found(tmp_path, capsys):
    path = str(tmp_path / "r1.txt")
    code, _ = run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", path)
    assert code == 0
    host = load_coloring(path)
    assert host.n == 9 and host.m == 4
    code, out = run(capsys, "detect", "--pattern", "K2uK3", path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["map"]) == 5
    assert len(payload["colors"]) == 4


def test_detect_rainbow_free_exit_code(tmp_path, capsys):
    path = str(tmp_path / "r1.txt")
    run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", path)
    code, out = run(capsys, "detect", "--pattern", "K3uP3", path)
    assert code == 1
    assert "rainbow-free" in out


def test_gen_describe_prints_parts(tmp_path, capsys):
    path = str(tmp_path / "f1.txt")
    code, out = run(
        capsys, "gen", "F1", "--s", "12", "--t", "6", "--m", "4", "-o", path, "--describe"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["parts"]["U1"] == [0, 1, 2]


def test_kconn_modes(tmp_path, capsys):
    path = str(tmp_path / "r1.txt")
    run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", path)
    code, out = run(capsys, "kconn", "--k", "1", "--colors", "mono", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 6 and payload["exact"]
    code, out = run(capsys, "kconn", "--k", "2", "--colors", "mask=1,2", path)
    assert json.loads(out)["k"] == 2
    code, out = run(capsys, "kconn", "--k", "1", "--colors", "pairs", path)
    payload = json.loads(out)
    assert payload["exact"] is True and payload["lower"] == payload["upper"]
    # the search reports its own exactness; there is no mode flag
    with pytest.raises(SystemExit) as exc:
        main(["kconn", "--k", "1", "--exact", path])
    assert exc.value.code == 2


def test_gallai_cycle(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    code, _ = run(
        capsys, "gallai", "sample", "--n", "9", "--m", "3", "--seed", "4", "-o", path
    )
    assert code == 0
    code, out = run(capsys, "gallai", "check", path)
    assert code == 0 and "gallai" in out
    code, out = run(capsys, "gallai", "partition", path)
    assert code == 0
    assert len(json.loads(out)["parts"]) >= 2
    code, out = run(capsys, "gallai", "verify", "--lemma", "2conn", path)
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "gallai", "verify", "--lemma", "3conn", path)
    assert code == 0 and json.loads(out)["order"] >= 8


def test_gallai_check_rejects_rainbow_triangle(tmp_path, capsys):
    path = str(tmp_path / "k3.txt")
    path_obj = tmp_path / "k3.txt"
    path_obj.write_text("Kn 3 3\n1 2\n3\n")
    code, out = run(capsys, "gallai", "check", str(path_obj))
    assert code == 1


def test_bipartite_cycle(tmp_path, capsys):
    path = str(tmp_path / "b.txt")
    code, _ = run(
        capsys,
        "bipartite",
        "gen-b",
        "--s", "10", "--t", "10", "--m", "6",
        "--parts-u", "2,2,2,2,2",
        "--parts-v", "2,2,2,2,2",
        "--seed", "9",
        "-o", path,
    )
    assert code == 0
    code, out = run(capsys, "bipartite", "classify", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "B"
    assert payload["u_parts"]["2"] == [0, 1]
    code, out = run(capsys, "bipartite", "verify-cor43", "--k", "2", path)
    assert code == 0 and json.loads(out)["ok"]


def test_paths_and_cycles(tmp_path, capsys):
    path = str(tmp_path / "f1.txt")
    run(capsys, "gen", "F1", "--s", "12", "--t", "6", "--m", "4", "-o", path)
    code, out = run(capsys, "paths", "--color", "1", path)
    assert code == 0 and json.loads(out)["order"] == 7
    code, out = run(capsys, "cycles", "--color", "1", path)
    assert code == 0 and json.loads(out)["length"] == 6
    # the quota check is a theorem about K_n: a K_{s,t} host is bad input
    code, _ = run(capsys, "paths", "prop61", "--a", "3,3,3,3", path)
    assert code == 2
    kn = str(tmp_path / "r1.txt")
    run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", kn)
    code, out = run(capsys, "paths", "prop61", "--a", "3,3,3,3", kn)
    assert code == 0 and json.loads(out)["ok"]


def test_readme_cli_block_answers(tmp_path, monkeypatch, capsys):
    # every line of the README's CLI block, run in order in one directory,
    # answers: exit 0 (positive) or 1 (negative), never bad input or worse
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert len(lines) >= 15 and all(argv[0] == "rainbowfree" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code = main(argv[1:])
        capsys.readouterr()
        assert code in (0, 1), argv


def test_verify_reports_failing_claim(monkeypatch, capsys):
    broken = rainbowfree.Claim("broken", "never holds", lambda seed: (False, {"seed": seed}))
    monkeypatch.setattr(rainbowfree.claims, "build_registry", lambda: [broken])
    code, out = run(capsys, "verify")
    assert code == 1
    assert out.startswith("FAIL  broken (") and "0/1 claims passed" in out


def test_verify_filter_and_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = run(
        capsys, "verify", "--filter", "R1-free-*", "--json", str(report), "--seed", "7"
    )
    assert code == 0
    assert "claims passed" in out
    payload = json.loads(report.read_text())
    assert payload and all(r["status"] == "pass" for r in payload)
    assert all("seed" in r and "millis" in r for r in payload)


def test_verify_unknown_filter_errors(capsys):
    code = main(["verify", "--filter", "bogus-*"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "bogus-*" in err["message"]


def test_detect_malformed_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("Kn 3 2\n1 9\n1\n")  # color 9 is out of range
    code = main(["detect", "--pattern", "K3", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ColoringFormatError"
    code = main(["detect", "--pattern", "K3", str(tmp_path / "missing.txt")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_closed_stdout_is_not_bad_input():
    # the reader end is closed before the CLI writes, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(rainbowfree.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rainbowfree.cli", "gen", "R1", "--n", "60", "--m", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141  # not 2 (bad input) or 3 (certificate failure)


def test_gen_missing_parameter_is_bad_input(capsys):
    assert main(["gen", "R1", "--n", "9"]) == 2
    assert "needs --m" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("kconn", "--k", "1", "--colors", "mask="), "--colors", "mask="),
        (("kconn", "--k", "1", "--colors", "mask=1,x"), "--colors", "mask=1,x"),
        (("paths", "prop61", "--a", "3,,3"), "--a", "3,,3"),
    ],
)
def test_bad_integer_list_names_the_flag(tmp_path, capsys, argv, flag, value):
    path = str(tmp_path / "r1.txt")
    assert run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", path)[0] == 0
    assert main([*argv, path]) == 2
    captured = capsys.readouterr()
    message = json.loads(captured.err)["message"]
    assert captured.out == "" and f"bad {flag} value {value!r}" in message


def test_bad_part_sizes_name_the_flag(tmp_path, capsys):
    out = str(tmp_path / "b.txt")
    argv = ["bipartite", "gen-b", "--s", "6", "--t", "6", "--m", "4", "-o", out]
    assert main([*argv, "--parts-u", "2,x"]) == 2
    assert "bad --parts-u value '2,x'" in json.loads(capsys.readouterr().err)["message"]


def test_certification_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.txt")
    run(capsys, "gallai", "sample", "--n", "6", "--m", "3", "-o", path)

    def broken(host):
        raise CertificationError("no partition certified")

    monkeypatch.setattr(cli, "gallai_partition", broken)
    code = main(["gallai", "partition", path])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CertificationError"


def test_rejected_self_checks_exit_3(tmp_path, capsys, monkeypatch):
    # a witness the library's own validator rejects is a certificate
    # failure, not bad input: a non-injective rainbow map, a repeated path
    path = str(tmp_path / "r1.txt")
    run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", path)
    monkeypatch.setattr(
        rainbowfree.rainbow, "embeddings", lambda *args: iter([((0, 0, 1), frozenset({1, 2, 3}))])
    )
    monkeypatch.setattr(rainbowfree.paths, "_longest_path", lambda adj, target: ([0, 0], True))
    for argv, message in (
        (["detect", "--pattern", "K3", path], "mapping is not injective"),
        (["paths", "--color", "1", path], "repeated vertex in path"),
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "CertificationError", "message": message}


def test_crosscheck_cli(capsys):
    code, out = run(capsys, "crosscheck", "--max-n", "4", "--max-m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["mode"] == "full"
    assert payload["colorings"] == 2**6


def test_oversized_inputs_are_bad_input(tmp_path, capsys):
    path = str(tmp_path / "r1.txt")
    run(capsys, "gen", "R1", "--n", "9", "--m", "4", "-o", path)
    assert main(["detect", "--pattern", "100000K2", path]) == 2
    assert "> 12 vertices" in json.loads(capsys.readouterr().err)["message"]
    out = str(tmp_path / "b.txt")
    argv = ["bipartite", "gen-b", "--s", "2001", "--t", "8000", "--m", "5", "-o", out]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "host too large"
    assert not os.path.exists(out)


def test_wrong_host_kind_is_bad_input(tmp_path, capsys):
    kst = str(tmp_path / "b.txt")
    run(capsys, "bipartite", "gen-b", "--s", "6", "--t", "6", "--m", "5", "-o", kst)
    kn = str(tmp_path / "r2.txt")
    run(capsys, "gen", "R2", "--n", "12", "--m", "6", "-o", kn)  # 6 >= k + 4 colors
    cases = [
        (["gallai", "check", kst], "K_n"),
        (["gallai", "partition", kst], "K_n"),
        (["gallai", "verify", "--lemma", "2conn", kst], "K_n"),
        (["gallai", "verify", "--lemma", "3conn", kst], "K_n"),
        (["bipartite", "classify", kn], "K_{s,t}"),
        (["bipartite", "verify-cor43", "--k", "1", kn], "K_{s,t}"),
    ]
    for argv, kind in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError" and kind in err["message"], argv


def test_crosscheck_refuses_orders_its_oracles_cannot_finish(capsys):
    assert main(["crosscheck", "--max-n", "11", "--max-m", "1"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.out == ""
    assert json.loads(line) == {"error": "ValueError", "message": "max_n must be at most 10"}


def test_crosscheck_refuses_empty_sample(capsys):
    for samples in ("0", "-5"):
        argv = ["crosscheck", "--max-n", "3", "--max-m", "2", "--samples", samples]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "budget must be at least 1"
