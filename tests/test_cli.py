import json
import os
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
    code, out = run(capsys, "paths", "prop61", "--a", "3,3,3,3", path)
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "cycles", "--color", "1", path)
    assert code == 0 and json.loads(out)["length"] == 6


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


def test_certification_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "g.txt")
    run(capsys, "gallai", "sample", "--n", "6", "--m", "3", "-o", path)

    def broken(host):
        raise CertificationError("no partition certified")

    monkeypatch.setattr(cli, "gallai_partition", broken)
    code = main(["gallai", "partition", path])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CertificationError"


def test_crosscheck_cli(capsys):
    code, out = run(capsys, "crosscheck", "--max-n", "4", "--max-m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["mode"] == "full"
    assert payload["colorings"] == 2**6
