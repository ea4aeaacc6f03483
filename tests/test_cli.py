"""Front-end behavior: output shapes, exit codes, JSON round trips."""

import hashlib
import json

import pytest

from cndescent import cli, survey
from cndescent.cli import main
from cndescent.survey import check_grid_row, verify_reference


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_profile_text(capsys):
    code, out = run(capsys, ["profile", "--p", "17", "--l", "1361"])
    assert code == 0
    assert out == "+ + + - -\n"


def test_profile_json_round_trips(capsys):
    code, out = run(capsys, ["profile", "--p", "17", "--l", "1361", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"p": 17, "l": 1361, "profile": [1, 1, 1, -1, -1]}
    assert json.dumps(obj) == out.strip()


def test_classify_json_round_trips(capsys):
    code, out = run(capsys, ["classify", "--k", "34", "--height", "300", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 34
    assert obj["rank_lower"] == obj["rank_upper"] == 2
    assert obj["selmer_psi"] == [1, -1, 2, -2, 17, -17, 34, -34]
    assert json.dumps(obj) == out.strip()


def test_classify_text_report(capsys):
    code, out = run(capsys, ["classify", "--k", "34", "--height", "300"])
    assert code == 0
    assert "family: 2p" in out
    assert "rank bounds: 2 <= rank <= 2" in out
    assert "no (positive rank witnessed)" in out
    code, out = run(capsys, ["classify", "--k", "157", "--height", "20"])
    assert code == 0
    assert "rank bounds: 0 <= rank <= 1" in out
    assert "noncongruent: undecided" in out


def test_classify_degrades_without_family(capsys):
    # 12 is not squarefree; search and Selmer still run
    code, out = run(capsys, ["classify", "--k", "12", "--height", "100"])
    assert code == 0
    assert "not applicable" in out
    assert "noncongruent: yes" in out


def test_selmer(capsys):
    code, out = run(capsys, ["selmer", "--k", "34", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["selmer_phi"] == [1, 17]


def test_grid(capsys):
    code, out = run(capsys, ["grid"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 32
    assert "example=(41, 2273)" in lines[0]


def test_grid_verify(capsys):
    code, out = run(capsys, ["grid", "--verify", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 32
    assert all(r["verified"] for r in rows)


def test_grid_verify_flags_a_wrong_w_column(capsys, monkeypatch):
    grid = list(cli.REFERENCE_GRID)
    grid[0] = grid[0]._replace(w_phi=("2", "p"))  # true W is <2, p, l>
    monkeypatch.setattr(cli, "REFERENCE_GRID", tuple(grid))
    code, out = run(capsys, ["grid", "--verify", "--json"])
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["verified"] is False
    assert all(r["verified"] for r in rows[1:])


def test_grid_verify_flags_a_wrong_psi_column(capsys, monkeypatch):
    # row 4 certifies Sha^psi = <p>; <2l> has the same dimension
    grid = list(cli.REFERENCE_GRID)
    assert grid[3].sha_psi == ("p",)
    grid[3] = grid[3]._replace(sha_psi=("2l",))
    assert not check_grid_row(4, grid[3])[0].passed
    assert check_grid_row(4, cli.REFERENCE_GRID[3])[0].passed
    monkeypatch.setattr(cli, "REFERENCE_GRID", tuple(grid))
    code, out = run(capsys, ["grid", "--verify", "--json"])
    assert code == 1
    rows = json.loads(out)
    assert [r["row"] for r in rows if not r["verified"]] == [4]
    code, out = run(capsys, ["grid", "--verify"])
    assert code == 1
    assert out.split("\n")[3].endswith("  MISMATCH")
    monkeypatch.setattr(survey, "REFERENCE_GRID", tuple(grid))
    report = verify_reference()
    assert [c.name for c in report.checks if not c.passed] == ["grid row 4"]


def test_survey_stdout(capsys):
    code, out = run(capsys, ["survey", "--two-p", "--bound", "100"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6  # five rows + summary
    assert json.loads(lines[0])["k"] == 34
    assert json.loads(lines[-1])["summary"]["rank_zero"] == 3


def test_survey_json_prints_the_same_ndjson(capsys):
    argv = ["survey", "--residues", "3,3", "--bound", "100"]
    code, out = run(capsys, argv)
    assert code == 0 and out.count("\n") > 1
    assert run(capsys, [*argv, "--json"]) == (0, out)


def test_survey_to_file(tmp_path, capsys):
    path = tmp_path / "rows.ndjson"
    code, out = run(
        capsys,
        ["survey", "--residues", "3,3", "--bound", "500", "--out", str(path)],
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert summary["rank_zero_fraction"] == 1.0


def test_verify_command(capsys):
    code, out = run(capsys, ["verify", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert len(obj["checks"]) > 80


def test_exit_codes(capsys):
    assert run(capsys, ["profile", "--p", "17", "--l", "97"])[0] == 1  # (17/97) = -1
    assert run(capsys, ["classify", "--k", "-5"])[0] == 2
    assert run(capsys, ["classify"])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, ["survey", "--residues", "one,one"])[0] == 2
    assert run(capsys, ["survey", "--residues", "1,5", "--bound", "100"])[0] == 1
    # the legendre filter selects nothing on the 2p family
    assert run(capsys, ["survey", "--two-p", "--legendre", "1"])[0] == 1


# sha256 of each command's stdout, taken when the records were dataclasses
# and grid and verify serialised them through dataclasses.asdict; verify's
# retaken when its family checks became one table run through descend
PINNED_OUTPUTS = {
    "grid --json": "ab1cf073c787bc1512be685717da8465770b515090b6b4e97596b87253d9769d",
    "verify --json": "64220beb7f8099553e4cb002ccbe09ab85b21f67fcb988c10eb66fa6109a6122",
    "classify --k 157 --height 200 --json":
        "2c4d8f10fa6192455715fccb55cfe6f8cf623c0761943598462366ac240bb815",
    "profile --p 17 --l 89 --json":
        "d9ee8fa44e686fd8920f5342662d994d739f6b208935c9c9a8d22bee8827b7e0",
    "survey --residues 1,1 --legendre 1 --bound 500":
        "d9f555b0fcca6dcd350c20a03f55864f89f2bae19b45ab3b71bb570dc5dc71f3",
}


@pytest.mark.parametrize("command", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, command):
    code, out = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[command]
