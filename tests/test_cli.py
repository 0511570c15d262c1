import json

import pytest

from unitindex import cli, experiment
from unitindex.criterion import PrimeVerdict


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stdout_csv(capsys):
    code, out, err = run(capsys, ["--d", "65", "--X", "200"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "p,m,in_P,reason,E_real,Q_direct,Q_governing,a,b,alarms"
    assert any(line.startswith("37,0,1,,1,2,2,5,13,") for line in lines)


def test_json_format_and_m_filter(capsys):
    code, out, _ = run(capsys, ["--d", "65", "--X", "200", "--format", "json", "--m", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert {r["m"] for r in doc["records"]} == {0, 1}
    assert [row["m"] for row in doc["summary"]] == [0, 1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, ["--d", "65", "--X", "200", "--out", str(target)])
    assert code == 0
    assert str(target) in out
    assert target.read_text().startswith("p,m,in_P")


def test_refusal_exits_2(capsys):
    code, out, err = run(capsys, ["--d", "145", "--X", "100"])
    assert code == 2
    assert out == ""
    assert "4-rank 1" in err

    code, _, err = run(capsys, ["--d", "21", "--X", "100"])
    assert code == 2
    assert "3 (mod 4)" in err


def test_non_squarefree_d_exits_2(capsys):
    code, out, err = run(capsys, ["--d", "9", "--X", "100"])
    assert code == 2
    assert out == ""
    assert err == "error: 9 is divisible by 3^2\n"


def test_missing_fork_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(experiment, "get_all_start_methods", lambda: ["spawn"])
    code, out, err = run(capsys, ["--d", "65", "--X", "20000", "--workers", "2"])
    assert code == 2
    assert out == ""
    assert "fork" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("# small demo scan\nd = 65\nX = 100\nformat = json\n")
    code, out, _ = run(capsys, ["--config", str(conf)])
    assert code == 0
    assert json.loads(out)["X"] == 100

    code, out, _ = run(capsys, ["--config", str(conf), "--X", "200", "--format", "csv"])
    assert code == 0
    assert out.startswith("p,m,in_P")
    assert any(line.startswith("197,") for line in out.splitlines())


def test_config_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("d = 65\nX = 100\nthreads = 8\n")
    code, _, err = run(capsys, ["--config", str(conf)])
    assert code == 2
    assert "unknown key 'threads'" in err


def test_config_rejects_bad_line(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("d 65\n")
    code, _, err = run(capsys, ["--config", str(conf)])
    assert code == 2
    assert "expected key=value" in err


def test_config_empty_m_filter_exits_2(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("d = 65\nX = 100\nm = ,\n")
    code, out, err = run(capsys, ["--config", str(conf)])
    assert (code, out, err) == (2, "", "error: empty m filter\n")


def test_missing_required_settings(capsys):
    code, _, err = run(capsys, ["--X", "100"])
    assert code == 2
    assert "both d and X are required" in err


def test_non_integer_setting(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("d = sixty-five\nX = 100\n")
    code, _, err = run(capsys, ["--config", str(conf)])
    assert code == 2
    assert "must be an integer" in err


def test_checkpointed_rerun_matches(tmp_path, capsys):
    ck = tmp_path / "scan.log"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["--d", "65", "--X", "1000", "--checkpoint", str(ck)]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2), "--workers", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_alarms_drive_exit_code(capsys, monkeypatch):
    real_evaluate = experiment.evaluate

    def planted(d, p, construction_check=False):
        v = real_evaluate(d, p, construction_check=construction_check)
        if p == 37:
            return PrimeVerdict(
                p=v.p,
                m=v.m,
                in_P=v.in_P,
                reason=v.reason,
                e_totally_real=v.e_totally_real,
                q_direct=v.q_direct,
                q_governing=v.q_governing,
                structure=v.structure,
                decomposition=v.decomposition,
                alarms=("routes disagree: direct 2, governing 1",),
            )
        return v

    monkeypatch.setattr(experiment, "evaluate", planted)
    code, out, err = run(capsys, ["--d", "65", "--X", "100"])
    assert code == 1
    assert "ALARM: 1 primes need attention: 37" in err
    assert "routes disagree" in out  # the alarm still lands in the report


def test_bad_m_flag(capsys):
    with pytest.raises(SystemExit):  # argparse rejects the value itself
        cli.main(["--d", "65", "--X", "100", "--m", "zero"])
    capsys.readouterr()


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    # refused before the scan, so nothing is scanned and nothing is written
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        code, stdout, err = run(capsys, ["--d", "65", "--X", "100", "--out", str(out)])
        assert code == 2
        assert stdout == ""
        assert err == f"error: cannot write the report to {out}\n"
    assert list(tmp_path.iterdir()) == []

    # a write that fails after the scan (a full disk) is reported the same way
    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "report", full)
    code, stdout, err = run(capsys, ["--d", "65", "--X", "100", "--out", str(tmp_path / "x.csv")])
    assert (code, stdout, err) == (2, "", "error: [Errno 28] No space left on device\n")


def test_negative_m_exits_2(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("d = 65\nX = 100\nm = 0,-1\n")
    for argv in (["--d", "65", "--X", "100", "--m=-1"], ["--config", str(conf)]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: m must be nonnegative, got -1\n"


def test_checkpoint_bound_beyond_64_bits_exits_2(tmp_path, capsys):
    ck = tmp_path / "scan.log"
    for d, X in ((65, 2**64 + 1), (2**64 + 13, 100)):
        code, out, err = run(capsys, ["--d", str(d), "--X", str(X), "--checkpoint", str(ck)])
        assert code == 2
        assert out == ""
        assert err == "error: a checkpoint needs d and X below 2^64\n"
    assert not ck.exists()
