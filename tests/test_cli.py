import csv
import io

import pytest

from subig import cli, problems
from subig.cli import RUN_COLUMNS, RunRecord


def test_generate_solve_verify_wmcig(tmp_path, capsys):
    path = tmp_path / "a.wmcig"
    rc = cli.main(["generate", "wmcig", "--n", "10", "--r", "2", "--k-frac", "0.2",
                   "--seed", "4", "--out", str(path)])
    assert rc == 0
    rc = cli.main(["solve", str(path), "--setting", "ILDAE-S2"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if "," in ln]
    header = lines[-2].split(",")
    assert header == RUN_COLUMNS
    record = RunRecord.from_row(next(csv.reader(io.StringIO(lines[-1]))))
    assert record.setting == "ILDAE-S2"
    assert record.gap_pct == 0.0
    rc = cli.main(["verify", str(path), "--setting", "B-S1"])
    assert rc == 0


def test_verify_biig(tmp_path):
    path = tmp_path / "b.biig"
    assert cli.main(["generate", "biig", "--n", "8", "--m-mult", "2", "--B", "3",
                     "--k", "2", "--d", "0.2", "--seed", "5", "--out", str(path)]) == 0
    assert cli.main(["verify", str(path), "--setting", "ILDAE-S2"]) == 0


def test_malformed_setting_exits_2(tmp_path, capsys):
    path = tmp_path / "c.wmcig"
    cli.main(["generate", "wmcig", "--n", "6", "--r", "1", "--seed", "0", "--out", str(path)])
    rc = cli.main(["solve", str(path), "--setting", "XQ-S9"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_bench_manifest_roundtrip(tmp_path):
    paths = []
    for seed in (1, 2):
        p = tmp_path / f"m{seed}.wmcig"
        cli.main(["generate", "wmcig", "--n", "8", "--r", "2", "--seed", str(seed),
                  "--out", str(p)])
        paths.append(p)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "# instance setting\n"
        + "\n".join(f"{p} {s}" for p in paths for s in ("B-S1", "ILDAE-S2"))
        + "\n"
    )
    out_csv = tmp_path / "bench.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv)]) == 0
    with open(out_csv) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == RUN_COLUMNS
        rows = list(reader)
    assert len(rows) == 4
    # loss-free: every field survives the csv round trip
    records = [RunRecord.from_row(r) for r in rows]
    for rec, row in zip(records, rows):
        assert rec.row() == row
    # the same instance reports one optimum under both settings
    by_inst = {}
    for rec in records:
        by_inst.setdefault(rec.instance, set()).add(rec.UB)
    assert all(len(v) == 1 for v in by_inst.values())


def test_export_miblp_cli(tmp_path, cover_example):
    inst_path = tmp_path / "e.wmcig"
    problems.write_instance(cover_example, str(inst_path))
    out = tmp_path / "model.txt"
    assert cli.main(["export-miblp", str(inst_path), "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "model.txt.aux").exists()
    text = out.read_text()
    assert text.startswith("OBJ")
    assert "leader:" in text


def test_missing_file_exits_1(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "nope.wmcig"), "--setting", "B-S1"])
    assert rc == 1


@pytest.mark.parametrize(
    "text, line",
    [("WMCIG 3 4 2 1\n", 1), ("WMCIG 2 2 1 1\nP 5 9\nC 0 1 0\nC 0 1 1\n", 4)],
)
def test_malformed_instance_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "bad.wmcig"
    path.write_text(text)
    assert cli.main(["solve", str(path), "--setting", "B-S1"]) == 2
    err = capsys.readouterr().err
    assert f"error: line {line}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, line",
    [("only-one-token\n", 2), ("{path} B-S1\n{path} XQ-S9\n", 3)],
)
def test_malformed_manifest_line_exits_2(tmp_path, capsys, body, line):
    inst = tmp_path / "g.wmcig"
    cli.main(["generate", "wmcig", "--n", "6", "--r", "1", "--seed", "0", "--out", str(inst)])
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# instance setting\n" + body.format(path=inst))
    out_csv = tmp_path / "bench.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert f"error: line {line}: " in err
    assert not out_csv.exists()
