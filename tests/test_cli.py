import csv
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subig import cli, master, problems
from subig.cli import RUN_COLUMNS
from subig.lp import SolverError


def test_generate_solve_verify_wmcig(tmp_path, capsys):
    path = tmp_path / "a.wmcig"
    rc = cli.main(["generate", "wmcig", "--n", "10", "--r", "2", "--k-frac", "0.2",
                   "--seed", "4", "--out", str(path)])
    assert rc == 0
    rc = cli.main(["solve", str(path), "--setting", "ILDAE-S2"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if "," in ln]
    reader = csv.DictReader(io.StringIO("\n".join(lines[-2:])))
    assert reader.fieldnames == RUN_COLUMNS
    (record,) = reader
    assert record["setting"] == "ILDAE-S2"
    assert float(record["gap_pct"]) == 0.0
    rc = cli.main(["verify", str(path), "--setting", "B-S1"])
    assert rc == 0


def test_solve_limit_flags_and_out_file(tmp_path, capsys):
    path = tmp_path / "d.wmcig"
    inst = dataclasses.replace(problems.gen_wmcig(12, 2, 0.2, 8), B=3, k=3)
    problems.write_instance(inst, str(path))
    rec = tmp_path / "rec.csv"
    assert cli.main(["solve", str(path), "--setting", "B-S1", "--node-limit", "1",
                     "--out", str(rec)]) == 0
    printed = capsys.readouterr().out
    assert rec.read_bytes() == printed.encode()
    (record,) = csv.DictReader(io.StringIO(printed))
    assert record["status"] == "node_limit" and record["nodes"] == "1"

    assert cli.main(["solve", str(path), "--setting", "B-S1", "--time-limit", "0"]) == 0
    (record,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert record["status"] == "time_limit" and record["nodes"] == "0"


def test_verify_biig(tmp_path):
    path = tmp_path / "b.biig"
    assert cli.main(["generate", "biig", "--n", "8", "--m-mult", "2", "--B", "3",
                     "--k", "2", "--d", "0.2", "--seed", "5", "--out", str(path)]) == 0
    assert cli.main(["verify", str(path), "--setting", "ILDAE-S2"]) == 0


@pytest.mark.parametrize(
    "model, flag",
    [("wmcig", ["--k", "7"]), ("wmcig", ["--B", "3"]), ("biig", ["--r", "3"]),
     ("biig", ["--k-frac", "0.5"])],
)
def test_generate_rejects_the_other_models_flags(tmp_path, capsys, model, flag):
    out = tmp_path / "x.inst"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", model, "--n", "10", *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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
        reader = csv.DictReader(fh)
        assert reader.fieldnames == RUN_COLUMNS
        rows = list(reader)
    assert len(rows) == 4
    # the same instance reports one optimum under both settings
    by_inst = {}
    for row in rows:
        by_inst.setdefault(row["instance"], set()).add(row["UB"])
    assert all(len(v) == 1 for v in by_inst.values())


def test_bench_records_a_failing_entry_and_exits_1(tmp_path, capsys, cover_example):
    good = tmp_path / "good.wmcig"
    problems.write_instance(cover_example, str(good))
    missing = tmp_path / "missing.wmcig"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{missing} B-S1\n{good} I-S2\n")
    out_csv = tmp_path / "bench.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv)]) == 1
    assert f"error: {missing} B-S1: " in capsys.readouterr().err
    with open(out_csv) as fh:
        failed, solved = csv.DictReader(fh)
    kept = {"instance": str(missing), "setting": "B-S1", "status": "error"}
    assert failed == {**dict.fromkeys(RUN_COLUMNS, ""), **kept}
    assert solved["status"] == "optimal" and solved["setting"] == "I-S2"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("threads, pools", [(5000, [2]), (2, [2]), (1, []), (0, None), (-3, None)])
def test_bench_threads_caps_the_pool_at_the_run_count(
    tmp_path, capsys, monkeypatch, cover_example, threads, pools
):
    inst = tmp_path / "t.wmcig"
    problems.write_instance(cover_example, str(inst))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{inst} B-S1\n{inst} I-S2\n")
    out_csv = tmp_path / "bench.csv"
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    rc = cli.main(["bench", str(manifest), "--out", str(out_csv), "--threads", str(threads)])
    if pools is None:
        assert rc == 2
        assert "error: --threads must be at least 1" in capsys.readouterr().err
        assert _RecordingPool.sizes == [] and not out_csv.exists()
    else:
        assert rc == 0
        assert _RecordingPool.sizes == pools
        assert len(out_csv.read_text().splitlines()) == 3


def test_bench_checks_its_output_path_before_any_run(tmp_path, capsys, monkeypatch, cover_example):
    inst = tmp_path / "t.wmcig"
    problems.write_instance(cover_example, str(inst))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{inst} B-S1\n{inst} I-S2\n")
    calls = []
    monkeypatch.setattr(cli, "_bench_one", lambda *args: calls.append(args))
    out_csv = tmp_path / "nodir" / "o.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv)]) == 1
    assert "nodir" in capsys.readouterr().err
    assert calls == []


def _fresh_python(code, env):
    """stdout of ``code`` run in a new interpreter that imports this
    package's source, under ``env``."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env = dict(env, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_optimize_unloaded():
    """The package runs on numpy alone: importing scipy.linalg took 0.2-0.3 s
    and 28 MB of peak RSS, scipy.optimize 20 MB more, so no scipy module may
    load; checked in a fresh interpreter."""
    code = "import sys, subig, subig.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    assert _fresh_python(code, os.environ) == "[]"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_pins_blas_to_one_thread_unless_set(preset, expected):
    """A second OpenBLAS thread doubled the user CPU of an n = 75 solve for
    no gain, and the ``subig`` entry point imports numpy before ``cli.main``
    runs, so the package sets the default itself; a user's value wins."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env.update(dict.fromkeys(names, preset))
    code = f"import os, subig; print(*(os.environ[k] for k in {names!r}))"
    assert _fresh_python(code, env) == " ".join([expected] * 3)


def test_missing_file_exits_1(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "nope.wmcig"), "--setting", "B-S1"])
    assert rc == 1


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_numerical_failure_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "e.wmcig"
    problems.write_instance(problems.gen_wmcig(6, 1, 0.2, 0), str(path))

    def fail(*args):
        raise SolverError("singular basis matrix")

    monkeypatch.setattr(master, "solve_lp", fail)
    assert cli.main([command, str(path), "--setting", "B-S1"]) == 1
    assert capsys.readouterr().err == "error: singular basis matrix\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("WMCIG 3 4 2 1\n", 1),
        ("WMCIG 2 2 1 1\nP 5 9\nC 0 1 0\nC 0 1 1\n", 4),
        ("WMCIG 2 2 1 1\nP 0 9\nC 0 1 0\nC 1 1 1\n", 2),
        ("WMCIG 99999999999999999999 0 0 0\nP\n", 2),
        ("# total profit 2**53\nWMCIG 2 2 1 1\nP 4503599627370496 4503599627370496\n"
         "C 0 1 0\nC 1 1 1\n", 3),
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "bad.wmcig"
    path.write_text(text)
    assert cli.main(["solve", str(path), "--setting", "B-S1"]) == 2
    err = capsys.readouterr().err
    assert f"error: line {line}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, what",
    [(["--time-limit", "nan"], "time limit"), (["--time-limit", "-3"], "time limit"),
     (["--node-limit", "-1"], "node limit")],
)
def test_nan_or_negative_limits_exit_2(tmp_path, capsys, flag, what):
    inst = tmp_path / "l.wmcig"
    cli.main(["generate", "wmcig", "--n", "6", "--r", "1", "--seed", "0", "--out", str(inst)])
    capsys.readouterr()
    for command in ("solve", "verify"):
        assert cli.main([command, str(inst), "--setting", "B-S1", *flag]) == 2
        assert f"error: {what} must be zero or more" in capsys.readouterr().err
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{inst} B-S1\n")
    out_csv = tmp_path / "bench.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv), *flag]) == 2
    err = capsys.readouterr().err
    assert f"error: {what} must be zero or more" in err and "line" not in err
    assert not out_csv.exists()


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


def test_non_utf8_instance_exits_2_naming_its_line(tmp_path, capsys):
    path = tmp_path / "bytes.wmcig"
    path.write_bytes(b"WMCIG 2 2 1 1\nP 5 \xff9\nC 0 1 0\nC 1 1 1\n")
    assert cli.main(["solve", str(path), "--setting", "B-S1"]) == 2
    err = capsys.readouterr().err
    assert "error: line 2: " in err and "Traceback" not in err


def test_non_utf8_manifest_exits_2_naming_its_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"# instance setting\n\xff.wmcig B-S1\n")
    out_csv = tmp_path / "bench.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv)]) == 2
    assert "error: line 2: " in capsys.readouterr().err
    assert not out_csv.exists()


def test_bench_fails_only_the_entries_of_a_non_utf8_instance(tmp_path, capsys, cover_example):
    good = tmp_path / "good.wmcig"
    problems.write_instance(cover_example, str(good))
    bad = tmp_path / "bad.wmcig"
    bad.write_bytes(good.read_bytes().replace(b"\n", b"\n\xff", 1))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{bad} B-S1\n{good} I-S2\n{bad} I-S1\n")
    out_csv = tmp_path / "bench.csv"
    assert cli.main(["bench", str(manifest), "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad} B-S1: line 2: " in err and f"error: {bad} I-S1: line 2: " in err
    with open(out_csv) as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert statuses == ["error", "optimal", "error"]
