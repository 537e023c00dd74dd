import dataclasses
import importlib.util
import re
import tempfile
from pathlib import Path

import pytest

from subig import master

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "consistency_bench.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("consistency_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stopped", [False, True])
def test_consistency_bench_fails_a_run_that_is_not_optimal(
    tmp_path, monkeypatch, capsys, bench, stopped
):
    """A run stopped by its time limit fails the bench even when its
    incumbent equals the other settings' value."""
    real_solve = master.solve

    def stop_one(instance, oracle, config):
        res = real_solve(instance, oracle, config)
        if stopped and config.setting() == "IL-S2":
            return dataclasses.replace(res, status=master.STATUS_TIME)
        return res

    monkeypatch.setattr(master, "solve", stop_one)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "bench.csv"
    argv = ["--n", "10", "--instances", "1", "--threads", "1", "--out", str(out)]
    assert bench.main(argv) == (1 if stopped else 0)
    err = capsys.readouterr().err
    assert bool(re.search(r"^NOT OPTIMAL \S+/bench-1\.wmcig IL-S2 time_limit$", err, re.M)) == stopped
    assert "DISAGREEMENT" not in err
