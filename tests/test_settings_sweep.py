import dataclasses
import importlib.util
import re
import tempfile
from pathlib import Path

import pytest

from subig import master, problems

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "settings_sweep.py"


@pytest.fixture
def sweep(tmp_path, monkeypatch):
    # the sweep's manifest and CSV go under tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec = importlib.util.spec_from_file_location("settings_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fault", ["value", "status"])
def test_settings_sweep_exits_1_on_disagreement(tmp_path, monkeypatch, cover_example, sweep, fault):
    path = tmp_path / "cover.wmcig"
    problems.write_instance(cover_example, str(path))
    assert sweep.main([str(path)]) == 0

    real_solve = master.solve

    def skewed(instance, oracle, config):
        res = real_solve(instance, oracle, config)
        if config.setting != "ILD-S2":
            return res
        if fault == "value":
            return dataclasses.replace(res, value=res.value + 2 * sweep.AGREE_TOL)
        return dataclasses.replace(res, status=master.STATUS_TIME)

    monkeypatch.setattr(master, "solve", skewed)
    assert sweep.main([str(path)]) == 1


@pytest.mark.parametrize("stopped", [False, True])
def test_settings_sweep_fails_a_run_that_is_not_optimal(
    tmp_path, monkeypatch, capsys, cover_example, bipartite_example, sweep, stopped
):
    """A run stopped by its time limit fails the sweep even when its
    incumbent equals the other settings' value."""
    wmcig, biig = tmp_path / "a.wmcig", tmp_path / "b.biig"
    problems.write_instance(cover_example, str(wmcig))
    problems.write_instance(bipartite_example, str(biig))
    real_solve = master.solve

    def stop_one(instance, oracle, config):
        res = real_solve(instance, oracle, config)
        if stopped and instance.family == "BIIG" and config.setting == "IL-S2":
            return dataclasses.replace(res, status=master.STATUS_TIME)
        return res

    monkeypatch.setattr(master, "solve", stop_one)
    assert sweep.main([str(wmcig), str(biig)]) == (1 if stopped else 0)
    err = capsys.readouterr().err
    assert re.findall(r"^NOT OPTIMAL .*$", err, re.M) == (
        [f"NOT OPTIMAL {biig} IL-S2 time_limit"] if stopped else []
    )
    assert "DISAGREEMENT" not in err


def test_settings_sweep_reports_an_unreadable_instance(tmp_path, capsys, cover_example, sweep):
    good, bad = tmp_path / "good.wmcig", tmp_path / "bad.wmcig"
    problems.write_instance(cover_example, str(good))
    bad.write_text("WMCIG 3 4 2 1\n")
    assert sweep.main([str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert re.findall(r"^NOT OPTIMAL .*$", err, re.M) == [
        f"NOT OPTIMAL {bad} {s} error" for s in master.LADDER_SETTINGS
    ]
    assert "Traceback" not in err


def test_settings_sweep_rejects_a_path_with_whitespace(tmp_path, capsys, cover_example, sweep):
    path = tmp_path / "with space.wmcig"
    problems.write_instance(cover_example, str(path))
    with pytest.raises(SystemExit) as exc:
        sweep.main([str(path)])
    assert exc.value.code == 2
    assert "holds whitespace" in capsys.readouterr().err
    assert not list(tmp_path.glob("subig-sweep-*"))
