import dataclasses
import importlib.util
from pathlib import Path

import pytest

from subig import master, problems

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "settings_sweep.py"


@pytest.fixture
def sweep():
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
        if config.setting() != "ILD-S2":
            return res
        if fault == "value":
            return dataclasses.replace(res, value=res.value + 2 * sweep.AGREE_TOL)
        return dataclasses.replace(res, status=master.STATUS_TIME)

    monkeypatch.setattr(master, "solve", skewed)
    assert sweep.main([str(path)]) == 1
