"""Tests of the benchmark's own tracer (self-time arithmetic, absent hooks,
exact repeat of counts across traced runs) and of its declared metrics."""

import sys
import types

import pytest

import layers
import workloads as W
from tracer import Tracer

if str(W.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(W.ROOT / "src"))
import subig  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def gain():
        clock.t += 0.25

    owner = types.SimpleNamespace(gain=gain)
    tr.aggregate(owner, "gain", "core.gain")
    with tr.span("a"):              # 0 .. 10
        clock.t = 1.0
        with tr.span("b"):          # 1 .. 4
            clock.t = 4.0
        clock.t = 5.0
        with tr.span("c"):          # 5 .. 7, one 0.25 s gain call inside
            owner.gain()
            with tr.span("b"):      # 5.25 .. 6.5
                clock.t = 6.5
            clock.t = 7.0
        clock.t = 10.0
    tot = tr.totals()
    assert tot["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert tot["b"] == {"calls": 2, "s": 4.25, "self_s": 4.25}
    assert tot["c"]["s"] == 2.0
    assert tot["c"]["self_s"] == pytest.approx(2.0 - 1.25 - 0.25)
    assert tr.counts["core.gain.calls"] == 1
    assert tr.agg_s["core.gain"] == 0.25
    assert [s[4] for s in tr.spans] == [None, 0, 0, 2]


def test_missing_hook_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(subig.lp, "lu_factor")
    inst = subig.problems.gen_wmcig(12, 2, 0.1, 1)
    with Tracer() as tr:
        layers.install(tr, subig, [inst.oracle()])
        assert tr.wrap(types.SimpleNamespace(), "gone", "x") is False
    assert "subig.lp.lu_factor" in tr.absent
    assert tr.absent[-1].endswith(".gone")
    m = layers.metrics(tr, 1.0, 1.0)
    assert m["lp.factorizations"] == 0
    assert m["trace.absent_hooks"] == 2
    assert set(m) == set(layers.PER_LAYER)
    tr.write_jsonl(str(tmp_path / "t.jsonl"))
    assert "absent_hooks" in (tmp_path / "t.jsonl").read_text()


def _traced_counts(tmp_path):
    solve_spec = {"kind": "solve", "family": "wmcig", "params": {"n": 14, "r": 2, "k_frac": 0.15}}
    query_spec = dict(solve_spec, kind="query", gen_seed=2)
    paths = W.write_instances(subig.problems, solve_spec, [2], tmp_path, seed=7)
    ops = [
        (solve_spec, {"gen_seed": 2, "setting": "I-S1"}),
        (solve_spec, {"gen_seed": 2, "setting": "ILDAE-S2"}),
        (query_spec, {"interdict": [0, 5]}),
    ]
    loaded = W.load_all(subig.problems, paths)
    with Tracer() as tr:
        layers.install(tr, subig, [ctx.oracle for ctx in loaded.values()])
        loaded = W.load_all(subig.problems, paths, tracer=tr)
        for spec, op in ops:
            assert W.run_op(subig, spec, op, loaded, 60.0).status == "optimal"
    calls = {name: row["calls"] for name, row in tr.totals().items()}
    return dict(tr.counts), calls


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    original = subig.master.solve
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert first == second
    counts, calls = first
    assert counts["lp.factorizations"] > 0 and counts["core.gain.calls"] > 0
    assert calls["master.solve"] == 2 and calls["follower.phi"] == 1
    assert subig.master.solve is original


def test_benchmark_json_declares_what_the_run_prints():
    import json

    import run

    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(W.STRATA)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER
