"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the checkout root."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", range(25))
def test_dense_configs_are_seeded_and_in_domain(seed):
    specs = workloads.dense_configs(seed)
    assert specs == workloads.dense_configs(seed)
    assert specs != workloads.dense_configs(seed + 1)
    for spec in specs:
        keys = spec["keys"]
        if spec["command"] == "alpha-sweep":
            assert keys["points_per_decade"] > 0
            lo, hi = keys["theta_l_min"], keys["theta_l_max"]
            assert 0.0 < lo < hi
            if keys["mode"] == "fixed_ratio":
                theta_ls, theta_th = [lo, hi], keys["ratio"] * hi
            else:
                theta_ls, theta_th = [lo, hi], keys["theta_th"]
            # the grid's end points carry float rounding; keep a margin
            assert max(theta_ls) * (1 + 1e-9) <= theta_th <= workloads.PI_8
            assert set(keys["k"].split(",")) == {str(k) for k in range(3, 12)}
        else:
            thetas = [float(t) for t in keys["theta_l"].split(",")]
            assert max(thetas) * 2.0 ** keys["n_max"] * (1 + 1e-9) <= workloads.PI_8
            assert all(0.0 < float(d) < 1.0 for d in keys["delta_sweep"].split(","))
        assert workloads.expected_rows(spec) > 0


def test_dense_configs_cover_both_modes_and_switches():
    modes, higher, p_m = set(), set(), set()
    for seed in range(10):
        for spec in workloads.dense_configs(seed):
            keys = spec["keys"]
            modes.add(keys.get("mode", "tradeoff"))
            higher.add(keys.get("higher_orders"))
            p_m.add(keys["p_m"])
    assert modes == {"fixed_ratio", "fixed_threshold", "tradeoff"}
    assert {"true", "false"} <= higher
    assert p_m == {0.0, 2e-9}


def test_oracle_inputs_are_seeded_and_in_domain(tmp_path):
    assert workloads.enum_grid(4) == workloads.enum_grid(4) != workloads.enum_grid(5)
    for _, theta_l, ratio in workloads.enum_grid(4):
        assert theta_l * ratio <= workloads.PI_8
    for _, n, _ in workloads.MC_CASES:
        assert workloads.mc_theta(n) * 2 ** n <= workloads.PI_8
    order = [s.name for s in workloads.figure_steps(7, ROOT, tmp_path)]
    assert order == [s.name for s in workloads.figure_steps(7, ROOT, tmp_path)]
    assert len(order) == len(workloads.FIGURE_CONFIGS) + 1


def test_self_times_clip_and_merge_overlapping_children():
    #   0 root     [0, 10]
    #   1  child   [1, 4]   overlaps child 2
    #   2  child   [3, 6]
    #   3  child   [8, 12]  runs past its parent: clipped to [8, 10]
    #   4   grandchild of 1 [2, 3]
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = tracer.self_times(parent, start, end)
    assert own == pytest.approx([10 - (5 + 2), 3 - 1, 3, 4, 1])


def test_span_log_summary_splits_calls_and_imports():
    log = tracer.SpanLog()
    imp = log.open(tracer.LAYERS.index("zchan"), tracer.KIND_IMPORT)
    log.close(imp)
    traced = log.wrap("tmr", lambda x: x + 1)
    outer = log.wrap("smm", lambda: traced(1) + traced(2))
    assert outer() == 5
    summary = log.summary()
    assert summary["smm"]["calls"] == 1 and summary["tmr"]["calls"] == 2
    assert summary["zchan"]["calls"] == 0 and summary["zchan"]["import_s"] > 0.0
    total = sum(e - s for s, e, p in zip(log.start, log.end, log.parent) if p == -1)
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(total)


def _traced_counts(bench, steps, index):
    pass_dir = bench.work / f"selftest{index}"
    pass_dir.mkdir()
    results = [bench.run_step(step, pass_dir, traced=True) for step in steps]
    assert all(o.ok for r in results for o in r.outcomes), [o for r in results for o in r.outcomes]
    calls = {name: entry["calls"] for name, entry in run._sum_layers(results).items()}
    return calls, sum(r.rows for r in results), sum(r.bytes for r in results)


def test_exact_counts_repeat_across_traced_runs_and_match_untraced(tmp_path):
    bench = run.Bench(ROOT, "selftest", seed=3)
    spec = workloads.dense_configs(3)[1]
    spec["keys"]["points_per_decade"] = 3
    config = tmp_path / "small.cfg"
    workloads.write_config(spec, config)
    steps = [
        workloads.Step("tepai_molecules", "tepai", ROOT / "configs" / "tepai_molecules.cfg",
                       {"reference": "tepai_molecules"}),
        workloads.Step("small", "alpha-sweep", config,
                       {"spec": spec, "rows": workloads.expected_rows(spec)}),
    ]
    first = _traced_counts(bench, steps, 0)
    assert first == _traced_counts(bench, steps, 1)
    calls, rows, size = first
    assert calls["cli"] == 2 and calls["smm"] > 0 and calls["tepai"] > 0
    plain_dir = bench.work / "plain"
    plain_dir.mkdir()
    plain = [bench.run_step(step, plain_dir, traced=False) for step in steps]
    assert (sum(r.rows for r in plain), sum(r.bytes for r in plain)) == (rows, size)
    for step in steps:
        for out in (plain_dir / step.name).glob("*.csv"):
            assert out.read_bytes() == (bench.work / "selftest0" / step.name / out.name).read_bytes()


def test_calibration_counts_repeat():
    bench = run.Bench(ROOT, "selftest", seed=3)
    first, ok = bench.probe("counts")
    assert ok.ok, ok.detail
    second, _ = bench.probe("counts")
    assert first["counts"] == second["counts"]
    assert all(v > 0 for v in first["counts"].values())
    assert math.isclose(first["c1"], workloads.C1_K7, rel_tol=1e-12)
