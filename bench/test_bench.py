"""Self-tests of the benchmark: its copy of the acceptance world, its metric
names against BENCHMARK.json, and a smoke run of every workload on a tiny
world.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from cascadyn.simulate import gen_cascades, gen_network  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from world import OUTBREAK_SIM  # noqa: E402


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "bench_acceptance_world", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outbreak_sim_copy_matches_acceptance():
    assert OUTBREAK_SIM == _acceptance_module().OUTBREAK_SIM


def test_fewer_cascades_keep_the_same_cascades():
    cfg = replace(OUTBREAK_SIM, n_nodes=300, n_cascades=120, max_degree=100)
    net = gen_network(cfg)
    full = gen_cascades(net, cfg)
    fewer = gen_cascades(net, replace(cfg, n_cascades=50))
    assert [c.events for c in fewer] == [c.events for c in full[:50]]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# per-layer metrics each workload's traced run must see work in
EXERCISED = {
    "crossval": ("simulate.gen_network_s", "features.extract_subcascades_s",
                 "features.extract_features_s", "fitting.fit_s.newer", "fitting.fit_s.weibull",
                 "fitting.fit_s.exponential", "fitting.fit_s.rayleigh", "fitting.fit_s.cox",
                 "fitting.iterations.cox", "evaluate.self_s", "evaluate.loglinear_s",
                 "evaluate.predictions_scored", "predict.build_s", "predict.lookups.fitted",
                 "predict.lookups.regressed"),
    "forecast": ("simulate.gen_cascades_s", "fitting.fit_s.newer", "predict.build_s",
                 "predict.final_size_s", "predict.outbreak_time_s", "predict.process_curve_s",
                 "predict.observed_rows", "predict.rows_with_replies", "predict.lookups.fitted"),
    "stream": ("fitting.fit_s.newer", "predict.feed_event_s", "predict.query_size_s",
               "predict.reply_updates", "predict.timer_recalcs",
               "predict.max_recalcs_per_subcascade"),
}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    args = SimpleNamespace(seed=3, seconds=0.01, trace=trace, world_seed=2024, smoke=True)
    out = run.run_workload(workload, args)
    result = out["result"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(expected)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert out["stamp"]["failed"]["repeats"] == 0
    if workload != "crossval":
        # a world this small has too few training cascades for newer to
        # outscore loglinear at every prefix size, so only crossval may fail
        assert result["failed"] == 0 and result["correct"]
    assert out["stamp"]["samples"]["op_p99_us"] >= 1
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        # the pass root's children and its own time account for its wall time
        accounted = metrics["trace.root_children_s"] + metrics["trace.root_self_s"]
        assert accounted == pytest.approx(metrics["trace.wall_s"], rel=0.01)
        assert all(metrics[name] > 0 for name in EXERCISED[workload])
    else:
        assert all(v > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forecast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
