import csv
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import cascadyn.cli as cli
from cascadyn.cli import main
from cascadyn.fitting import FitOptions
from cascadyn.features import read_cascades_jsonl
from cascadyn.predict import read_predictions_jsonl


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run("simulate", "--out", str(out), "--nodes", "300", "--cascades", "150",
               "--seed", "7", "--retweet-scale", "0.6", "--scale-base", "600",
               "--gamma", "0.15,0,0,0,0,0")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run("fit", "--network", str(sim_dir / "network.csv"),
               "--cascades", str(sim_dir / "cascades.jsonl"),
               "--out", str(out), "--model", "newer", "--min-events", "3")
    assert code == 0
    return out


class TestFlagDefaults:
    def test_documented_constants(self):
        from cascadyn.cli import _build_parser

        parser = _build_parser()
        fit_args = parser.parse_args(["fit", "--network", "n", "--cascades", "c",
                                      "--out", "o"])
        assert (fit_args.mu, fit_args.eta) == (10.0, 10.0)
        assert (fit_args.alpha_beta, fit_args.alpha_gamma) == (6e-5, 8e-6)
        assert fit_args.min_size == 5
        pred_args = parser.parse_args(["predict", "--model", "m", "--network", "n",
                                       "--cascades", "c", "--out", "o"])
        assert pred_args.threshold == 1000
        assert pred_args.epsilon == 0.1
        eval_args = parser.parse_args(["evaluate", "--out", "o"])
        assert eval_args.sigma == 0.2


class TestSimulateCommand:
    def test_outputs_exist(self, sim_dir):
        for name in ("network.csv", "cascades.jsonl", "true_params.json",
                     "size_histogram.csv"):
            assert (sim_dir / name).exists()

    def test_byte_identical_reruns(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        assert run("simulate", "--out", str(again), "--nodes", "300",
                   "--cascades", "150", "--seed", "7", "--retweet-scale", "0.6",
                   "--scale-base", "600", "--gamma", "0.15,0,0,0,0,0") == 0
        for name in ("network.csv", "cascades.jsonl", "true_params.json",
                     "size_histogram.csv"):
            assert (sim_dir / name).read_bytes() == (again / name).read_bytes()

    def test_histogram_matches_recount(self, sim_dir):
        cascades = read_cascades_jsonl(sim_dir / "cascades.jsonl")
        counts = {}
        for c in cascades:
            counts[c.size] = counts.get(c.size, 0) + 1
        with open(sim_dir / "size_histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {int(r["size"]): int(r["count"]) for r in rows} == counts

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--nodes", "10")
        assert exc.value.code == 2


class TestFitCommand:
    def test_outputs_exist(self, fit_dir):
        for name in ("model.json", "fit_report.json", "features.csv",
                     "subcascades.jsonl"):
            assert (fit_dir / name).exists()

    def test_objective_trace_nonincreasing(self, fit_dir):
        report = json.loads((fit_dir / "fit_report.json").read_text())
        trace = report["objective_trace"]
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9 * abs(prev)

    def test_exponential_model_has_unit_shapes(self, sim_dir, tmp_path):
        out = tmp_path / "exp"
        assert run("fit", "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out), "--model", "exponential",
                   "--min-events", "3") == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["users"], "no users were fitted"
        assert all(rec["k"] == 1.0 for rec in doc["users"])

    def test_warm_start_not_worse(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "warm"
        assert run("fit", "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out), "--model", "newer", "--min-events", "3",
                   "--warm-start", str(fit_dir / "model.json")) == 0
        cold = json.loads((fit_dir / "fit_report.json").read_text())["objective_trace"][-1]
        warm = json.loads((out / "fit_report.json").read_text())["objective_trace"][-1]
        assert warm <= cold * (1 + 1e-9)

    def test_capped_lasso_solves_reported(self, sim_dir, fit_dir, tmp_path, monkeypatch,
                                          capsys):
        assert json.loads((fit_dir / "fit_report.json").read_text())["lasso_capped"] == 0
        monkeypatch.setattr(cli, "FitOptions", partial(FitOptions, lasso_max_iter=1))
        out = tmp_path / "capped"
        assert run("fit", "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out), "--model", "newer", "--min-events", "3") == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert 0 < report["lasso_capped"] <= 2 * report["iterations"]
        assert (f"{report['lasso_capped']} LASSO solves stopped at the 1-step cap"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("model", ["exponential", "rayleigh", "cox"])
    def test_warm_start_a_fit_ignores_is_refused(self, tmp_path, capsys, model):
        # refused before any input is read: none of these files exists
        missing = tmp_path / "missing"
        assert run("fit", "--network", str(missing), "--cascades", str(missing),
                   "--out", str(tmp_path / "o"), "--model", model,
                   "--warm-start", str(missing)) == 1
        assert f"error: a {model} fit takes no warm start" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--max-iter", "0", "max_outer"), ("--tol", "nan", "tol"), ("--tol", "-1", "tol"),
        ("--min-events", "-1", "min_events")])
    def test_out_of_range_option_refused(self, sim_dir, tmp_path, capsys, flag, value, field):
        out = tmp_path / "refused"
        assert run("fit", "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out), flag, value) == 1
        assert not (out / "model.json").exists()
        assert f"error: {field} must be" in capsys.readouterr().err

    def test_bad_input_is_data_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert run("fit", "--network", str(missing),
                   "--cascades", str(missing), "--out", str(tmp_path / "o")) == 1


class TestPredictCommand:
    def test_te_now_reproduces_observed_sizes(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "pred_now.jsonl"
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--features", str(fit_dir / "features.csv"),
                   "--out", str(out), "--task", "size", "--te", "now",
                   "--observe-frac", "0.5") == 0
        preds = read_predictions_jsonl(out)
        truth = {c.cascade_id: c for c in read_cascades_jsonl(sim_dir / "cascades.jsonl")}
        assert preds
        for rec in preds:
            observed = truth[rec["cascade"]].size_at(rec["t_limit"])
            assert rec["final"] == pytest.approx(float(observed), rel=1e-12)

    def test_sampling_within_epsilon_of_basic(self, sim_dir, fit_dir, tmp_path):
        kwargs = ["--model", str(fit_dir / "model.json"),
                  "--network", str(sim_dir / "network.csv"),
                  "--cascades", str(sim_dir / "cascades.jsonl"),
                  "--features", str(fit_dir / "features.csv"),
                  "--observe-frac", "0.5", "--task", "size"]
        basic_out = tmp_path / "basic.jsonl"
        sampling_out = tmp_path / "sampling.jsonl"
        assert run("predict", *kwargs, "--out", str(basic_out), "--mode", "basic") == 0
        assert run("predict", *kwargs, "--out", str(sampling_out),
                   "--mode", "sampling", "--epsilon", "0.1") == 0
        basic = {r["cascade"]: r["final"] for r in read_predictions_jsonl(basic_out)}
        sampling = {r["cascade"]: r["final"] for r in read_predictions_jsonl(sampling_out)}
        for cid, b in basic.items():
            ratio = sampling[cid] / b
            assert 1.0 / 1.1 <= ratio <= 1.1

    @pytest.mark.parametrize("te", ["now", "10"])
    def test_sampling_refuses_a_finite_horizon(self, tmp_path, capsys, te):
        # refused before any input is read: none of these files exists
        missing = tmp_path / "missing"
        assert run("predict", "--model", str(missing), "--network", str(missing),
                   "--cascades", str(missing), "--out", str(tmp_path / "p.jsonl"),
                   "--mode", "sampling", "--te", te) == 1
        err = capsys.readouterr().err
        assert f"--te {te}" in err and "--mode sampling" in err
        assert not (tmp_path / "p.jsonl").exists()

    def test_saved_model_predicts_identically(self, sim_dir, fit_dir, tmp_path):
        # loading the model file and predicting must equal predicting again:
        # rerun the same command and compare bytes
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        args = ["predict", "--model", str(fit_dir / "model.json"),
                "--network", str(sim_dir / "network.csv"),
                "--cascades", str(sim_dir / "cascades.jsonl"),
                "--features", str(fit_dir / "features.csv"),
                "--task", "all", "--observe-frac", "0.4", "--threshold", "50"]
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_conflicting_observation_flags_rejected(self, sim_dir, fit_dir, tmp_path):
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--out", str(tmp_path / "x.jsonl"),
                   "--observe-frac", "0.5", "--observe-count", "3") == 1

    def test_bad_user_record_names_model_file_and_user(self, sim_dir, fit_dir, tmp_path,
                                                       capsys):
        doc = json.loads((fit_dir / "model.json").read_text(encoding="utf-8"))
        doc["users"][0]["lambda"] = float("inf")
        user = doc["users"][0]["id"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")  # writes Infinity
        assert run("predict", "--model", str(model),
                   "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--out", str(tmp_path / "x.jsonl")) == 1
        err = capsys.readouterr().err
        assert str(model) in err and repr(user) in err and "got inf" in err

    def test_swapped_feature_columns_rejected(self, sim_dir, fit_dir, tmp_path):
        with open(fit_dir / "features.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        swapped = tmp_path / "swapped.csv"
        with open(swapped, "w", newline="") as fh:
            csv.writer(fh).writerows([r[0], r[2], r[1], *r[3:]] for r in rows)
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--features", str(swapped),
                   "--out", str(tmp_path / "x.jsonl")) == 1


class TestEvaluateCommand:
    def test_perfect_predictions_score_zero(self, sim_dir, tmp_path):
        cascades = read_cascades_jsonl(sim_dir / "cascades.jsonl")
        pred_path = tmp_path / "perfect.jsonl"
        with open(pred_path, "w") as fh:
            for c in cascades:
                fh.write(json.dumps({"cascade": c.cascade_id, "t_limit": c.root.t,
                                     "final": float(c.size), "outbreak_t": None,
                                     "curve": []}) + "\n")
        out = tmp_path / "report"
        assert run("evaluate", "--pred", str(pred_path),
                   "--truth", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out)) == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        size_row = next(r for r in rows if r["task"] == "size")
        assert float(size_row["rmsle"]) == 0.0
        assert float(size_row["precision"]) == 1.0

    def test_nan_prediction_rejected(self, sim_dir, tmp_path):
        cascade = read_cascades_jsonl(sim_dir / "cascades.jsonl")[0]
        pred_path = tmp_path / "nan.jsonl"
        pred_path.write_text(json.dumps({"cascade": cascade.cascade_id,
                                         "t_limit": cascade.root.t,
                                         "final": float("nan")}) + "\n")
        out = tmp_path / "report"
        assert run("evaluate", "--pred", str(pred_path),
                   "--truth", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out)) == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("curve", ["[[NaN, 1.0], [Infinity, 2.0]]", "[[1.0, -Infinity]]",
                                       "[[1.0, 1e999]]"])
    def test_non_finite_curve_point_rejected(self, sim_dir, tmp_path, capsys, curve):
        cascade = read_cascades_jsonl(sim_dir / "cascades.jsonl")[0]
        pred_path = tmp_path / "inf.jsonl"
        pred_path.write_text(f'{{"cascade": {json.dumps(cascade.cascade_id)}, '
                             f'"t_limit": {cascade.root.t!r}, "final": 3.0, '
                             f'"outbreak_t": null, "curve": {curve}}}\n')
        out = tmp_path / "report"
        assert run("evaluate", "--pred", str(pred_path),
                   "--truth", str(sim_dir / "cascades.jsonl"),
                   "--out", str(out)) == 1
        assert f"{pred_path}:1: bad prediction record: non-finite number" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_protocol_mode_writes_report(self, sim_dir, tmp_path):
        out = tmp_path / "proto"
        assert run("evaluate", "--protocol", "size",
                   "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--models", "weibull,exponential",
                   "--folds", "2", "--prefix-sizes", "5",
                   "--out", str(out)) == 0
        assert (out / "size_results.csv").exists()
        assert (out / "size_summary.json").exists()

    def test_needs_pred_and_truth(self, tmp_path):
        assert run("evaluate", "--out", str(tmp_path / "r")) == 1

    def test_end_to_end_report_determinism(self, sim_dir, fit_dir, tmp_path):
        pred = tmp_path / "p.jsonl"
        assert run("predict", "--model", str(fit_dir / "model.json"),
                   "--network", str(sim_dir / "network.csv"),
                   "--cascades", str(sim_dir / "cascades.jsonl"),
                   "--features", str(fit_dir / "features.csv"),
                   "--out", str(pred), "--observe-frac", "0.5") == 0
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run("evaluate", "--pred", str(pred),
                       "--truth", str(sim_dir / "cascades.jsonl"),
                       "--out", str(d)) == 0
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


# Runs ``predict --task all`` and the process protocol into OUT; with SHUFFLE
# set it first interns the network's names, and some names no input has, in
# a shuffled order, so every user id differs from those of a plain run.
_ID_RUN = """
import random, sys
from pathlib import Path
from cascadyn.cli import main
from cascadyn.evaluate import run_experiment
from cascadyn.features import read_cascades_jsonl, read_network_csv
from cascadyn.userids import intern

sim, fit, out, shuffle = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
net = read_network_csv(sim / "network.csv")
if shuffle == "1":
    names = net.nodes + [f"zz{i}" for i in range(40)]
    random.Random(11).shuffle(names)
    intern(names)
assert main(["predict", "--model", str(fit / "model.json"), "--network", str(sim / "network.csv"),
             "--cascades", str(sim / "cascades.jsonl"), "--out", str(out / "pred.jsonl"),
             "--task", "all", "--observe-frac", "0.4", "--threshold", "20"]) == 0
cascades = [c for c in read_cascades_jsonl(sim / "cascades.jsonl") if c.size >= 5]
run_experiment("process", cascades, net, models=("newer", "weibull"), folds=2,
               early_fractions=(0.3, 0.6), grid_points=6).write(out / "process")
"""


def test_user_ids_never_reach_an_output(sim_dir, fit_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    outputs = []
    for shuffle in ("0", "1"):
        out = tmp_path / f"shuffle{shuffle}"
        out.mkdir()
        subprocess.run([sys.executable, "-c", _ID_RUN, str(sim_dir), str(fit_dir), str(out),
                        shuffle], env=env, check=True, timeout=300)
        outputs.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(outputs[0]) == 3  # the predictions and the protocol's two reports
    assert outputs[0] == outputs[1]
