"""Every file the pipeline writes reads back to what was written, bit for
bit, on a simulated world rather than hand-made records."""

import numpy as np
import pytest

from cascadyn.features import (
    extract_features,
    extract_subcascades,
    read_features_csv,
    write_features_csv,
)
from cascadyn.fitting import (
    FitOptions,
    NewerModel,
    fit_model,
    read_subcascades_jsonl,
    write_subcascades_jsonl,
)
from cascadyn.predict import (
    BasicPredictor,
    ModelDynamics,
    PartialCascade,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from worlds import sim_world


def test_subcascades_written_from_a_table(tmp_path):
    _, cascades = sim_world()
    table = extract_subcascades(cascades)
    path = tmp_path / "subcascades.jsonl"
    write_subcascades_jsonl(path, table)
    loaded = read_subcascades_jsonl(path)
    assert list(loaded) == list(table)
    for user, sample in loaded.items():
        assert sample.delays.tobytes() == table[user].delays.tobytes()
    # a table and the dict read back write the same file
    again = tmp_path / "again.jsonl"
    write_subcascades_jsonl(again, loaded)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ["newer", "weibull", "exponential", "rayleigh", "cox"])
def test_model_save_and_load(tmp_path, kind):
    net, cascades = sim_world()
    X = extract_features(net, cascades)
    model, _ = fit_model(kind, extract_subcascades(cascades), X,
                         options=FitOptions(min_events=3, max_outer=20))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NewerModel.load(path)
    assert loaded.kind == model.kind
    assert loaded.feature_names == model.feature_names
    assert loaded.hyperparams == model.hyperparams
    assert loaded.beta.tobytes() == model.beta.tobytes()
    assert loaded.gamma.tobytes() == model.gamma.tobytes()
    assert list(loaded.user_params.items()) == list(model.user_params.items())
    assert loaded.user_events == model.user_events


def test_features_csv(tmp_path):
    net, cascades = sim_world()
    features = extract_features(net, cascades)
    path = tmp_path / "features.csv"
    write_features_csv(path, features)
    loaded = read_features_csv(path)
    assert loaded.users == features.users
    assert loaded.names == features.names
    assert loaded.values.tobytes() == features.values.tobytes()


def test_predictions_jsonl(tmp_path):
    net, cascades = sim_world()
    X = extract_features(net, cascades)
    model, _ = fit_model("newer", extract_subcascades(cascades), X,
                         options=FitOptions(min_events=3, max_outer=20))
    dynamics = ModelDynamics(model, X)
    records = []
    for cascade in cascades:
        t0, t_end = cascade.root.t, cascade.events[-1].t
        pc = PartialCascade.from_cascade(cascade, t0 + 0.3 * (t_end - t0), net.n_nodes)
        predictor = BasicPredictor(pc, dynamics)
        grid = np.linspace(pc.t_limit, t_end, 5).tolist()
        curve = predictor.process_curve(grid)
        records.append({"cascade": cascade.cascade_id, "t_limit": pc.t_limit,
                        "final": predictor.final_size(),
                        "outbreak_t": predictor.outbreak_time(cascade.size),
                        "curve": [list(p) for p in zip(curve.times, curve.sizes)]})
    path = tmp_path / "predictions.jsonl"
    write_predictions_jsonl(path, records)
    assert read_predictions_jsonl(path) == records
    assert any(r["outbreak_t"] is not None for r in records)
