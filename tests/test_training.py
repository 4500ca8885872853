import math

import numpy as np
import pytest

from tdtd import autodiff as ad
from tdtd.pcfg import generate_dataset
from tdtd.training import (TrainConfig, TrainingError, build_model_config,
                           curriculum_filter, teacher_forcing_prob, train)
from tdtd.treebank import parse_bracketed
from tdtd.modelio import save_model


def _curriculum_config(**overrides):
    params = dict(seed=0, curriculum_enabled=True, curriculum_initial_depth=3,
                  curriculum_initial_width=8, curriculum_period=1,
                  curriculum_increment=1)
    params.update(overrides)
    return TrainConfig(**params)


@pytest.fixture(scope="module")
def small_dataset(toy_grammar):
    # unconstrained samples cover a spread of depths and widths
    rng = np.random.default_rng(100)
    from tdtd.pcfg import sample_tree
    return [sample_tree(toy_grammar, rng=rng) for _ in range(60)]


# ---------------------------------------------------------------------------
# curriculum


def test_curriculum_initial_epoch_filters_depth(small_dataset):
    config = _curriculum_config()
    subset = curriculum_filter(small_dataset, 0, config)
    assert subset
    assert all(t.depth() <= 3 for t in subset)
    assert any(t.depth() > 3 for t in small_dataset) or len(subset) == len(small_dataset)


def test_curriculum_identity_when_caps_exceed_maxima(small_dataset):
    config = _curriculum_config(curriculum_initial_depth=99,
                                curriculum_initial_width=99)
    assert curriculum_filter(small_dataset, 0, config) == list(small_dataset)
    disabled = TrainConfig(seed=0)
    assert curriculum_filter(small_dataset, 0, disabled) == list(small_dataset)


def test_curriculum_subsets_monotone_in_epoch(small_dataset):
    config = _curriculum_config()
    sizes = [len(curriculum_filter(small_dataset, e, config)) for e in range(8)]
    assert sizes == sorted(sizes)
    for e in range(7):
        early = curriculum_filter(small_dataset, e, config)
        late = curriculum_filter(small_dataset, e + 1, config)
        ids_late = {id(t) for t in late}
        assert all(id(t) in ids_late for t in early)


def test_curriculum_empty_epoch_zero_raises(small_dataset):
    config = _curriculum_config(curriculum_initial_depth=0,
                                curriculum_initial_width=0)
    with pytest.raises(TrainingError, match="initial caps"):
        curriculum_filter(small_dataset, 0, config)


def test_curriculum_period_controls_relaxation(small_dataset):
    config = _curriculum_config(curriculum_period=2)
    a = curriculum_filter(small_dataset, 0, config)
    b = curriculum_filter(small_dataset, 1, config)
    assert [id(t) for t in a] == [id(t) for t in b]  # same caps within a period


# ---------------------------------------------------------------------------
# teacher-forcing schedule


def test_tf_prob_fixtures():
    config = TrainConfig(seed=0, tf_initial=1.0, tf_final=0.5, tf_anneal_steps=1000)
    assert teacher_forcing_prob(0, config) == 1.0
    assert teacher_forcing_prob(500, config) == pytest.approx(0.75, abs=1e-12)
    assert teacher_forcing_prob(1000, config) == 0.5
    assert teacher_forcing_prob(5000, config) == 0.5


def test_tf_prob_exponential():
    config = TrainConfig(seed=0, tf_initial=1.0, tf_final=0.25,
                         tf_anneal_steps=100, tf_schedule="exponential")
    assert teacher_forcing_prob(0, config) == 1.0
    assert teacher_forcing_prob(50, config) == pytest.approx(0.5, abs=1e-12)
    assert teacher_forcing_prob(100, config) == pytest.approx(0.25, abs=1e-12)


def test_tf_prob_rejects_negative_step():
    with pytest.raises(TrainingError):
        teacher_forcing_prob(-1, TrainConfig(seed=0))


def test_config_invariants():
    with pytest.raises(TrainingError):
        TrainConfig(seed=0, tf_initial=1.5)
    with pytest.raises(TrainingError):
        TrainConfig(seed=0, tf_anneal_steps=0)
    with pytest.raises(TrainingError):
        TrainConfig(seed=0, curriculum_increment=-1)
    with pytest.raises(TrainingError):
        TrainConfig(seed=0, optimizer="sgdm")


# ---------------------------------------------------------------------------
# the loop


def _small_overrides():
    return {"hidden_size": 10, "embed_size": 10}


def test_epochs_zero_reports_initial_dev_only(small_dataset):
    config = TrainConfig(seed=1, epochs=0)
    result = train("tdtd", small_dataset, config, model_overrides=_small_overrides())
    assert len(result.report.rows) == 1
    row = result.report.rows[0]
    assert row.epoch == 0 and math.isnan(row.train_nll)
    assert math.isfinite(row.dev_nll)


def test_empty_dataset_rejected():
    with pytest.raises(TrainingError, match="empty"):
        train("tdtd", [], TrainConfig(seed=0))


def test_unknown_kind_rejected(small_dataset):
    with pytest.raises(TrainingError, match="kind"):
        train("lstm", small_dataset, TrainConfig(seed=0))


def test_non_finite_gradient_norm_stops_before_the_step(small_dataset, monkeypatch):
    real_backward = ad.backward
    seen = {}

    def backward_with_nan(loss, store=None):
        real_backward(loss, store)
        name, tensor = next(iter(store.items()))
        tensor.grad[...] = np.nan
        seen["name"] = name
        seen["values"] = {n: t.values.copy() for n, t in store.items()}
        seen["store"] = store

    monkeypatch.setattr(ad, "backward", backward_with_nan)
    with pytest.raises(TrainingError,
                       match=r"non-finite gradient norm at epoch 1, batch 0 \(max \|grad\| nan") as exc:
        train("tdtd", small_dataset, TrainConfig(seed=4, epochs=1),
              model_overrides=_small_overrides())
    assert f"in {seen['name']!r})" in str(exc.value)
    # the optimizer never ran on the NaN gradient
    for name, t in seen["store"].items():
        assert np.array_equal(t.values, seen["values"][name]), name


def _checkpoint_bytes(model):
    return ad.format_params(model.store)


def test_training_deterministic_across_runs(small_dataset, tmp_path):
    config = TrainConfig(seed=7, epochs=2, batch_size=8)
    kwargs = dict(model_overrides=_small_overrides())
    a = train("tdtd", small_dataset, config, **kwargs)
    b = train("tdtd", small_dataset, config, **kwargs)
    assert _checkpoint_bytes(a.model) == _checkpoint_bytes(b.model)
    assert a.report.to_tsv() == b.report.to_tsv()


def test_scheduled_sampling_at_full_teacher_forcing_is_identity(small_dataset):
    base = TrainConfig(seed=5, epochs=2, batch_size=8, ss_enabled=False)
    ss = TrainConfig(seed=5, epochs=2, batch_size=8, ss_enabled=True,
                     tf_initial=1.0, tf_final=1.0)
    kwargs = dict(model_overrides=_small_overrides())
    a = train("tdtd", small_dataset, base, **kwargs)
    b = train("tdtd", small_dataset, ss, **kwargs)
    assert _checkpoint_bytes(a.model) == _checkpoint_bytes(b.model)
    assert [r.train_nll for r in a.report.rows] == [r.train_nll for r in b.report.rows]


def test_scheduled_sampling_below_one_changes_trajectory(small_dataset):
    base = TrainConfig(seed=5, epochs=1, batch_size=8, ss_enabled=False)
    ss = TrainConfig(seed=5, epochs=1, batch_size=8, ss_enabled=True,
                     tf_initial=0.0, tf_final=0.0)
    kwargs = dict(model_overrides=_small_overrides())
    a = train("tdtd", small_dataset, base, **kwargs)
    b = train("tdtd", small_dataset, ss, **kwargs)
    assert _checkpoint_bytes(a.model) != _checkpoint_bytes(b.model)


def test_dev_nll_decreases_over_first_epochs(toy_grammar):
    # training-smoke property: 5 epochs on the tiny grammar reduce held-out NLL
    trees = generate_dataset(toy_grammar, 120, 10, seed=55)
    config = TrainConfig(seed=9, epochs=5, batch_size=16)
    result = train("tdtd", trees, config, model_overrides=_small_overrides())
    first = result.report.rows[0].dev_nll
    last = result.report.rows[-1].dev_nll
    assert last < first


def test_all_kinds_train_and_checkpoint(small_dataset, tmp_path):
    for kind in ("tdtd", "tdtd-p", "seq-lm"):
        out = tmp_path / kind
        config = TrainConfig(seed=2, epochs=1, batch_size=16)
        result = train(kind, small_dataset, config,
                       model_overrides=_small_overrides(), checkpoint_dir=str(out))
        assert (out / "final.ckpt").exists()
        assert (out / "epoch_0001.ckpt").exists()
        assert (out / "report.tsv").exists()
        text = (out / "report.tsv").read_text()
        assert "epoch\ttrain_nll\tdev_nll" in text
        assert math.isfinite(result.report.final_dev_nll())


def test_explicit_dev_set_is_used(small_dataset):
    dev = [parse_bracketed("(S (VP (VB runs)))")]
    config = TrainConfig(seed=3, epochs=1)
    result = train("tdtd", small_dataset, config, dev=dev,
                   model_overrides=_small_overrides())
    assert math.isfinite(result.report.rows[0].dev_nll)


def test_report_tsv_shape(small_dataset):
    config = TrainConfig(seed=4, epochs=2, curriculum_enabled=True,
                         curriculum_initial_depth=4, curriculum_initial_width=10)
    result = train("tdtd", small_dataset, config, model_overrides=_small_overrides())
    lines = result.report.to_tsv().strip().splitlines()
    assert lines[0].split("\t") == ["epoch", "train_nll", "dev_nll", "tf_prob",
                                    "curriculum_depth_cap", "curriculum_width_cap"]
    assert len(lines) == 4  # header + init + 2 epochs
    last = lines[-1].split("\t")
    assert last[0] == "2" and last[4] == "5"  # caps relaxed once


def test_build_model_config_vocabulary_order(small_dataset):
    config = build_model_config("tdtd", small_dataset)
    assert config.terminals[0] == "<unk>"
    counts = {}
    for t in small_dataset:
        for n in t.nodes:
            if not n.terminal:
                counts[n.label] = counts.get(n.label, 0) + 1
    freqs = [counts[s] for s in config.nonterminals]
    assert freqs == sorted(freqs, reverse=True)
    seq_config = build_model_config("seq-lm", small_dataset)
    assert seq_config.tokens[:2] == ("<bos>", "<eos>")
