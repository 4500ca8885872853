import argparse
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from tdtd.cli import CONFIG_SCHEMA, ConfigError, _build_parser, load_config, run
from tdtd.modelio import load_model
from tdtd.pcfg import generate_dataset
from tdtd.treebank import (linearize_brackets, parse_bracketed, read_treebank, to_bracketed,
                           write_treebank)

from conftest import TOY_GRAMMAR


@pytest.fixture()
def grammar_file(tmp_path):
    path = tmp_path / "toy.pcfg"
    path.write_text(TOY_GRAMMAR, encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    status = run([str(a) for a in argv])
    out = capsys.readouterr().out.strip().splitlines()
    summary = out[-1] if out else ""
    return status, summary, out


# ---------------------------------------------------------------------------
# config files


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing\n\n")
    assert load_config(path) == {}


def test_config_values_parsed(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("hidden_size = 32\nlearning_rate = 0.5\nss_enabled = true\n")
    config = load_config(path)
    assert config == {"hidden_size": 32, "learning_rate": 0.5, "ss_enabled": True}


def test_config_bad_value_reports_line(tmp_path):
    path = tmp_path / "b.cfg"
    path.write_text("hidden_size = banana\n")
    with pytest.raises(ConfigError, match=r"b\.cfg:1.*banana"):
        load_config(path)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = 3\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:2.*warp_speed"):
        load_config(path)


def test_config_unresolvable_path_rejected(tmp_path):
    path = tmp_path / "d.cfg"
    path.write_text("data = /nonexistent/file.txt\n")
    with pytest.raises(ConfigError, match="does not resolve"):
        load_config(path)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_deterministic(tmp_path, grammar_file, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        status, summary, _ = _run(
            capsys, "gen-data", "--grammar", grammar_file, "--nodes", 10,
            "--count", 30, "--seed", 7, "--out", out)
        assert status == 0 and summary.endswith("OK")
    assert out1.read_bytes() == out2.read_bytes()
    trees = read_treebank(out1)
    assert len(trees) == 30
    assert all(t.nonterminal_count() == 10 for t in trees)
    assert (tmp_path / "manifest.txt").exists()


def test_gen_data_requires_seed(tmp_path, grammar_file, capsys, monkeypatch):
    monkeypatch.delenv("TDTD_SEED", raising=False)
    status, summary, _ = _run(capsys, "gen-data", "--grammar", grammar_file,
                              "--out", tmp_path / "x.txt")
    assert status == 1 and summary.endswith("FAIL")
    assert "seed" in summary


def test_seed_env_fallback(tmp_path, grammar_file, capsys, monkeypatch):
    monkeypatch.setenv("TDTD_SEED", "11")
    status, summary, _ = _run(capsys, "gen-data", "--grammar", grammar_file,
                              "--count", 5, "--nodes", 8,
                              "--out", tmp_path / "x.txt")
    assert status == 0 and "seed=11" in summary


# ---------------------------------------------------------------------------
# train / generate / score round trip


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliruns")
    grammar = base / "toy.pcfg"
    grammar.write_text(TOY_GRAMMAR, encoding="utf-8")
    data = base / "train.txt"
    status = run(["gen-data", "--grammar", str(grammar), "--nodes", "10",
                  "--count", "40", "--seed", "3", "--out", str(data)])
    assert status == 0
    out = base / "run"
    status = run(["train", "--model", "tdtd", "--data", str(data), "--out",
                  str(out), "--epochs", "1", "--seed", "5",
                  "--hidden-size", "10", "--embed-size", "10"])
    assert status == 0
    return {"base": base, "grammar": grammar, "data": data, "out": out}


def test_train_outputs(trained_run):
    out = trained_run["out"]
    for name in ("final.ckpt", "epoch_0001.ckpt", "report.tsv", "manifest.txt"):
        assert (out / name).exists(), name
    manifest = (out / "manifest.txt").read_text()
    assert "sha256" in manifest and "seed = 5" in manifest


def test_train_determinism_bitwise(trained_run, capsys):
    out2 = trained_run["base"] / "run2"
    status, summary, _ = _run(
        capsys, "train", "--model", "tdtd", "--data", trained_run["data"],
        "--out", out2, "--epochs", 1, "--seed", 5,
        "--hidden-size", 10, "--embed-size", 10)
    assert status == 0
    assert (out2 / "final.ckpt").read_bytes() == (trained_run["out"] / "final.ckpt").read_bytes()
    assert (out2 / "report.tsv").read_bytes() == (trained_run["out"] / "report.tsv").read_bytes()


def test_generate_and_eval_nll(trained_run, capsys):
    samples = trained_run["base"] / "samples.txt"
    status, summary, _ = _run(
        capsys, "generate", "--model-file", trained_run["out"] / "final.ckpt",
        "--count", 25, "--seed", 9, "--out", samples)
    assert status == 0 and "fail_rate=0.0000" in summary
    status, summary, out = _run(
        capsys, "eval-nll", "--grammar", trained_run["grammar"],
        "--data", samples, "--json")
    assert status == 0 and summary.endswith("OK")
    payload = json.loads(out[0])
    assert payload["count"] == 25 and payload["fail_rate"] == 0.0


def test_generate_rejects_count_below_one(trained_run, capsys):
    status, summary, out = _run(
        capsys, "generate", "--model-file", trained_run["out"] / "final.ckpt",
        "--count", 0, "--seed", 9, "--out", trained_run["base"] / "none.txt")
    assert status != 0
    assert out == ["generate error=--count must be >= 1 FAIL"]


def test_score_subcommand(trained_run, capsys):
    scores = trained_run["base"] / "scores.tsv"
    status, summary, _ = _run(
        capsys, "score", "--model-file", trained_run["out"] / "final.ckpt",
        "--data", trained_run["data"], "--out", scores)
    assert status == 0
    lines = scores.read_text().strip().splitlines()
    assert len(lines) == 40
    idx, lp = lines[0].split("\t")
    assert idx == "0" and float(lp) < 0


def test_train_rejects_unknown_model(trained_run, capsys):
    status, summary, _ = _run(
        capsys, "train", "--model", "rnng", "--data", trained_run["data"],
        "--out", trained_run["base"] / "x", "--seed", 1)
    assert status == 2  # argparse rejects the choice


def test_config_file_flag_override(trained_run, capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"data = {trained_run['data']}\nseed = 5\nepochs = 1\n"
        "hidden_size = 10\nembed_size = 10\nmodel = tdtd\n"
    )
    out = tmp_path / "run-cfg"
    status, summary, _ = _run(capsys, "train", "--config", config, "--out", out)
    assert status == 0
    # flag overrides the file value
    out2 = tmp_path / "run-cfg2"
    status, summary, _ = _run(capsys, "train", "--config", config, "--out", out2,
                              "--epochs", 0)
    assert status == 0 and "epochs=0" in summary


# ---------------------------------------------------------------------------
# rerank


def test_rerank_round_trip(tmp_path, capsys, toy_grammar):
    trees = generate_dataset(toy_grammar, 30, 8, seed=21)
    data = tmp_path / "train.txt"
    write_treebank(data, trees)
    out = tmp_path / "prun"
    status = run(["train", "--model", "tdtd-p", "--data", str(data), "--out",
                  str(out), "--epochs", "1", "--seed", "2",
                  "--hidden-size", "8", "--embed-size", "8"])
    assert status == 0
    gold = trees[0]
    other = parse_bracketed(to_bracketed(gold).replace("(NN", "(VB", 1))
    cands = tmp_path / "cands.txt"
    cands.write_text(
        " ".join(gold.terminal_yield()) + "\n"
        + to_bracketed(gold) + "\n" + to_bracketed(other) + "\n",
        encoding="utf-8")
    ranked = tmp_path / "ranked.tsv"
    status, summary, _ = _run(capsys, "rerank",
                              "--model-file", out / "final.ckpt",
                              "--candidates", cands, "--out", ranked)
    assert status == 0
    lines = ranked.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t")[1] == "1" and lines[1].split("\t")[1] == "2"
    assert float(lines[0].split("\t")[2]) >= float(lines[1].split("\t")[2])


def test_rerank_rejects_non_parser_model(trained_run, capsys, tmp_path):
    cands = tmp_path / "cands.txt"
    cands.write_text("the cat\n(S (DT the) (NN cat))\n", encoding="utf-8")
    status, summary, _ = _run(capsys, "rerank",
                              "--model-file", trained_run["out"] / "final.ckpt",
                              "--candidates", cands)
    assert status == 1 and "tdtd-p" in summary


# ---------------------------------------------------------------------------
# metric commands


def test_eval_bleu(tmp_path, capsys):
    cand = tmp_path / "cand.txt"
    ref = tmp_path / "ref.txt"
    cand.write_text("the cat sat\n")
    ref.write_text("the cat sat down\n")
    status, summary, _ = _run(capsys, "eval-bleu", "--candidates", cand,
                              "--references", ref, "--n", 2)
    assert status == 0
    assert "score=0.7165" in summary


def test_eval_f1(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    gold = tmp_path / "gold.txt"
    pred.write_text("(S (NP (DT a)) (VP (NN b) (VB c)))\n")
    gold.write_text("(S (NP (DT a) (NN b)) (VP (VB c)))\n")
    status, summary, _ = _run(capsys, "eval-f1", "--pred", pred, "--gold", gold)
    assert status == 0
    assert "f1=0.333333" in summary


def test_grad_check_all_kinds(capsys):
    for kind in ("tdtd", "tdtd-p", "seq-lm"):
        status, summary, _ = _run(capsys, "grad-check", "--model", kind)
        assert status == 0, summary
        assert summary.endswith("OK") and "max_rel_error" in summary


# ---------------------------------------------------------------------------
# corpus-filter


def test_corpus_filter_defaults_and_split(tmp_path, capsys):
    data = tmp_path / "corpus.txt"
    common = "w" + " w" * 18  # length 19 sentence of one very frequent word
    rare = "rare" + " rare" * 18
    lines = [common] * 200 + [rare] + ["short sentence"]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "filtered"
    status, summary, _ = _run(capsys, "corpus-filter", "--data", data,
                              "--out", out, "--seed", 4)
    assert status == 0
    assert "min_len=17" in summary and "max_len=25" in summary
    assert "freq_threshold=180" in summary
    # the rare-word and short sentences are dropped
    assert "kept=200" in summary
    train_lines = (tmp_path / "filtered.train").read_text().strip().splitlines()
    test_lines = (tmp_path / "filtered.test").read_text().strip().splitlines()
    assert len(train_lines) + len(test_lines) == 200


def test_corpus_filter_explicit_sizes(tmp_path, capsys):
    data = tmp_path / "corpus.txt"
    sent = "a" + " a" * 19
    data.write_text("\n".join([sent] * 50) + "\n")
    status, summary, _ = _run(capsys, "corpus-filter", "--data", data,
                              "--out", tmp_path / "f", "--seed", 1,
                              "--train-size", 30, "--test-size", 10,
                              "--freq-threshold", 2)
    assert status == 0 and "train=30 test=10" in summary


# ---------------------------------------------------------------------------
# harness behavior


def test_threads_flag_validated(capsys):
    status, summary, _ = _run(capsys, "grad-check", "--model", "tdtd",
                              "--threads", 0)
    assert status == 1 and summary.endswith("FAIL")
    status, summary, _ = _run(capsys, "grad-check", "--model", "tdtd",
                              "--threads", 2)
    assert status == 0


def test_exit_status_matches_summary(tmp_path, capsys):
    status, summary, _ = _run(capsys, "eval-nll", "--grammar",
                              tmp_path / "missing.pcfg", "--data", tmp_path / "x")
    assert status == 1 and summary.endswith("FAIL")


# ---------------------------------------------------------------------------
# pinned outputs: a refactor must not move one bit of what `generate` writes


@pytest.mark.parametrize("kind, extra, digest", [
    ("tdtd", ["--curriculum-enabled", "true", "--curriculum-initial-depth", "4",
              "--ss-enabled", "true", "--tf-initial", "0.5", "--tf-anneal-steps", "3"],
     "cd81b3d901169dde3087b97478f21e80177f1872370b9e9be7a52e2ed8f5bf14"),
    ("seq-lm", ["--ss-enabled", "true", "--tf-initial", "0.5", "--tf-anneal-steps", "3"],
     "432c88ec6e4d36c1461da373625f96347ed61cb8c4e96ac64296e6b659255828"),
])
def test_generate_output_pinned(tmp_path, grammar_file, kind, extra, digest):
    data, model_dir, samples = tmp_path / "trees.txt", tmp_path / "m", tmp_path / "s.txt"
    assert run(["gen-data", "--grammar", grammar_file, "--nodes", "8", "--count", "30",
                "--seed", "31", "--out", str(data)]) == 0
    assert run(["train", "--model", kind, "--data", str(data), "--out", str(model_dir),
                "--epochs", "2", "--batch-size", "4", "--seed", "32",
                "--hidden-size", "8", "--embed-size", "8", *extra]) == 0
    assert run(["generate", "--model-file", str(model_dir / "final.ckpt"), "--count", "20",
                "--seed", "33", "--out", str(samples)]) == 0
    assert hashlib.sha256(samples.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the option surface: config keys, flags and manifests


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# the 49 config keys and their value parsers before the option table
CONFIG_KEYS = {
    "int": ("hidden_size embed_size max_depth max_children_per_node max_layer_width "
            "max_length batch_size epochs eval_period curriculum_initial_depth "
            "curriculum_initial_width curriculum_period curriculum_increment "
            "tf_anneal_steps nodes count min_len max_len freq_threshold train_size "
            "test_size bleu_n seed threads"),
    "float": "learning_rate grad_clip dev_fraction tf_initial tf_final prune_threshold penalty",
    "str": ("optimizer tf_schedule start bleu_mode kind grammar data dev_data model_file "
            "candidates references out model"),
    "_boolval": "scaled_attention curriculum_enabled ss_enabled greedy exclude_root",
}

_KINDS = ("tdtd", "tdtd-p", "seq-lm")
_COMMON = [("--config", "config", "str"), ("--run-dir", "run_dir", "str"),
           ("--threads", "threads", "int")]
_SEED = [("--seed", "seed", "int")]
# every flag of every subcommand before the option table: (flag, dest, form)
FLAGS = {
    "gen-data": _COMMON + _SEED + [
        ("--grammar", "grammar", "str"), ("--start", "start", "str"),
        ("--prune-threshold", "prune_threshold", "float"), ("--count", "count", "int"),
        ("--nodes", "nodes", "int"), ("--max-depth", "max_depth", "int"),
        ("--out", "out", "str")],
    "train": _COMMON + _SEED + [
        ("--model", "model", _KINDS), ("--data", "data", "str"),
        ("--dev-data", "dev_data", "str"), ("--out", "out", "str"),
        ("--epochs", "epochs", "int"), ("--batch-size", "batch_size", "int"),
        ("--learning-rate", "learning_rate", "float"),
        ("--optimizer", "optimizer", ("adam", "sgd")),
        ("--hidden-size", "hidden_size", "int"), ("--embed-size", "embed_size", "int"),
        ("--max-depth", "max_depth", "int"), ("--max-length", "max_length", "int"),
        ("--eval-period", "eval_period", "int"),
        ("--curriculum-enabled", "curriculum_enabled", "bool"),
        ("--curriculum-initial-depth", "curriculum_initial_depth", "int"),
        ("--curriculum-initial-width", "curriculum_initial_width", "int"),
        ("--curriculum-period", "curriculum_period", "int"),
        ("--curriculum-increment", "curriculum_increment", "int"),
        ("--ss-enabled", "ss_enabled", "bool"), ("--tf-initial", "tf_initial", "float"),
        ("--tf-final", "tf_final", "float"),
        ("--tf-anneal-steps", "tf_anneal_steps", "int"),
        ("--tf-schedule", "tf_schedule", ("linear", "exponential"))],
    "generate": _COMMON + _SEED + [
        ("--model-file", "model_file", "str"), ("--count", "count", "int"),
        ("--greedy", "greedy", "switch"), ("--out", "out", "str")],
    "score": _COMMON + [
        ("--model-file", "model_file", "str"), ("--data", "data", "str"),
        ("--exclude-root", "exclude_root", "switch"), ("--out", "out", "str")],
    "rerank": _COMMON + [
        ("--model-file", "model_file", "str"), ("--candidates", "candidates", "str"),
        ("--out", "out", "str")],
    "eval-nll": _COMMON + [
        ("--grammar", "grammar", "str"), ("--start", "start", "str"),
        ("--prune-threshold", "prune_threshold", "float"), ("--data", "data", "str"),
        ("--kind", "kind", ("trees", "tokens")), ("--penalty", "penalty", "float"),
        ("--json", "json", "store_true")],
    "eval-bleu": _COMMON + [
        ("--candidates", "candidates", "str"), ("--references", "references", "str"),
        ("--n", "bleu_n", "int"), ("--bleu-mode", "bleu_mode", ("sentence", "corpus")),
        ("--json", "json", "store_true")],
    "eval-f1": _COMMON + [
        ("--pred", "data", "str"), ("--gold", "references", "str"),
        ("--json", "json", "store_true")],
    "grad-check": _COMMON + _SEED + [("--model", "model", _KINDS)],
    "corpus-filter": _COMMON + _SEED + [
        ("--data", "data", "str"), ("--out", "out", "str"), ("--min-len", "min_len", "int"),
        ("--max-len", "max_len", "int"), ("--freq-threshold", "freq_threshold", "int"),
        ("--train-size", "train_size", "int"), ("--test-size", "test_size", "int")],
}

# (arguments after the flag, parsed value) for each form
_SAMPLES = {"str": [(["x.txt"], "x.txt")], "int": [(["3"], 3), (["-2"], -2)],
            "float": [(["0.25"], 0.25)], "bool": [(["yes"], True), (["off"], False)],
            "switch": [([], True)], "store_true": [([], True)]}


def test_option_surface_unchanged():
    assert len(CONFIG_KEYS) == 4 and sum(len(v.split()) for v in CONFIG_KEYS.values()) == 49
    assert {key: parse.__name__ for key, parse in CONFIG_SCHEMA.items()} == {
        key: name for name, keys in CONFIG_KEYS.items() for key in keys.split()}
    assert sum(len(flags) for flags in FLAGS.values()) == 99
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(FLAGS)
    parser = _build_parser()
    for command, flags in FLAGS.items():
        unset = vars(parser.parse_args([command]))
        for flag, dest, form in flags:
            assert unset[dest] is (False if form == "store_true" else None), (command, flag)
            if isinstance(form, tuple):
                samples = [([choice], choice) for choice in form]
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, flag, "bogus"])
                assert exc.value.code == 2
            else:
                samples = _SAMPLES[form]
            for argv, value in samples:
                parsed = vars(parser.parse_args([command, flag, *argv]))
                assert parsed[dest] == value and type(parsed[dest]) is type(value), \
                    (command, flag, argv, parsed[dest])


def test_readme_command_lines_spell_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("tdtd ")]
    assert len(lines) >= 10
    subparsers = _subparsers()
    for line in lines:
        command = line.split()[1]
        assert command in subparsers, line
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line.split("#", 1)[0]):
            assert flag in subparsers[command]._option_string_actions, (command, flag)


def _manifest(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def _option_dests(command):
    actions = _subparsers()[command]._actions
    return {a.dest for a in actions} - {"help", "config", "run_dir", "json"}


def test_manifest_lists_every_option_with_the_value_used(tmp_path, grammar_file, capsys):
    data = tmp_path / "trees.txt"
    status, _, _ = _run(capsys, "gen-data", "--grammar", grammar_file, "--nodes", 8,
                        "--count", 20, "--seed", 3, "--prune-threshold", 0.05,
                        "--start", "S", "--out", data)
    assert status == 0
    manifest = _manifest(tmp_path / "manifest.txt")
    assert manifest.pop("command") == "gen-data"
    assert set(manifest) == _option_dests("gen-data")
    assert manifest["prune_threshold"] == "0.05" and manifest["start"] == "S"
    assert manifest["count"] == "20" and manifest["max_depth"] == "7"
    assert manifest["seed"] == "3" and manifest["grammar"] == grammar_file

    out = tmp_path / "run"
    status, _, _ = _run(capsys, "train", "--model", "tdtd", "--data", data, "--out", out,
                        "--epochs", 2, "--seed", 4, "--hidden-size", 8, "--embed-size", 8,
                        "--ss-enabled", "true", "--tf-initial", 0.5,
                        "--tf-anneal-steps", 3, "--eval-period", 2)
    assert status == 0
    manifest = _manifest(out / "manifest.txt")
    assert manifest.pop("command") == "train"
    assert set(manifest) == _option_dests("train")
    assert manifest["ss_enabled"] == "True" and manifest["tf_initial"] == "0.5"
    assert manifest["tf_anneal_steps"] == "3" and manifest["eval_period"] == "2"
    assert manifest["dev_fraction"] == "0.1" and manifest["learning_rate"] == "0.01"
    assert manifest["curriculum_initial_depth"] == "3" and manifest["tf_final"] == "1.0"
    model = load_model(out / "final.ckpt")
    assert manifest["max_depth"] == str(model.config.max_depth)
    assert manifest["hidden_size"] == "8" and manifest["max_layer_width"] == "64"


def test_tdtd_p_default_sizes(tmp_path, grammar_file, capsys):
    data = tmp_path / "trees.txt"
    assert run(["gen-data", "--grammar", grammar_file, "--nodes", "6", "--count", "4",
                "--seed", "3", "--out", str(data)]) == 0
    for extra, sizes in (([], (128, 128)), (["--hidden-size", "16"], (16, 128))):
        out = tmp_path / f"p{len(extra)}"
        status, _, _ = _run(capsys, "train", "--model", "tdtd-p", "--data", data,
                            "--out", out, "--epochs", 0, "--seed", 1, *extra)
        assert status == 0
        config = load_model(out / "final.ckpt").config
        assert (config.hidden_size, config.embed_size) == sizes


def test_threads_from_config_validated(tmp_path, capsys):
    config = tmp_path / "t.cfg"
    config.write_text("threads = 0\n")
    status, summary, _ = _run(capsys, "grad-check", "--config", config)
    assert status == 1 and summary == "grad-check error=--threads must be >= 1 FAIL"


@pytest.mark.parametrize("flag", ["--train-size", "--test-size"])
def test_corpus_filter_rejects_negative_sizes(tmp_path, capsys, flag):
    data = tmp_path / "corpus.txt"
    data.write_text("\n".join(["a" + " a" * 19] * 50) + "\n")
    status, _, out = _run(capsys, "corpus-filter", "--data", data, "--out", tmp_path / "f",
                          "--seed", 1, "--freq-threshold", 2, flag, -5)
    assert status == 1 and out == [f"corpus-filter error={flag} must be >= 0 FAIL"]
    assert not (tmp_path / "f.train").exists()


# ---------------------------------------------------------------------------
# options a model kind lacks, seq-lm score rows, choices from config files


@pytest.fixture(scope="module")
def seq_lm_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("seqlm")
    grammar = base / "toy.pcfg"
    grammar.write_text(TOY_GRAMMAR, encoding="utf-8")
    data = base / "trees.txt"
    assert run(["gen-data", "--grammar", str(grammar), "--nodes", "6", "--count", "6",
                "--seed", "3", "--out", str(data)]) == 0
    assert run(["train", "--model", "seq-lm", "--data", str(data), "--out", str(base / "lm"),
                "--epochs", "0", "--seed", "1", "--hidden-size", "4",
                "--embed-size", "4"]) == 0
    return {"base": base, "data": data, "model": base / "lm" / "final.ckpt"}


@pytest.mark.parametrize("argv, cause", [
    (["train", "--model", "tdtd", "--max-length", 50], "tdtd models have no option max_length"),
    (["train", "--model", "seq-lm", "--max-depth", 3, "--scaled-attention", "false"],
     "seq-lm models have no option max_depth"),
    (["score", "--exclude-root"], "--exclude-root applies to tree models, not seq-lm"),
], ids=["tdtd-max-length", "seq-lm-max-depth", "seq-lm-exclude-root"])
def test_options_the_model_kind_lacks_fail(seq_lm_run, capsys, argv, cause):
    out = seq_lm_run["base"] / "rejected"
    if argv[0] == "train":
        argv = argv + ["--data", seq_lm_run["data"], "--out", out, "--epochs", 0, "--seed", 1]
    else:
        argv = argv + ["--model-file", seq_lm_run["model"], "--data", seq_lm_run["data"],
                       "--out", out]
    status, _, lines = _run(capsys, *argv)
    assert status == 1 and lines == [f"{argv[0]} error={cause} FAIL"]
    assert not out.exists()


def test_seq_lm_score_rows_count_items(seq_lm_run, capsys):
    base = seq_lm_run["base"]
    sequences = [" ".join(linearize_brackets(t)) for t in read_treebank(seq_lm_run["data"])]
    plain, commented = base / "plain.txt", base / "commented.txt"
    plain.write_text("\n".join(sequences) + "\n", encoding="utf-8")
    commented.write_text("# linearized trees\n\n" + "\n".join(sequences) + "\n",
                         encoding="utf-8")
    scores = {}
    for path in (plain, commented):
        status, summary, lines = _run(capsys, "score", "--model-file", seq_lm_run["model"],
                                      "--data", path)
        assert status == 0 and summary.startswith(f"score kind=seq-lm items={len(sequences)} ")
        scores[path] = lines[:-1]
    assert [line.split("\t")[0] for line in scores[commented]] == \
        [str(i) for i in range(len(sequences))]
    assert scores[commented] == scores[plain]


@pytest.mark.parametrize("command, line", [
    ("train", "model = rnng"),
    ("train", "model = tdtd\noptimizer = rmsprop"),
    ("grad-check", "model = rnng"),
    ("eval-nll", "kind = foo"),
    ("eval-bleu", "bleu_mode = x"),
], ids=["train-model", "train-optimizer", "grad-check-model", "eval-nll-kind",
        "eval-bleu-bleu_mode"])
def test_config_choices_validated(tmp_path, capsys, command, line):
    config = tmp_path / "choice.cfg"
    config.write_text(line + "\n")
    key, value = (part.strip() for part in line.splitlines()[-1].split("="))
    status, summary, lines = _run(capsys, command, "--config", config)
    assert status == 1 and len(lines) == 1
    assert summary.startswith(f"{command} error={key} must be one of ")
    assert summary.endswith(f", got {value!r} FAIL")
