import json
import os

import numpy as np
import pytest

from tdtd.cli import ConfigError, load_config, run
from tdtd.pcfg import generate_dataset
from tdtd.treebank import parse_bracketed, read_treebank, to_bracketed, write_treebank

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
