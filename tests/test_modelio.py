import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdtd.autodiff import CheckpointError
from tdtd.decoder import TdtdConfig, TdtdModel, generate, tree_log_prob
from tdtd.modelio import ModelIoError, load_model, save_model
from tdtd.parser import TdtdParserModel, conditional_tree_log_prob
from tdtd.seqlm import SeqLmConfig, SeqLmModel, sequence_log_prob
from tdtd.treebank import parse_bracketed

from conftest import tiny_config

FIVE_NODE = "(S (NP (DT the) (NN cat)) (VB sat))"


def _assert_same_params(a, b):
    assert a.store.names() == b.store.names()
    for name, t in a.store.items():
        assert np.array_equal(t.values, b.store[name].values), name


def test_tdtd_round_trip(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(tiny_model, path)
    text = path.read_text()
    assert text.splitlines()[0] == "TDTD-MODEL v2"
    assert "kind=tdtd" in text
    assert "[nonterminals]" in text and "[terminals]" in text
    assert "TDTD-CKPT v2" in text
    loaded = load_model(path)
    assert loaded.kind == "tdtd"
    assert loaded.config == tiny_model.config
    _assert_same_params(tiny_model, loaded)
    tree = parse_bracketed(FIVE_NODE)
    assert tree_log_prob(loaded, tree).item() == tree_log_prob(tiny_model, tree).item()


def test_parser_round_trip(tmp_path):
    model = TdtdParserModel(tiny_config(), rng=np.random.default_rng(3))
    path = tmp_path / "parser.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, TdtdParserModel) and loaded.kind == "tdtd-p"
    _assert_same_params(model, loaded)
    tree = parse_bracketed(FIVE_NODE)
    sent = ["the", "cat", "sat"]
    assert (conditional_tree_log_prob(loaded, tree, sent).item()
            == conditional_tree_log_prob(model, tree, sent).item())


def test_seqlm_round_trip(tmp_path):
    config = SeqLmConfig(tokens=("<bos>", "<eos>", "(S", ")", "a"),
                         hidden_size=5, embed_size=5, max_length=17)
    model = SeqLmModel(config, rng=np.random.default_rng(4))
    path = tmp_path / "lm.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == "seq-lm"
    assert loaded.config == config
    _assert_same_params(model, loaded)
    seq = ["(S", "a", ")"]
    assert sequence_log_prob(loaded, seq).item() == sequence_log_prob(model, seq).item()


def test_loaded_model_generates_identically(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(tiny_model, path)
    loaded = load_model(path)
    a = generate(tiny_model, rng=np.random.default_rng(5))
    b = generate(loaded, rng=np.random.default_rng(5))
    assert a == b


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("MODEL v9\n")
    with pytest.raises(ModelIoError, match="line 1"):
        load_model(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("TDTD-MODEL v1\nkind=transformer\n")
    with pytest.raises(ModelIoError, match="kind"):
        load_model(path)


def test_missing_config_field_rejected(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(tiny_model, path)
    text = path.read_text().replace("max_depth=4\n", "")
    path.write_text(text)
    with pytest.raises(ModelIoError, match="max_depth"):
        load_model(path)


def test_tampered_params_rejected(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(tiny_model, path)
    lines = path.read_text().splitlines()
    # drop the first tensor's header line inside [params]
    idx = lines.index("TDTD-CKPT v2") + 1
    del lines[idx]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception):
        load_model(path)


def _model_bits(model):
    return {name: t.values.tobytes() for name, t in model.store.items()}


def test_bracket_symbols_round_trip(tmp_path):
    # a v1 listing ended at the first line starting with "[", so these
    # terminals made a model that saved but did not load
    config = tiny_config(terminals=("<unk>", "[", "[params]", "[terminals]", "cat"))
    model = TdtdModel(config, rng=np.random.default_rng(6))
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    assert "[terminals] 5\n" in path.read_text()
    loaded = load_model(path)
    assert loaded.config == config
    assert _model_bits(loaded) == _model_bits(model)


# a seq-lm model file as written before counted listings and base64 values
V1_MODEL = """\
TDTD-MODEL v1
kind=seq-lm
hidden_size=1
embed_size=1
max_length=9
[tokens]
<bos>
<eos>
(S
)
a
[params]
TDTD-CKPT v1
emb 2 5 1
0.27392337464290861 -0.46042657247225938 -0.91805295212761062 -0.96694472894294181 0.62654047840054483
rnn.wg 2 2 2
0.5837245353312901 0.15080576032412199 0.32455714906155458 0.06169505458881154
rnn.bg 1 2
0 0
rnn.wc 2 2 1
0.61528532233519651 0.44668437996241511
rnn.bc 1 1
0
rnn_init 1 1
0
w_out 2 1 5
-0.99452299965970381 0.71480855317513869 -0.93282884938907129 0.45931089285988813 -0.64868875879488197
b_out 1 5
0 0 0 0 0
"""


def test_v1_model_file_still_loads(tmp_path):
    path = tmp_path / "old.model"
    path.write_text(V1_MODEL)
    loaded = load_model(path)
    assert loaded.config == SeqLmConfig(tokens=("<bos>", "<eos>", "(S", ")", "a"),
                                        hidden_size=1, embed_size=1, max_length=9)
    values = {name: t.values for name, t in loaded.store.items()}
    assert np.array_equal(values["emb"][:, 0], [0.27392337464290861, -0.46042657247225938,
                                                 -0.91805295212761062, -0.96694472894294181,
                                                 0.62654047840054483])
    assert np.array_equal(values["rnn.wg"], [[0.5837245353312901, 0.15080576032412199],
                                             [0.32455714906155458, 0.06169505458881154]])
    assert np.array_equal(values["rnn.wc"][:, 0], [0.61528532233519651, 0.44668437996241511])
    assert np.array_equal(values["w_out"][0], [-0.99452299965970381, 0.71480855317513869,
                                               -0.93282884938907129, 0.45931089285988813,
                                               -0.64868875879488197])
    for name in ("rnn.bg", "rnn.bc", "rnn_init", "b_out"):
        assert not values[name].any(), name


SHIPPED_V1_MODEL = Path(__file__).resolve().parents[1] / "benchmark" / "models" / "tdtd_h32.model"


def test_shipped_v1_model_loads_to_the_same_bytes():
    # sha256 of the concatenated parameter bytes that the v1-only reader gave
    model = load_model(SHIPPED_V1_MODEL)
    digest = hashlib.sha256(b"".join(_model_bits(model).values())).hexdigest()
    assert digest == "ce58ea378c737d6516faf563ae0018f2f8e71e3a90bad2b1381ed1cafd57e3b3"


# non-empty symbols without whitespace (str.splitlines only splits on
# whitespace), surrogates excluded so they encode as UTF-8
_SYMBOL = st.one_of(
    st.sampled_from(["[", "]", "[params]", "[tokens]", "[terminals]", "end", "#", "=", "(S", ")"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
        lambda s: not any(c.isspace() for c in s)),
)
_RESERVED = {"<stop>", "<lstart>", "<bos>", "<eos>"}
# -0.0, subnormals, +-inf and NaN payloads among arbitrary bit patterns
_SPECIAL_BITS = np.array([0x8000000000000000, 0x0000000000000001, 0x7FF0000000000000,
                          0xFFF0000000000000, 0x7FF0000000000001, 0xFFF8000000000ABC],
                         dtype=np.uint64)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["tdtd", "tdtd-p", "seq-lm"]),
       symbols=st.lists(_SYMBOL.filter(lambda s: s not in _RESERVED), min_size=2,
                        max_size=8, unique=True),
       split=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_save_load_round_trip_bit_exact(tmp_path_factory, kind, symbols, split, seed):
    rng = np.random.default_rng(seed)
    split = min(split, len(symbols) - 1)
    if kind == "seq-lm":
        config = SeqLmConfig(tokens=("<bos>", "<eos>") + tuple(symbols), hidden_size=2,
                             embed_size=3, max_length=5)
        model = SeqLmModel(config, rng=rng)
    else:
        config = TdtdConfig(nonterminals=tuple(symbols[:split]),
                            terminals=tuple(symbols[split:]), hidden_size=2, embed_size=3,
                            max_depth=3, max_children_per_node=2, max_layer_width=4)
        model = (TdtdParserModel if kind == "tdtd-p" else TdtdModel)(config, rng=rng)
    for _, t in model.store.items():
        bits = rng.integers(0, 2**64, size=t.values.shape, dtype=np.uint64)
        specials = rng.random(t.values.shape) < 0.3
        bits[specials] = rng.choice(_SPECIAL_BITS, size=int(specials.sum()))
        t.values[...] = bits.view(np.float64)
    path = tmp_path_factory.mktemp("rt") / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == kind and loaded.config == config
    assert _model_bits(loaded) == _model_bits(model)


def _saved_lines(tmp_path):
    model = TdtdParserModel(tiny_config(), rng=np.random.default_rng(8))
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    return path, path.read_text().splitlines()


def test_model_cut_at_every_line_boundary_rejected(tmp_path):
    path, lines = _saved_lines(tmp_path)
    for k in range(len(lines)):
        path.write_text("".join(line + "\n" for line in lines[:k]))
        with pytest.raises((CheckpointError, ModelIoError)):
            load_model(path)


def test_bad_symbol_count_rejected(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(tiny_model, path)
    text = path.read_text()
    for bad in ("[terminals] -4", "[terminals] x", "[terminals]"):
        path.write_text(text.replace("[terminals] 4", bad))
        with pytest.raises(ModelIoError, match=r"line \d+: (bad symbol count|expected \[terminals\] <count>)"):
            load_model(path)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_model_corrupt_base64_char_rejected(tmp_path_factory, data):
    path, lines = _saved_lines(tmp_path_factory.mktemp("corrupt"))
    start = lines.index("TDTD-CKPT v2") + 2
    row = data.draw(st.sampled_from(range(start, len(lines) - 1, 2)))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    char = data.draw(st.sampled_from(list("*!.-_ #\x00é")))
    lines[row] = lines[row][:col] + char + lines[row][col + 1 :]
    path.write_text("\n".join(lines) + "\n")
    # the line number counts from the start of the model file
    with pytest.raises(CheckpointError, match=rf"^line {row + 1}: bad base64 in tensor "):
        load_model(path)


def test_v1_model_fault_names_the_file_line(tmp_path):
    path = tmp_path / "old.model"
    lines = V1_MODEL.splitlines()
    row = lines.index("rnn.bg 1 2") + 1
    lines[row] = "0 zero"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=rf"^line {row + 1}: bad value 'zero' in tensor 'rnn.bg'"):
        load_model(path)


# sha256 of the concatenated parameter bytes of freshly built models, as the
# random initialisation gave them before loading stopped drawing one
INIT_DIGESTS = {
    "tdtd": "3eaa38cabe53d991ed9f1d2136af86ee8b147bce651c399e2c4c2ec22dcfa76c",
    "tdtd-p": "e7e94e53f4bef2e4e64acbe04ae7dbb2f6e2ba2c2481cab260920bed789fc520",
    "seq-lm": "cc8815ab4f9a078fc1a7bfe421d2eb7344feff84a95040f9cb5e2c53b98d35a8",
}


def _init_models():
    return [TdtdModel(tiny_config(), rng=np.random.default_rng(0)),
            TdtdParserModel(tiny_config(), rng=np.random.default_rng(0)),
            SeqLmModel(SeqLmConfig(tokens=("<bos>", "<eos>", "(S", ")", "a")),
                       rng=np.random.default_rng(0))]


def test_training_init_unchanged_and_loading_draws_none(tmp_path, monkeypatch):
    models = _init_models()
    for model in models:
        digest = hashlib.sha256(b"".join(_model_bits(model).values())).hexdigest()
        assert digest == INIT_DIGESTS[model.kind], model.kind
    import tdtd.autodiff as ad

    def no_draw(*args):
        raise AssertionError("load_model drew a random initialisation")

    monkeypatch.setattr(ad, "init_uniform", no_draw)
    for model in models:
        path = tmp_path / model.kind
        save_model(model, path)
        _assert_same_params(model, load_model(path))
