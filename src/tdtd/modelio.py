"""Model files: config header + vocabulary listings + parameter checkpoint.

Layout (UTF-8, LF):

    TDTD-MODEL v2
    kind=tdtd            # tdtd | tdtd-p | seq-lm
    hidden_size=32
    ...                  # every scalar config field, key=value
    [nonterminals] 1     # symbol count, then one symbol per line
    S                    # ([tokens] N for seq-lm)
    [terminals] 1
    <unk>
    [params]
    TDTD-CKPT v2         # see autodiff.format_params
    ...
    end

`TDTD-MODEL v1` files, whose listings carry no count and run until the next
line that starts with `[`, are still read.  That is why v2 counts: a symbol
such as `[` ended a v1 listing early.
"""
from __future__ import annotations

from . import autodiff as ad
from .decoder import TdtdConfig, TdtdModel
from .parser import TdtdParserModel
from .seqlm import SeqLmConfig, SeqLmModel

__all__ = ["ModelIoError", "save_model", "load_model"]

MODEL_MAGIC = "TDTD-MODEL v2"
_MODEL_MAGIC_V1 = "TDTD-MODEL v1"


class ModelIoError(ValueError):
    pass


def _format_header(model):
    lines = [MODEL_MAGIC, f"kind={model.kind}"]
    for key, value in model.config.scalar_fields().items():
        lines.append(f"{key}={value}")
    return lines


def save_model(model, destination):
    lines = _format_header(model)
    if model.kind == "seq-lm":
        listings = {"tokens": model.config.tokens}
    else:
        listings = {"nonterminals": model.config.nonterminals,
                    "terminals": model.config.terminals}
    for section, symbols in listings.items():
        lines.append(f"[{section}] {len(symbols)}")
        lines.extend(symbols)
    lines.append("[params]")
    text = "\n".join(lines) + "\n" + ad.format_params(model.store)
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_scalars(lines, start):
    scalars = {}
    i = start
    while i < len(lines) and not lines[i].startswith("["):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ModelIoError(f"line {i}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        scalars[key.strip()] = value.strip()
    return scalars, i


def _parse_listing(lines, i, section, counted):
    """Symbols of one `[section]` listing starting at line index i, and the
    index after it.  Counted (v2) listings hold exactly the stated number of
    lines, each one symbol verbatim."""
    header = lines[i].split() if i < len(lines) else []
    if not header or header[0] != f"[{section}]" or len(header) != 1 + counted:
        found = lines[i].strip() if i < len(lines) else "<end of file>"
        expected = f"[{section}] <count>" if counted else f"[{section}]"
        raise ModelIoError(f"line {i + 1}: expected {expected}, found {found!r}")
    i += 1
    if counted:
        if not header[1].isdecimal():
            raise ModelIoError(f"line {i}: bad symbol count {header[1]!r}")
        count = int(header[1])
        if i + count > len(lines):
            raise ModelIoError(
                f"line {len(lines)}: unexpected end of file in [{section}] "
                f"({len(lines) - i} of {count} symbols)"
            )
        return lines[i : i + count], i + count
    symbols = []
    while i < len(lines) and not lines[i].startswith("["):
        sym = lines[i].rstrip("\n")
        if sym:
            symbols.append(sym)
        i += 1
    return symbols, i


def load_model(source):
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    magic = lines[0].strip() if lines else ""
    if magic not in (MODEL_MAGIC, _MODEL_MAGIC_V1):
        raise ModelIoError(f"line 1: expected header {MODEL_MAGIC!r}")
    counted = magic == MODEL_MAGIC
    scalars, i = _parse_scalars(lines, 1)
    kind = scalars.pop("kind", None)
    if kind not in ("tdtd", "tdtd-p", "seq-lm"):
        raise ModelIoError(f"unknown or missing model kind: {kind!r}")

    def intval(key):
        try:
            return int(scalars[key])
        except KeyError:
            raise ModelIoError(f"missing config field {key!r}") from None
        except ValueError:
            raise ModelIoError(f"bad integer for {key!r}: {scalars[key]!r}") from None

    if kind == "seq-lm":
        tokens, i = _parse_listing(lines, i, "tokens", counted)
        config = SeqLmConfig(
            tokens=tuple(tokens),
            hidden_size=intval("hidden_size"),
            embed_size=intval("embed_size"),
            max_length=intval("max_length"),
        )
        model = SeqLmModel(config, rng=ad._NO_INIT)
    else:
        nonterminals, i = _parse_listing(lines, i, "nonterminals", counted)
        terminals, i = _parse_listing(lines, i, "terminals", counted)
        config = TdtdConfig(
            nonterminals=tuple(nonterminals),
            terminals=tuple(terminals),
            hidden_size=intval("hidden_size"),
            embed_size=intval("embed_size"),
            max_depth=intval("max_depth"),
            max_children_per_node=intval("max_children_per_node"),
            max_layer_width=intval("max_layer_width"),
            scaled_attention=bool(intval("scaled_attention")),
        )
        cls = TdtdParserModel if kind == "tdtd-p" else TdtdModel
        model = cls(config, rng=ad._NO_INIT)

    if i >= len(lines) or lines[i].strip() != "[params]":
        raise ModelIoError(f"line {i + 1}: expected [params] section")
    expect = {name: t.values.shape for name, t in model.store.items()}
    loaded = ad.parse_params(lines[i + 1 :], expect_shapes=expect, first_line=i + 2)
    for name, tensor in model.store.items():
        tensor.values[...] = loaded[name].values
    return model
