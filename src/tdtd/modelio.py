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

from dataclasses import fields

from . import autodiff as ad
from .decoder import TdtdModel, scalar_fields
from .parser import TdtdParserModel
from .seqlm import SeqLmModel

__all__ = ["MODEL_CLASSES", "ModelIoError", "save_model", "load_model"]

# each model kind, once: its class names the kind and carries its config
# class and its teacher-forced tree scorer (`log_prob`)
MODEL_CLASSES = {cls.kind: cls for cls in (TdtdModel, TdtdParserModel, SeqLmModel)}

MODEL_MAGIC = "TDTD-MODEL v2"
_MODEL_MAGIC_V1 = "TDTD-MODEL v1"


class ModelIoError(ValueError):
    pass


def _format_header(model):
    lines = [MODEL_MAGIC, f"kind={model.kind}"]
    for f in scalar_fields(model.config):
        value = getattr(model.config, f.name)
        lines.append(f"{f.name}={int(value) if f.type == 'bool' else value}")
    return lines


def _listing_fields(config):
    """The vocabulary fields of a config dataclass, in declaration order: the
    listings of a model file."""
    return [f for f in fields(config) if f.type.startswith("tuple")]


def save_model(model, destination):
    lines = _format_header(model)
    for f in _listing_fields(model.config):
        symbols = getattr(model.config, f.name)
        lines.append(f"[{f.name}] {len(symbols)}")
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
    model_class = MODEL_CLASSES.get(kind)
    if model_class is None:
        raise ModelIoError(f"unknown or missing model kind: {kind!r}")
    config_class = model_class.config_class
    values = {}
    for f in _listing_fields(config_class):
        symbols, i = _parse_listing(lines, i, f.name, counted)
        values[f.name] = tuple(symbols)
    for f in scalar_fields(config_class):
        try:
            value = int(scalars[f.name])
        except KeyError:
            raise ModelIoError(f"missing config field {f.name!r}") from None
        except ValueError:
            raise ModelIoError(
                f"bad integer for {f.name!r}: {scalars[f.name]!r}") from None
        values[f.name] = bool(value) if f.type == "bool" else value
    model = model_class(config_class(**values), rng=ad._NO_INIT)

    if i >= len(lines) or lines[i].strip() != "[params]":
        raise ModelIoError(f"line {i + 1}: expected [params] section")
    expect = {name: t.values.shape for name, t in model.store.items()}
    loaded = ad.parse_params(lines[i + 1 :], expect_shapes=expect, first_line=i + 2)
    for name, tensor in model.store.items():
        tensor.values[...] = loaded[name].values
    return model
