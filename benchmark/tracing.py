"""Spans and counts for the traced run, recorded from outside the program.

`Tracer.install` wraps the public functions of each tdtd module named in
SPANS (in every tdtd module that imported them) and counts calls into the
autodiff graph ops.  Each wrapped call records a span: name, start, end and
parent span.  Spans stay in memory as flat integer arrays and are written
out once, at the end of the run.  A layer's self time is its span's length
minus the length of its child spans.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# metric name -> (module, attribute path); several paths may share a name
SPANS = [
    ("autodiff.backward", "tdtd.autodiff", "backward"),
    ("autodiff.optimizer_step", "tdtd.autodiff", "Adam.step"),
    ("autodiff.optimizer_step", "tdtd.autodiff", "Sgd.step"),
    ("autodiff.clip_grads", "tdtd.autodiff", "ParamStore.clip_grads"),
    ("autodiff.gru_step", "tdtd.autodiff", "GruCell.step"),
    ("decoder.encode_layer", "tdtd.decoder", "encode_layer"),
    ("decoder.depth_step", "tdtd.decoder", "depth_step"),
    ("decoder.gen_step", "tdtd.decoder", "gen_step"),
    ("decoder.heads", "tdtd.decoder", "_predict"),
    ("decoder.tree_log_prob", "tdtd.decoder", "tree_log_prob"),
    ("decoder.generate_scored", "tdtd.decoder", "generate_scored"),
    ("parser.encode_sentence", "tdtd.parser", "encode_sentence"),
    ("parser.attend", "tdtd.parser", "attend"),
    ("parser.rerank", "tdtd.parser", "rerank"),
    ("parser.read_candidate_file", "tdtd.parser", "read_candidate_file"),
    ("seqlm.sequence_log_prob", "tdtd.seqlm", "sequence_log_prob"),
    ("seqlm.step_log_probs", "tdtd.seqlm", "SeqLmModel.step_log_probs"),
    ("training.train", "tdtd.training", "train"),
    ("training.dev_eval", "tdtd.training", "_dataset_nll"),
    ("modelio.save_model", "tdtd.modelio", "save_model"),
    ("modelio.load_model", "tdtd.modelio", "load_model"),
    ("metrics.sample_report", "tdtd.metrics", "sample_report"),
    ("metrics.bleu_n", "tdtd.metrics", "bleu_n"),
    ("pcfg.oracle_nll", "tdtd.pcfg", "oracle_nll"),
    ("pcfg.generate_dataset", "tdtd.pcfg", "generate_dataset"),
    ("treebank.read_treebank", "tdtd.treebank", "read_treebank"),
    ("treebank.parse_bracketed", "tdtd.treebank", "parse_bracketed"),
    ("treebank.to_bracketed", "tdtd.treebank", "to_bracketed"),
    ("treebank.layer_view", "tdtd.treebank", "layer_view"),
]

# subcommands the benchmark calls; each call is a `cli.<subcommand>` span
SUBCOMMANDS = ("gen-data", "train", "generate", "score", "eval-nll", "eval-bleu", "rerank")

# autodiff functions that are not graph ops
NOT_OPS = {"const", "backward", "gradient_check", "init_uniform", "make_optimizer",
           "save_params", "load_params", "parse_params", "format_params"}


def per_layer_names():
    """Every per-layer metric name, in report order."""
    names = []
    for span in dict.fromkeys(name for name, _, _ in SPANS):
        names += [f"{span}.calls", f"{span}.self_s"]
    names += ["autodiff.op_calls", "pcfg.generate_dataset.accept_ratio"]
    for sub in SUBCOMMANDS:
        names += [f"cli.{sub}.calls", f"cli.{sub}.s"]
    return names


def graph_ops(autodiff):
    return sorted(name for name, fn in vars(autodiff).items()
                  if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


class Tracer:
    def __init__(self):
        self._ids = {}
        self.names = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = []
        self.counts = Counter()
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._open.pop()

    def _spanned(self, name, fn):
        # span() inlined: these wrappers run ~10^5 times a round, and a
        # generator-based context manager would double their cost
        nid = self._id(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0)
            open_.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_.pop()

        return wrapper

    def _counted(self, key):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _count_kept(self, fn):
        def wrapper(*args, **kwargs):
            trees = fn(*args, **kwargs)
            self.counts["kept_trees"] += len(trees)
            return trees
        return wrapper

    def _replace(self, module_name, path, make):
        """Swap the object at `path` for make(original) wherever a tdtd
        module holds it; returns False when the program has no such name."""
        module = sys.modules[module_name]
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        replacement = make(original)
        holders = [owner] if owner_path else [
            m for n, m in sys.modules.items()
            if (n == "tdtd" or n.startswith("tdtd.")) and getattr(m, attr, None) is original]
        for holder in holders:
            setattr(holder, attr, replacement)
            self._undo.append((holder, attr, original))
        return True

    def install(self):
        import tdtd.autodiff
        import tdtd.cli  # noqa: F401  (imports every module the spans name)

        for name, module_name, path in SPANS:
            if not self._replace(module_name, path, lambda fn, n=name: self._spanned(n, fn)):
                print(f"trace: {module_name}.{path} not found; {name} reads 0",
                      file=sys.stderr)
        for op in graph_ops(tdtd.autodiff):
            self._replace("tdtd.autodiff", op, self._counted("op_calls"))
        self._replace("tdtd.pcfg", "sample_tree", self._counted("sampled_trees"))
        self._replace("tdtd.pcfg", "generate_dataset", self._count_kept)

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- reporting --------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def metrics(self):
        name_id, parent, start, end = self.arrays()
        duration = (end - start).astype(np.float64)
        child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                            minlength=len(duration))
        self_ns = duration - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_total = np.bincount(name_id, weights=self_ns, minlength=len(self.names))
        total = np.bincount(name_id, weights=duration, minlength=len(self.names))
        out = {}
        for name in per_layer_names():
            base, _, kind = name.rpartition(".")
            nid = self._ids.get(base)
            n = int(calls[nid]) if nid is not None else 0
            if kind == "calls":
                value, unit = n, "count"
            elif kind == "self_s":
                value, unit = float(self_total[nid]) / 1e9 if n else 0.0, "s"
            elif kind == "s":
                value, unit = float(total[nid]) / 1e9 / n if n else 0.0, "s"
            elif name == "autodiff.op_calls":
                value, unit = self.counts["op_calls"], "count"
            else:  # pcfg.generate_dataset.accept_ratio
                sampled = self.counts["sampled_trees"]
                value = self.counts["kept_trees"] / sampled if sampled else 0.0
                unit = "ratio"
            out[name] = {"value": value, "unit": unit}
        return out

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start_ns=start, end_ns=end)
