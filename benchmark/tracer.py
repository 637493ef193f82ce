"""Outside-in tracer: spans around the package's layers, with no edit to it.

``Tracer.install`` replaces each target function with a wrapper that records
a span (name, start, end, parent span, CLI-call id).  Modules bind imported
names in their own namespaces (``neural/lstm.py`` imports ``backward``;
``Tensor.__add__`` finds ``add`` in ``tensor.core``'s globals; ``cli.run``
dispatches through the ``_COMMANDS`` dict), so a target is rebound wherever
it is referenced: in every ``baitline.*`` module namespace, in module-level
dicts, and, for methods, on the class that defines them.  ``restore`` puts
every original object back.

Spans are kept in memory and written out once the run ends.  A span's self
time is its duration minus the durations of its direct children; everything
runs in one Python thread, so children nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

TENSOR_OPS = (
    "add", "sub", "multiply", "matmul", "concat", "narrow", "reshape",
    "stack_steps", "tanh", "sigmoid", "relu", "softmax", "embedding_lookup",
    "max_pool_over_time", "mean_over_time", "l2_normalize",
    "cosine_similarity", "dropout", "cross_entropy", "tmean",
)
NEURAL_FAMILIES = ("bilstm", "contrastive", "encoder-head")


# (span name, module, attribute); "Class.method" names a method.
TARGETS = [
    *((f"tensor.{op}", "baitline.tensor.core", op) for op in TENSOR_OPS),
    ("tensor.backward", "baitline.tensor.core", "backward"),
    ("tensor.optim.step", "baitline.tensor.optim", "GraphOptimizer.step"),
    ("tensor.checkpoint.save", "baitline.tensor.checkpoint", "save_tensors"),
    ("tensor.checkpoint.load", "baitline.tensor.checkpoint", "load_tensors"),
    ("textproc.normalize", "baitline.textproc", "normalize"),
    ("textproc.tokenize", "baitline.textproc", "tokenize"),
    ("textproc.build_vocab", "baitline.textproc", "build_vocab"),
    ("textproc.encode", "baitline.textproc", "encode"),
    ("textproc.encode_ids", "baitline.textproc", "encode_ids"),
    ("features.extract_features", "baitline.features", "extract_features"),
    ("classical.best_split", "baitline.classical.tree", "best_split"),
    ("classical.tree_fit", "baitline.classical.tree", "DecisionTree.fit"),
    ("classical.tree_predict", "baitline.classical.tree", "DecisionTree.predict_proba"),
    ("classical.oob", "baitline.classical.forest", "compute_oob_score"),
    ("classical.train_svm", "baitline.classical.svm", "train_svm"),
    ("neural.bilstm.forward", "baitline.neural.lstm", "BiLstmClassifier.forward"),
    ("neural.contrastive.forward", "baitline.neural.siamese", "SiameseEncoder.encode_graph"),
    ("neural.encoder-head.forward", "baitline.neural.heads", "EncoderHead.forward"),
    ("neural.bilstm.train", "baitline.neural.lstm", "train_bilstm"),
    ("neural.contrastive.train", "baitline.neural.siamese", "train_contrastive"),
    ("neural.encoder-head.train", "baitline.neural.heads", "train_encoder_head"),
    ("neural.contrastive_predict", "baitline.neural.siamese", "contrastive_predict"),
    ("corpus.load_corpus", "baitline.corpus", "load_corpus"),
    ("metrics.evaluate", "baitline.metrics", "evaluate"),
    ("metrics.save_predictions", "baitline.metrics", "save_predictions"),
    ("metrics.load_predictions", "baitline.metrics", "load_predictions"),
    ("ensemble.ensemble_predict", "baitline.ensemble", "ensemble_predict"),
    ("cli.train", "baitline.cli", "cmd_train"),
    ("cli.predict", "baitline.cli", "cmd_predict"),
    ("cli.eval", "baitline.cli", "cmd_eval"),
    ("cli.ensemble_fit", "baitline.cli", "cmd_ensemble_fit"),
    ("cli.ensemble_apply", "baitline.cli", "cmd_ensemble_apply"),
]

# Counters added up after a traced call: span name -> (counter, measure).
MEASURES = {
    "tensor.optim.step": ("tensor.optim.step.param_bytes",
                          lambda args, result: sum(p.data.nbytes for p in args[0].params.values())),
    "tensor.checkpoint.save": ("tensor.checkpoint.save.bytes",
                               lambda args, result: os.path.getsize(args[0])),
    "tensor.checkpoint.load": ("tensor.checkpoint.load.bytes",
                               lambda args, result: os.path.getsize(args[0])),
    "textproc.tokenize": ("textproc.tokens", lambda args, result: len(result.tokens)),
    "corpus.load_corpus": ("corpus.articles_loaded", lambda args, result: len(result)),
}

# Per-layer metrics, in report order: (name, unit).  Layers a workload does
# not reach report 0.
PER_LAYER = [
    *((f"tensor.{op}.{q}", u) for op in TENSOR_OPS for q, u in (("calls", "count"), ("self_s", "s"))),
    ("tensor.nodes", "count"),
    ("tensor.bytes_allocated", "bytes"),
    ("tensor.backward.calls", "count"),
    ("tensor.backward.self_s", "s"),
    ("tensor.optim.step.calls", "count"),
    ("tensor.optim.step.self_s", "s"),
    ("tensor.optim.step.param_bytes", "bytes"),
    ("tensor.checkpoint.save.self_s", "s"),
    ("tensor.checkpoint.save.bytes", "bytes"),
    ("tensor.checkpoint.load.self_s", "s"),
    ("tensor.checkpoint.load.bytes", "bytes"),
    ("textproc.normalize.calls", "count"),
    ("textproc.tokenize.calls", "count"),
    ("textproc.tokenize.self_s", "s"),
    ("textproc.tokens", "count"),
    ("textproc.tokenize_per_side", "ratio"),
    ("textproc.build_vocab.self_s", "s"),
    ("textproc.encode.self_s", "s"),
    ("features.extract_features.calls", "count"),
    ("features.extract_features.self_s", "s"),
    ("classical.best_split.calls", "count"),
    ("classical.best_split.self_s", "s"),
    ("classical.tree_fit.self_s", "s"),
    ("classical.oob.self_s", "s"),
    ("classical.tree_predict.self_s", "s"),
    ("classical.train_svm.self_s", "s"),
    *((f"neural.{fam}.{part}.self_s", "s") for fam in NEURAL_FAMILIES for part in ("forward", "train")),
    ("neural.contrastive_predict.calls", "count"),
    ("corpus.load_corpus.self_s", "s"),
    ("metrics.evaluate.self_s", "s"),
    ("metrics.save_predictions.self_s", "s"),
    ("metrics.load_predictions.self_s", "s"),
    ("ensemble.ensemble_predict.calls", "count"),
    ("ensemble.ensemble_predict.self_s", "s"),
    ("cli.train.s", "s"),
    ("cli.predict.s", "s"),
    ("cli.eval.s", "s"),
    ("cli.ensemble_apply.s", "s"),
    ("cli.fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
]


class Tracer:
    """Span recorder that rebinds the ``TARGETS`` while installed."""

    def __init__(self):
        self.names = [target[0] for target in TARGETS]
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, index: int, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter, measure = MEASURES.get(self.names[index], (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.call_id)
            if counter is not None:
                counts[counter] += measure(args, result)
            return result

        return traced

    def _counting_init(self, original):
        counts = self.counts

        @functools.wraps(original)
        def init(tensor, *args, **kwargs):
            original(tensor, *args, **kwargs)
            counts["tensor.nodes"] += 1
            counts["tensor.bytes_allocated"] += tensor.data.nbytes

        return init

    def _set(self, owner, key, old, new, is_dict: bool = False) -> None:
        self._undo.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "baitline" or name.startswith("baitline.")) and m is not None]
        for index, (_, module_name, attr) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(index, raw.__func__))
                else:
                    wrapped = self._wrap(index, raw)
                self._set(cls, method, raw, wrapped)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(module, key, value, wrapper)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set(value, dkey, dvalue, wrapper, is_dict=True)
        tensor_cls = sys.modules["baitline.tensor.core"].Tensor
        original_init = tensor_cls.__dict__["__init__"]
        self._set(tensor_cls, "__init__", original_init, self._counting_init(original_init))

    def restore(self) -> None:
        while self._undo:
            owner, key, old, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- report -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for me, span in enumerate(self.spans):
            if span is None:
                continue
            index, start, end, _, _ = span
            name = self.names[index]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[me]
        return calls, total, own

    def layer_metrics(self, overhead_ratio: float, fail_ratio: float) -> dict[str, float]:
        calls, total, own = self.totals()
        values: dict[str, float] = {}
        for name, _ in PER_LAYER:
            base, _, quantity = name.rpartition(".")
            if quantity == "calls":
                values[name] = calls.get(base, 0)
            elif quantity == "self_s":
                values[name] = own.get(base, 0.0)
            elif name.startswith("cli.") and quantity == "s":
                values[name] = total.get(base, 0.0)
            else:
                values[name] = self.counts.get(name, 0)
        values["textproc.encode.self_s"] += own.get("textproc.encode_ids", 0.0)
        articles = self.counts.get("corpus.articles_loaded", 0)
        values["textproc.tokenize_per_side"] = (
            calls.get("textproc.tokenize", 0) / (2 * articles) if articles else 0.0
        )
        values["cli.fail_ratio"] = fail_ratio
        values["trace.overhead_ratio"] = overhead_ratio
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, call id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcall\n")
            for span in self.spans:
                if span is not None:
                    index, start, end, parent, call = span
                    fh.write(f"{self.names[index]}\t{start!r}\t{end!r}\t{parent}\t{call}\n")
