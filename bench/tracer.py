"""In-memory span tracer that wraps the public functions of the microexpr
modules from outside, without editing them.

A function imported by name into another module (``training.forward`` is
``network.forward``) is replaced in every namespace that holds it, so calls
made through either name are recorded.  Spans are kept in memory, one list
per thread, each span ``[name, start, end, parent, tag]``; ``parent`` indexes
the same thread's list (worker-thread spans are roots of their thread).
``summary`` and ``dump`` read them after the run.

Network layer calls get a tag ``(label, batch)``: conv and dense calls are
labelled by the ``model.params`` tensor they receive, and max pooling by its
position after the preceding labelled call of the same branch.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "dataset", "preprocess", "features", "network", "training", "evaluation")
TRAINING_ROOTS = ("training.train", "training.train_on_rows")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in TRACED_MODULES]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, list]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._param_labels: dict[int, str] = {}

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.last_layer = None
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
        return local

    def _wrap(self, name, fn, tagger=None):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            local = self._state()
            spans, stack = local.spans, local.stack
            tag = tagger(local, args) if tagger is not None else None
            rec = [name, perf(), 0.0, stack[-1] if stack else -1, tag]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- network layer labels ---------------------------------------------

    def _label_params(self, local, args):
        model, batch = args[0], args[1]
        self._param_labels = {id(t): n.rsplit(".", 1)[0] for n, t in model.params.items()}
        return ("model", batch.shape[0])

    def _tag_param(self, weight_arg, batch_of):
        def tagger(local, args):
            label = self._param_labels.get(id(weight_arg(args)))
            local.last_layer = label
            return (label, batch_of(args))
        return tagger

    def _tag_pool(self, forward):
        # Forward order per branch: conv1 pool1 conv2 pool2 fc.
        # Backward order per branch: fc pool2 conv2 pool1 conv1.
        after = {"conv1": "pool1", "conv2": "pool2"} if forward else {"fc": "pool2", "conv2": "pool1"}

        def tagger(local, args):
            last = local.last_layer or ""
            branch, _, layer = last.rpartition(".")
            label = f"{branch}.{after[layer]}" if layer in after else None
            batch = args[0].shape[0] if forward else args[1][0][0]
            return (label, batch)
        return tagger

    def _taggers(self):
        return {
            "network.forward": self._label_params,
            "network.conv2d_forward": self._tag_param(lambda a: a[1], lambda a: a[0].shape[0]),
            "network.conv2d_backward": self._tag_param(lambda a: a[1][1], lambda a: a[0].shape[0]),
            "network.dense_forward": self._tag_param(lambda a: a[1], lambda a: a[0].shape[0]),
            "network.dense_backward": self._tag_param(lambda a: a[1][1], lambda a: a[0].shape[0]),
            "network.maxpool2_forward": self._tag_pool(True),
            "network.maxpool2_backward": self._tag_pool(False),
        }

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        taggers = self._taggers()
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[obj] = self._wrap(name, obj, taggers.get(name))
        # The batch builder is a closure inside train(); hook the epoch loop's
        # argument so augmentation time gets its own span.
        run_epochs = self.package.training._run_epochs

        def run_epochs_hook(model, make_batch, *args, **kwargs):
            traced = self._wrap("training.make_batch", make_batch,
                                lambda local, a: (None, len(a[1])))
            return run_epochs(model, traced, *args, **kwargs)

        wrappers[run_epochs] = run_epochs_hook
        for mod in [self.package, *self.modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for tid, spans in self._threads:
                for i, (name, start, end, parent, tag) in enumerate(spans):
                    fh.write(json.dumps({"tid": tid, "id": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "tag": tag}) + "\n")

    def summary(self, main_tid: int) -> dict:
        """Self time and call count per function, plus the derived layer,
        training-step and worker figures."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        layer_ms = defaultdict(list)
        forward_ms = defaultdict(list)
        step = defaultdict(float)
        augment_ms = defaultdict(list)
        busy = 0.0
        preprocess_wall = 0.0
        preprocess_windows = []
        worker_roots = []
        for tid, spans in self._threads:
            child = [0.0] * len(spans)
            for rec in spans:
                if rec[3] >= 0:
                    child[rec[3]] += rec[2] - rec[1]
            for i, (name, start, end, parent, tag) in enumerate(spans):
                dur = end - start
                self_s[name] += dur - child[i]
                calls[name] += 1
                if name == "cli.cmd_preprocess":
                    preprocess_wall += dur
                    preprocess_windows.append((start, end))
                if tid != main_tid and parent < 0:
                    worker_roots.append((start, end))
                in_training = tid == main_tid and _has_ancestor(spans, i, TRAINING_ROOTS)
                if name == "network.forward" and not in_training:
                    forward_ms[tag[1]].append(dur * 1e3)
                if tag is not None and tag[0] and tag[0] != "model" and in_training:
                    kind = "fwd" if name.endswith("_forward") else "bwd"
                    layer_ms[(tag[0], kind, tag[1])].append(dur * 1e3)
                if in_training:
                    if name == "training.make_batch":
                        step["data_s"] += dur
                        if _has_ancestor(spans, i, ("training.train",)):
                            augment_ms[tag[1]].append(dur * 1e3)
                    elif name == "network.forward":
                        step["forward_s"] += dur
                    elif name == "network.backward":
                        step["backward_s"] += dur
                    elif name in ("training.sgd_momentum_step", "training.update_centers"):
                        step["update_s"] += dur
        for start, end in worker_roots:
            if any(s <= start and end <= e for s, e in preprocess_windows):
                busy += end - start
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "layer_ms": _median_at_full_batch(layer_ms),
            "forward_ms": {b: statistics.median(v) for b, v in forward_ms.items()},
            "step": dict(step),
            "augment_batch_ms": statistics.median(augment_ms[max(augment_ms)]) if augment_ms else math.nan,
            "augment_batch": max(augment_ms) if augment_ms else 0,
            "preprocess_busy_over_wall": busy / preprocess_wall if preprocess_wall else math.nan,
        }


def _has_ancestor(spans, i, names) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def _median_at_full_batch(layer_ms) -> dict:
    """Median ms per (label, fwd|bwd) over the calls at the largest batch
    that label saw, which is the full training batch."""
    full = {}
    for (label, kind, batch) in layer_ms:
        key = (label, kind)
        full[key] = max(full.get(key, 0), batch)
    return {
        key: (statistics.median(layer_ms[(key[0], key[1], batch)]), batch)
        for key, batch in full.items()
    }
