"""Span tracing of the program's layers, installed from the benchmark's side.

Each wrapped function records a span (run id, span id, parent span id,
name, start, end) in memory; the spans are written out once, at the end
of the run. A layer's self time is its spans' total duration minus the
part covered by its direct child spans.

`training` imports `evaluate` by name and `evaluation` imports
`sample_negatives` by name, so those names are patched in the importing
modules as well as in the defining ones. `models` reaches `kernels` and
the CLI reaches every other module through module attributes, so patching
the defining module covers those call sites.
"""

import functools
import json
import time

# (module, attribute, span name): the layers' public entry points.
TARGETS = [
    ("dataset", "load_catalog", "dataset.load_catalog"),
    ("dataset", "load_split", "dataset.load_split"),
    ("dataset", "sample_negatives", "dataset.sample_negatives"),
    ("evaluation", "sample_negatives", "dataset.sample_negatives"),
    ("training", "train", "training.train"),
    ("training", "build_train_data", "training.build_train_data"),
    ("training", "gradients", "training.gradients"),
    ("training", "adversarial_delta", "training.adversarial_delta"),
    ("training", "adam_update", "training.adam_update"),
    ("models", "score_batch", "models.score_batch"),
    ("models", "forward", "models.forward"),
    ("models", "backward", "models.backward"),
    ("kernels", "sqdist_rows", "kernels.sqdist_rows"),
    ("kernels", "sqdist_rows_backward", "kernels.sqdist_rows_backward"),
    ("kernels", "sqdist_members", "kernels.sqdist_members"),
    ("kernels", "sqdist_members_backward", "kernels.sqdist_members_backward"),
    ("kernels", "dot_members", "kernels.dot_members"),
    ("kernels", "dot_members_backward", "kernels.dot_members_backward"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("training", "evaluate", "evaluation.evaluate"),
    ("evaluation", "rank_candidates", "evaluation.rank_candidates"),
    ("params", "load_checkpoint", "params.load_checkpoint"),
    ("params", "save_checkpoint", "params.save_checkpoint"),
]

# CLI commands are click objects; their callbacks are what click invokes.
COMMANDS = ("train", "evaluate", "recommend")

LAYERS = sorted({name for _, _, name in TARGETS} | {f"cli.{c}" for c in COMMANDS})


class Tracer:
    """Collects spans while installed; `install`/`uninstall` bracket a traced cycle."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (self.run_id, span_id, parent, name, start, end)

        return traced

    def _targets(self):
        for module, attr, name in TARGETS:
            yield getattr(self.package, module), attr, name
        for command in COMMANDS:
            yield getattr(self.package.cli, command), "callback", f"cli.{command}"

    def install(self, run_id):
        self.run_id = run_id
        for owner, attr, name in self._targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self):
        """name -> {"calls", "s", "self_s"} over every recorded span."""
        child_time = {}
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
        for _, span_id, _, name, start, end in self.spans:
            row = totals[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for run_id, span_id, parent, name, start, end in self.spans:
                json.dump({"run": run_id, "id": span_id, "parent": parent,
                           "name": name, "start": start, "end": end}, f)
                f.write("\n")


def span_cost(samples=20000):
    """Seconds that recording one span adds to a call, from a wrapped no-op."""
    def noop():
        pass

    wrapped = Tracer(None)._wrap("probe", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return (time.perf_counter() - start - bare) / samples
