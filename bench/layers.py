"""Per-layer metrics from the spans that ``traced.py`` writes.

A span's self time is its duration minus the durations of its direct
children; calls are sequential on one thread, so children never overlap.
A layer is a module of the package; its self time is the sum of the self
times of its spans.
"""

from __future__ import annotations

import json
from collections import defaultdict

LABEL, START, END, PARENT, RSS_KIB, SIZE = range(6)
GRAD_FUNCTIONS = {"pipeline.per_sample_gradients", "pipeline.batch_gradient",
                  "pipeline.collect_grads", "pipeline.gradient_norm"}


def load(path: str) -> tuple[list[str], list[list]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["labels"], doc["spans"]


class Summary:
    """Accumulates spans of one or more traced invocations."""

    def __init__(self) -> None:
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)  # by function
        self.inclusive_s: dict[str, float] = defaultdict(float)  # by function, outermost only
        self.calls: dict[str, int] = defaultdict(int)  # by function
        self.peak_rss_kib: dict[str, int] = defaultdict(int)  # by function
        self.sized_weights = 0
        self.grads_s = 0.0
        self.solver_s = 0.0

    def add(self, labels: list[str], spans: list[list]) -> None:
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]

        def outermost(i: int, pred) -> bool:
            p = spans[i][PARENT]
            while p >= 0:
                if pred(labels[spans[p][LABEL]]):
                    return False
                p = spans[p][PARENT]
            return True

        for i, span in enumerate(spans):
            label = labels[span[LABEL]]
            layer = label.split(".", 1)[0]
            dur = span[END] - span[START]
            self.layer_self_s[layer] += dur - child_s[i]
            self.self_s[label] += dur - child_s[i]
            self.calls[label] += 1
            self.peak_rss_kib[label] = max(self.peak_rss_kib[label], span[RSS_KIB])
            self.sized_weights += span[SIZE]
            if outermost(i, lambda other: other == label):
                self.inclusive_s[label] += dur
            if label in GRAD_FUNCTIONS and outermost(i, GRAD_FUNCTIONS.__contains__):
                self.grads_s += dur
            if layer == "solver" and outermost(i, lambda other: other.startswith("solver.")):
                self.solver_s += dur
