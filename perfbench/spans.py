"""Spans and timers installed on vqsense from outside the package.

Both kinds of instrumentation replace a public function at its module or
class attribute and put the original back afterwards; nothing inside the
package changes. The untraced run installs only the two stage timers
(`engine.pretrain_run`, `engine.sense_step`). The traced run installs a span
on every function in TRACE_TARGETS.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

# (span name, owner path, attribute). The owner is a module or a class of the
# vqsense package; the span name's first part is the layer it belongs to.
TRACE_TARGETS = (
    ("probe.simulate", "probe", "measurement_distribution"),
    ("probe.grad", "probe", "log_prob_grad_table"),
    ("probe.sample", "probe", "sample_shots"),
    ("estimator.forward", "estimator.SequentialPhaseEstimator", "forward"),
    ("estimator.bptt", "estimator.SequentialPhaseEstimator", "loss_grads"),
    ("estimator.train_step", "estimator.SequentialPhaseEstimator", "train_step"),
    ("estimator.fit", "estimator.SequentialPhaseEstimator", "fit"),
    ("conformal.build_set", "conformal", "build_set"),
    ("conformal.set_size", "conformal", "set_size"),
    ("conformal.coverage_loss", "conformal", "coverage_loss"),
    ("conformal.min_distance_loss", "conformal", "min_distance_loss"),
    ("conformal.update_threshold", "conformal", "update_threshold"),
    ("conformal.soft_set_size", "conformal", "soft_set_size"),
    ("engine.pretrain", "engine", "pretrain_run"),
    ("engine.step", "engine", "sense_step"),
    ("cli.write_manifest", "cli", "write_manifest"),
    ("cli.write_records", "cli", "write_records"),
    ("cli.write_aggregate_csv", "cli", "write_aggregate_csv"),
    ("cli.finalize_manifest", "cli", "_finalize_manifest"),
)

# Spans whose boolean return value is counted (train_step returns False when
# it skipped a non-finite gradient).
COUNT_TRUE = ("estimator.train_step",)


def resolve_owner(vqsense, path: str):
    owner = vqsense
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attr, new) for the duration of the block, then restore.

    The original is taken from the owner's own __dict__, so a class method
    is restored as the very object that was there before.
    """
    originals = []
    try:
        for owner, attr, new in replacements:
            originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def stage_timers(engine, pretrain_s: list, step_s: list):
    """Replacements that time `pretrain_run` and every `sense_step` call."""
    perf_counter = time.perf_counter

    def timed(fn, sink):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            sink.append(perf_counter() - start)
            return result
        return wrapper

    return [
        (engine, "pretrain_run", timed(engine.pretrain_run, pretrain_s)),
        (engine, "sense_step", timed(engine.sense_step, step_s)),
    ]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a span with no enclosing traced span
    trial: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans in memory; one tracer serves every traced trial."""

    spans: list = field(default_factory=list)
    true_counts: dict = field(default_factory=dict)
    trial: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter
        count_true = name in COUNT_TRUE

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in when the call ends
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.trial)
            if count_true and result:
                self.true_counts[name] = self.true_counts.get(name, 0) + 1
            return result

        return wrapper

    def replacements(self, vqsense):
        out = []
        for name, owner_path, attr in TRACE_TARGETS:
            owner = resolve_owner(vqsense, owner_path)
            out.append((owner, attr, self.wrap(name, getattr(owner, attr))))
        return out


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - union_length(children.get(s.id, ())) for s in spans}
