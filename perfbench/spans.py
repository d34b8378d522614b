"""Per-layer spans, installed from outside the program.

The tracer rebinds the ``binsketch`` module attributes that callers look
up at call time (``binsketch.cli.load_corpus``, ``binsketch.structural.classify``,
``binsketch.search.jaccard_many``, ``binsketch.search.search`` ...) to
wrappers that record one span per call: name, start, end, parent span and
thread. A function is rebound in every ``binsketch`` module that holds it,
so a caller that imported it by name is traced like one that goes through
the defining module. Spans stay in memory until :meth:`Tracer.export`.

A target that no longer exists is listed in :attr:`Tracer.missing` and its
metrics read 0; a counter that cannot be read from a call is listed in
:attr:`Tracer.counter_errors`. Neither stops the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from contextlib import contextmanager


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_load_corpus(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {
        "functions": sum(len(p.functions) for p in result),
        "bytes": os.path.getsize(path),
    }


def _count_generate(args, kwargs, result):
    repository, queries = result
    return {"functions": sum(len(p.functions) for p in (*repository, *queries))}


def _count_train(args, kwargs, result):
    return {
        "points": len(_arg(args, kwargs, 0, "embeddings")),
        "iterations": len(result.objective),
        "objective_final": float(result.objective[-1]),
    }


def _count_classify(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "embeddings"))}


def _count_jaccard_many(args, kwargs, result):
    return {"comparisons": len(result)}


def _count_semantic_hash(args, kwargs, result):
    return {"functions": len(_arg(args, kwargs, 0, "program").functions)}


def _count_search(args, kwargs, result):
    return {"comparisons": len(_arg(args, kwargs, 0, "repo"))}


# (defining module, attribute, counter). The span name is the module's last
# component plus the attribute, so the module is the layer.
TARGETS = (
    ("binsketch.synth", "generate", _count_generate),
    ("binsketch.corpus", "load_corpus", _count_load_corpus),
    ("binsketch.corpus", "save_corpus", None),
    ("binsketch.corpus", "load_structural", None),
    ("binsketch.corpus", "save_structural", None),
    ("binsketch.corpus", "load_semantic", None),
    ("binsketch.corpus", "save_semantic", None),
    ("binsketch.kmeans", "train", _count_train),
    ("binsketch.kmeans", "classify", _count_classify),
    ("binsketch.kmeans", "save_model", None),
    ("binsketch.kmeans", "load_model", None),
    ("binsketch.structural", "hash_program", None),
    ("binsketch.structural", "labels_to_bitvector", None),
    ("binsketch.structural", "jaccard_many", _count_jaccard_many),
    ("binsketch.semantic", "hash_program", _count_semantic_hash),
    ("binsketch.search", "build", None),
    ("binsketch.search", "search", _count_search),
    ("binsketch.search", "batch_search", None),
    ("binsketch.search", "save_results", None),
    ("binsketch.search", "load_results", None),
    ("binsketch.metrics", "load_class_map", None),
    ("binsketch.metrics", "save_class_map", None),
    ("binsketch.metrics", "judgments_from_results", None),
    ("binsketch.metrics", "map_at_k", None),
    ("binsketch.metrics", "mp_at_k", None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        # Each span is [name, start, end, parent index or None, thread id].
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str) -> int:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's work was caused by whatever the main thread
            # is inside of while it waits on the pool.
            main_stack = self._stacks.get(self._main)
            parent = main_stack[-1] if main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, thread])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _record(self, name: str, counter, args, kwargs, result) -> None:
        try:
            values = counter(args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            with self._lock:
                self.counter_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        with self._lock:
            totals = self.counts.setdefault(name, {})
            for key, value in values.items():
                totals[key] = totals.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self._record(name, counter, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Rebind every target for the duration of the block, then restore."""
        restore = []
        try:
            # Load the callers first: a module imported while the wrappers
            # are in place would keep them after the restore.
            importlib.import_module("binsketch.cli")
            for module_name, attr, counter in targets:
                name = span_name(module_name, attr)
                try:
                    original = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self.wrap(name, original, counter)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "binsketch" and not mod_name.startswith("binsketch."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(restore):
                setattr(module, key, original)

    def export(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "thread": t}
            for n, s, e, p, t in self.spans
        ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the part of it covered by its
    children; children running on pool threads may overlap each other,
    so their union is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        own = duration - _covered(children.get(index, []), span["start"], span["end"])
        entry = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += own
    return out
