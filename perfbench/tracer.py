"""In-process span tracer for skelstat's public functions.

Each traced function is replaced, in every module namespace that binds it,
by one wrapper that records a span (name, start, end, parent). Modules
import each other's names with ``from .x import y``, so wrapping only the
defining module would miss most calls. Spans stay in memory; self times
and counters are computed after the run.

Run as a script, it is the traced child of ``run.py``: it imports skelstat,
alternates untraced and traced calls of ``skelstat.cli.main`` for a fixed
time and writes the per-run layer metrics as JSON.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (module, function) pairs traced, by layer. Private helpers and untraced
# public functions count in the self time of their traced caller; cli.main
# is the root of every run, so argparse and the CSV/JSON text builders land
# in cli.self_s.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("cli", "atomic_write_text"),
    ("ingest", "load_bundle"),
    ("ingest", "parse_tracklets"),
    ("ingest", "parse_labels"),
    ("ingest", "parse_scores"),
    ("ingest", "serialize_tracklets"),
    ("features", "build_windows"),
    ("analysis", "mean_tensor"),
    ("analysis", "distances_to_mean"),
    ("analysis", "sdom_report"),
    ("stats", "difficulty_report"),
    ("stats", "histogram"),
    ("stats", "box_stats"),
    ("metrics", "roc_curve"),
    ("metrics", "pr_curve"),
    ("metrics", "auc_roc"),
    ("metrics", "auc_pr"),
    ("metrics", "eer"),
    ("metrics", "metrics_report"),
    ("metrics", "windows_to_frame_scores"),
    ("synth", "generate"),
    ("synth", "oracle_scores"),
)

# Spans of these layers also record resident-set growth.
RSS_LAYERS = ("ingest", "features", "synth")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def _rss_mb() -> float:
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return 0.0


def _text_size(text) -> Tuple[int, int]:
    """(bytes, lines) of a str or bytes argument; (0, 0) for a stream."""
    if isinstance(text, str):
        return (len(text) if text.isascii() else len(text.encode("utf-8"))), text.count("\n")
    if isinstance(text, bytes):
        return len(text), text.count(b"\n")
    return 0, 0


def _attrs(name: str, args, kwargs, result) -> Dict[str, object]:
    """Counters recorded at the span boundary, by traced function."""
    if name == "ingest.parse_tracklets":
        size, lines = _text_size(args[0] if args else kwargs.get("stream"))
        return {"bytes": size, "lines": lines}
    if name == "ingest.serialize_tracklets":
        return {"bytes": _text_size(result)[0]}
    if name == "features.build_windows":
        feature = args[1] if len(args) > 1 else kwargs["feature_type"]
        return {"feature": getattr(feature, "value", str(feature)), "windows": len(result)}
    if name == "analysis.mean_tensor":
        return {"digest": hashlib.sha1(result.values.tobytes()).hexdigest()}
    if name in ("metrics.roc_curve", "metrics.pr_curve"):
        return {"points": len(result)}
    if name == "cli.atomic_write_text":
        path = args[0] if args else kwargs["path"]
        text = args[1] if len(args) > 1 else kwargs["text"]
        return {"bytes": _text_size(text)[0], "file": Path(path).name}
    return {}


class Tracer:
    """Wraps functions of a package's modules and records their spans.

    ``modules`` maps a layer name to its module object. A function is
    wrapped once and the same wrapper is installed in every given module
    that binds it, so a call through any binding yields one span named
    after the defining layer.
    """

    def __init__(self, modules: Dict[str, object], traced: Iterable[Tuple[str, str]] = TRACED):
        self.modules = modules
        self.traced = tuple(traced)
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._gc_start: Optional[float] = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        rss = layer in RSS_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            rss_before = _rss_mb() if rss else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if rss:
                span.attrs["rss_growth_mb"] = _rss_mb() - rss_before
            span.attrs.update(_attrs(name, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function; record absent names."""
        self.absent = []
        wrappers: Dict[int, Callable] = {}
        for layer, fname in self.traced:
            module = self.modules.get(layer)
            fn = getattr(module, fname, None) if module is not None else None
            if fn is None or not callable(fn):
                self.absent.append(f"{layer}.{fname}")
                continue
            wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1


def span_key(span: Span) -> str:
    """Metric prefix of a span: build_windows spans are split by feature."""
    feature = span.attrs.get("feature")
    return f"{span.name}.{feature}" if feature else span.name


def layer_metrics(tracer: Tracer, root_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run whose root took ``root_s``."""
    spans = tracer.spans
    selfs = self_times(spans)
    metrics: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        metrics[key] = metrics.get(key, 0.0) + value

    for span, own in zip(spans, selfs):
        key = span_key(span)
        add(f"{key}.self_s", own)
        add(f"{key}.calls", 1)
        for counter in ("bytes", "lines", "windows", "rss_growth_mb", "points"):
            if counter in span.attrs:
                add(f"{key}.{counter}", span.attrs[counter])
    if "cli.main.self_s" in metrics:
        metrics["cli.self_s"] = metrics.pop("cli.main.self_s")
    metrics["trace.root_s"] = root_s
    metrics["trace.untraced_s"] = root_s - sum(selfs)

    means = [s.attrs["digest"] for s in spans if s.name == "analysis.mean_tensor"]
    metrics["analysis.mean_tensor.useful_frac"] = len(set(means)) / len(means) if means else 1.0
    curves = [s for s in spans if s.name in ("metrics.roc_curve", "metrics.pr_curve")]
    written = [
        s for s in spans
        if s.name == "cli.atomic_write_text" and s.attrs.get("file") in ("roc.csv", "pr.csv")
    ]
    metrics["metrics.curve_useful_frac"] = len(written) / len(curves) if curves else 1.0
    metrics["metrics.thresholds"] = float(sum(s.attrs["points"] for s in curves))
    metrics["gc.gen2_collections"] = float(tracer.gc_gen2)
    metrics["gc.pause_s"] = tracer.gc_pause_s
    return metrics


def _skelstat_modules() -> Dict[str, object]:
    """The layer modules that exist; the names of a missing one are absent."""
    modules = {}
    for layer in sorted({layer for layer, _ in TRACED}):
        try:
            modules[layer] = importlib.import_module(f"skelstat.{layer}")
        except ModuleNotFoundError:
            pass
    return modules


def traced_child(spec: dict) -> dict:
    """Alternate untraced and traced in-process runs for ``spec['seconds']``,
    at least one pair.

    Each run writes into its own output directory, ``spec['out_prefix']``
    plus the run's number; the caller checks them. Returns the per-run
    records.
    """
    modules = _skelstat_modules()
    runs = []
    deadline = time.perf_counter() + spec["seconds"]
    while not runs or time.perf_counter() < deadline:
        for traced in (False, True):
            out = f"{spec['out_prefix']}{len(runs):03d}"
            argv = [out if a == "{out}" else a for a in spec["argv"]]
            gc.collect()
            tracer = Tracer(modules)
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                code = modules["cli"].main(argv)
                root_s = time.perf_counter() - start
            finally:
                tracer.uninstall()
            record = {"out": out, "traced": traced, "code": code, "root_s": root_s}
            if traced:
                record["metrics"] = layer_metrics(tracer, root_s)
                record["absent"] = tracer.absent
                record["negative_self"] = sum(1 for s in self_times(tracer.spans) if s < -1e-9)
            runs.append(record)
    return {"runs": runs}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        child_spec = json.load(fh)
    result = traced_child(child_spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
