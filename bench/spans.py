"""Span tracer that times the program's layers from outside.

Each traced function is replaced, at every module attribute the program looks
it up through (including names imported by value, such as
``harness.sample_channel`` or ``precoders.jacobi_eigh``), by a wrapper that
records one span: layer, parent span, pass, start, end, and an optional size
measured on the result. Spans are kept in flat in-memory arrays and written
once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    ("model", "sample_channel"),
    ("design", "design_joint"),
    ("design", "design_benchmark"),
    ("precoders", "materialize"),
    ("precoders", "ideal_precoder"),
    ("precoders", "digital_precoder"),
    ("linalg", "jacobi_eigh"),
    ("metrics", "achievable_rate"),
    ("metrics", "rate_lower_bound"),
    ("metrics", "gain_profile"),
    ("metrics", "array_gain"),
    ("metrics", "empirical_cdf"),
    ("sizing", "size_ttds"),
    ("harness", "run"),
)

# Attributes that hold a traced function imported by value; each must be found.
BY_VALUE = (("harness", "sample_channel"), ("precoders", "jacobi_eigh"),
            ("metrics", "jacobi_eigh"))


def _precoder_bytes(pset) -> float:
    arrays = (pset.f1, pset.ttd, pset.analog, pset.ideal, pset.digital)
    return float(sum(a.nbytes for a in arrays if a is not None))


def _file_bytes(result) -> float:
    paths = list(result.files) + [Path(result.out_dir) / "manifest.json"]
    return float(sum(Path(p).stat().st_size for p in paths))


SIZES = {"precoders.materialize": _precoder_bytes, "harness.run": _file_bytes}


class Tracer:
    """Wraps the LAYERS functions of the delayphase modules while installed."""

    def __init__(self):
        modules = {name: importlib.import_module(f"delayphase.{name}")
                   for name in {mod for mod, _ in LAYERS}}
        modules["delayphase"] = importlib.import_module("delayphase")
        self.names = [f"{mod}.{fn}" for mod, fn in LAYERS]
        self.layer = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.current_pass = -1
        self._stack: list = []
        self._patches: list = []
        for idx, (mod, fn) in enumerate(LAYERS):
            original = getattr(modules[mod], fn)
            wrapper = self._wrap(idx, original, SIZES.get(self.names[idx]))
            for module in modules.values():
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        patched = {(m.__name__.rsplit(".", 1)[-1], a) for m, a, _, _ in self._patches}
        missing = [f"{m}.{a}" for m, a in BY_VALUE if (m, a) not in patched]
        if missing:
            raise RuntimeError(f"traced names not found: {missing}")

    def _wrap(self, idx: int, fn, size):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.layer.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.pass_id.append(self.current_pass)
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(0.0)
            self._stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[span] = t0
                self.end[span] = t1
            if size is not None:
                self.size[span] = size(result)
            return result

        return traced

    def install(self, pass_index: int) -> None:
        self.current_pass = pass_index
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def per_pass(self) -> dict:
        """Per traced pass and layer: calls, inclusive s, self s and summed result size.

        Self time is a span's duration minus the durations of its direct
        children; each array has shape (passes, layers).
        """
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        pass_id = np.frombuffer(self.pass_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        passes, row = np.unique(pass_id, return_inverse=True)
        shape = (len(passes), len(self.names))
        out = {key: np.zeros(shape) for key in ("calls", "s", "self_s", "bytes")}
        for key, weights in (("calls", 1.0), ("s", dur), ("self_s", dur - child),
                             ("bytes", np.frombuffer(self.size))):
            np.add.at(out[key], (row, layer), weights)
        return out

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            size=np.frombuffer(self.size))
