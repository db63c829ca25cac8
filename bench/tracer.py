"""Span tracing at weyllab's layer boundaries, installed from outside the package.

Layers are the package modules config, model, numerics, topology,
openchain, spectroscopy and cli, plus linalg: the numpy/scipy entry
points the package calls.  Every function a layer module exports in
`__all__` is wrapped in each weyllab namespace that holds it, so calls
within a module are traced as well as calls between modules.  The cli
layer is its command functions and the output writers of `_OutputSet`,
the one private boundary, because emission has no public entry point.
`weyllab.cli.main` is not wrapped: argument parsing and the other glue
of `main` is what the coverage line reports as unattributed time.

A span records its name, start, end, parent span and job.  Spans stay in
memory while a pass runs; `end_pass` reduces one pass to per-layer
metrics, and `write` saves the last traced pass's spans when the run
ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import math
import time

import numpy.linalg
import scipy.linalg

import weyllab
import weyllab.cli
import weyllab.config
import weyllab.model
import weyllab.numerics
import weyllab.openchain
import weyllab.spectroscopy
import weyllab.topology
from metrics import LAYERS, cmd_metric

PACKAGE_LAYERS = {
    "config": weyllab.config,
    "model": weyllab.model,
    "numerics": weyllab.numerics,
    "topology": weyllab.topology,
    "openchain": weyllab.openchain,
    "spectroscopy": weyllab.spectroscopy,
}
NAMESPACES = (weyllab, weyllab.cli, *PACKAGE_LAYERS.values())
LINALG = (
    (numpy.linalg, "solve"),
    (numpy.linalg, "lstsq"),
    (numpy.linalg, "eigh"),
    (numpy.linalg, "cond"),
    (scipy.linalg, "eigh_tridiagonal"),
)
EMITTERS = ("write_csv", "write_json", "manifest")


def solve_flops(a, b, *_args, **_kw) -> float:
    """Computed flops of numpy.linalg.solve: LU (2/3 n^3) plus two
    triangular solves (2 n^2 per right-hand side), times 4 if complex."""
    a, b = numpy.asarray(a), numpy.asarray(b)
    n = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    nrhs = b.shape[-1] if b.ndim == a.ndim else 1
    flops = batch * (2.0 / 3.0 * n**3 + 2.0 * n * n * nrhs)
    return 4.0 * flops if numpy.iscomplexobj(a) or numpy.iscomplexobj(b) else flops


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index, job, error)
        self.stack = [-1]
        self.job = ""
        self.flops = 0.0
        self.last_pass: tuple[int, list] = (-1, [])  # (pass index, spans)
        self._patches = []
        for layer, module in PACKAGE_LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for ns in NAMESPACES:
                    if getattr(ns, attr, None) is fn:
                        self._patches.append((ns, attr, fn, wrapper))
        for module, attr in LINALG:
            fn = getattr(module, attr)
            work = solve_flops if attr == "solve" else None
            self._patches.append(
                (module, attr, fn, self._wrap(f"linalg.{attr}", "linalg", fn, work))
            )
        for command, fn in weyllab.cli.COMMANDS.items():
            wrapper = self._wrap(f"cli.cmd.{command}", "cli", fn)
            self._patches.append((weyllab.cli.COMMANDS, command, fn, wrapper))
        out_set = weyllab.cli._OutputSet
        for attr in EMITTERS:
            fn = getattr(out_set, attr)
            self._patches.append(
                (out_set, attr, fn, self._wrap(f"cli.emit.{attr}", "cli", fn))
            )

    def _wrap(self, name, layer, fn, work=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self.flops += work(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job, error)

        return wrapper

    @staticmethod
    def _set(target, attr, value):
        if isinstance(target, dict):
            target[attr] = value
        else:
            setattr(target, attr, value)

    def install(self):
        for target, attr, _, wrapper in self._patches:
            self._set(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, _ in reversed(self._patches):
            self._set(target, attr, original)

    def end_pass(self, pass_index: int, job_command: dict, job_seconds: float):
        """Reduce the pass just traced to (metrics, counts); keeps its spans
        until the next traced pass ends.

        job_command maps job label -> CLI command; job_seconds is the
        harness-timed duration of all jobs together.  counts maps
        (command, span name) -> calls.
        """
        spans = list(self.spans)
        self.spans.clear()
        flops, self.flops = self.flops, 0.0
        self.last_pass = (pass_index, spans)

        layer_of = [self.layer_of[s[0]] for s in spans]
        child = [0.0] * len(spans)
        for nid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        m = {}
        for L in LAYERS:
            m.update({f"{L}.calls": 0, f"{L}.busy_s": 0.0, f"{L}.self_s": 0.0,
                      f"{L}.errors": 0})
        counts: dict = {}
        top_level = 0.0
        for i, (nid, start, end, parent, job, error) in enumerate(spans):
            layer, dur = layer_of[i], end - start
            m[f"{layer}.self_s"] += dur - child[i]
            if parent < 0 or layer_of[parent] != layer:
                m[f"{layer}.calls"] += 1
                m[f"{layer}.busy_s"] += dur
                m[f"{layer}.errors"] += error
            if parent < 0:
                top_level += dur
            name = self.names[nid]
            key = (job_command[job], name)
            counts[key] = counts.get(key, 0) + 1
            if name.startswith("cli.cmd."):
                key = cmd_metric(name[len("cli.cmd."):])
                m[key] = m.get(key, 0.0) + dur
            elif name.startswith("cli.emit."):
                m["cli.emit_s"] = m.get("cli.emit_s", 0.0) + dur
        m["linalg.solve_mflop"] = flops / 1e6
        m["trace.spans"] = len(spans)
        m["coverage.unattributed_s"] = job_seconds - top_level
        return m, counts

    def write(self, path):
        """Write the spans of the last traced pass as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["pass", "span", "parent", "job", "name", "start_s", "end_s", "error"])
            pass_index, spans = self.last_pass
            for i, (nid, start, end, parent, job, error) in enumerate(spans):
                out.writerow([pass_index, i, parent, job, self.names[nid],
                              repr(start), repr(end), int(error)])
