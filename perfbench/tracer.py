"""Run the mfjq CLI in this process with timing wrappers on its layer functions.

Usage: python3 perfbench/tracer.py OUT_PREFIX PEAK_FILE [mfjq CLI arguments ...]

Spans (function, start, end, parent span) and counters are kept in memory and
written when the CLI returns, to OUT_PREFIX.npy (one row per span) and
OUT_PREFIX.json (names and counters); the peak resident set goes to PEAK_FILE
as in ``child.py``.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

from child import write_peak
from layers import TRACED


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []          # (name id, start, end, parent span index or -1)
        self.stack = [-1]
        self.counters = defaultdict(int)
        self.matrix_bytes = []   # nbytes of every field matrix built, in order

    def wrap(self, name, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, stack[-1])
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    # -- counters, updated outside the timed span of the call they describe --

    def count_candidates(self, args, kwargs, result, token):
        _, a, b, eta = args
        self.counters["controller.candidates"] += np.broadcast(
            np.asarray(a), np.asarray(b), np.asarray(eta)).size

    def count_switch(self, args, kwargs, result, token):
        self.counters["controller.switches"] += int(result[0].switched)

    def count_substeps(self, args, kwargs, result, token):
        # the sub-step rule of solver.step_grid, recomputed from its arguments
        mu, field, dt = args[:3]
        cfl_max = args[3] if len(args) > 3 else kwargs.get("cfl_max", 0.9)
        v = np.asarray(field(mu.edges) if callable(field) else field, dtype=float)
        vmax = float(np.max(np.abs(v)))
        n_sub = max(1, math.ceil(vmax * dt / (cfl_max * mu.dx))) if vmax > 0 else 1
        self.counters["solver.cfl_substeps"] += n_sub

    def record_matrix(self, args, kwargs, result, token):
        self.matrix_bytes.append(int(np.asarray(result).nbytes))

    def evolve_start(self, args):
        return len(self.matrix_bytes)

    def count_matvec_bytes(self, args, kwargs, result, token):
        # a grid run multiplies each matrix built for it by the cell masses once
        # per logged step, n_steps + 1 times
        config = args[2]
        steps = int(round(config.t_end / config.dt)) + 1
        self.counters["kernels.matvec_bytes_computed"] += sum(self.matrix_bytes[token:]) * steps

    def count_written(self, args, kwargs, result, token):
        self.counters["output.bytes_written"] += os.path.getsize(args[1])

    def hooks(self, name):
        if name == "controller.SlopeEvaluator.signed_batch":
            return None, self.count_candidates
        if name == "controller.decide_multi":
            return None, self.count_switch
        if name == "solver.step_grid":
            return None, self.count_substeps
        if name.endswith(".field_matrix"):
            return None, self.record_matrix
        if name == "solver.evolve":
            return self.evolve_start, self.count_matvec_bytes
        if name.endswith(".to_csv"):
            return None, self.count_written
        return None, None

    def install(self):
        """Wrap every traced function where callers look it up."""
        importlib.import_module("mfjq.cli")  # loads every module the CLI uses
        loaded = [m for n, m in sys.modules.items() if n == "mfjq" or n.startswith("mfjq.")]
        for name, module, attr, _layer in TRACED:
            mod = importlib.import_module(f"mfjq.{module}")
            before, after = self.hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], before, after))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, before, after)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def dump(self, prefix):
        rows = [s for s in self.spans if s is not None]
        np.save(prefix + ".npy", np.array(rows, dtype=float).reshape(-1, 4))
        with open(prefix + ".json", "w") as fh:
            json.dump(dict(names=self.names, counters=dict(self.counters)), fh)


def main(argv) -> int:
    prefix, peak_file, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    from mfjq.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(prefix)
        write_peak(peak_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
