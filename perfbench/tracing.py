"""Spans around the calls into rsedlab's layers, recorded from outside.

A Tracer replaces a function where its callers look it up (a module global
or a class attribute) with a wrapper that records a span: name, start, end,
parent span and an optional work count.  Spans stay in memory until dump().
Jobs run single-threaded (`--threads 1`), so spans nest strictly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "cli.driver"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, count]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, count]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls to owner.attr; count(*args) gives the work done."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name, count(*args, **kwargs) if count else 0):
                return fn(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of each layer the drivers call into."""
    import numpy as np

    from rsedlab import cli, subsystem
    from rsedlab.randomness import SubsetPermutation
    from rsedlab.rsed import RsedOperator
    from rsedlab.subsystem import SubUnitary

    wrap = tracer.wrap
    wrap(cli, "otoc_zz_exact", "otoc.otoc_zz_exact", count=lambda op, *a, **kw: op.shape.num_seeds)
    wrap(cli, "otoc_zz_f_average", "otoc.otoc_zz_f_average")
    wrap(RsedOperator, "block_positions", "rsed.RsedOperator.block_positions")
    wrap(SubsetPermutation, "forward_array", "randomness.SubsetPermutation.forward_array",
         count=lambda self, xs: int(np.size(xs)))
    wrap(cli, "sample_permutation", "randomness.sample_permutation")
    wrap(cli, "sample_sign_function", "randomness.sample_sign_function")
    wrap(SubUnitary, "__post_init__", "subsystem.SubUnitary.validate")
    wrap(cli, "hadamard_sign_power", "subsystem.hadamard_sign_power")
    wrap(subsystem, "schur", "subsystem.schur")
    wrap(cli, "unitary_power", "subsystem.unitary_power")
    wrap(cli, "parent_spectrum", "subsystem.parent_spectrum")
    wrap(cli, "random_sign_hadamard", "subsystem.random_sign_hadamard")
    wrap(cli, "level_spacing_stats", "spectra.level_spacing_stats")
    wrap(cli, "ks_distance", "spectra.ks_distance")
    wrap(cli, "write_csv", "cli.write_csv")
    wrap(cli, "write_json", "cli.write_json")


def layer_totals(spans: list[list]) -> dict:
    """Per span name: calls, summed self time and summed count.

    A span's self time is its duration minus the durations of its children;
    strict nesting makes that the part of its interval no child covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
    for (name, start, end, _, count), covered in zip(spans, child_time):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += (end - start) - covered
        t["count"] += count
    return dict(totals)


def coverage(spans: list[list]) -> float:
    """Share of the root span's time that the layer spans under it cover."""
    total = sum(end - start for _, start, end, parent, _ in spans if parent == -1)
    return 1.0 - layer_totals(spans)[ROOT_SPAN]["self_s"] / total
