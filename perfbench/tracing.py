"""In-memory spans around the calls ``stretchgrid.bench`` makes into each layer.

A pass records spans at the benchmark's own boundaries (pass, table, parse,
emit, row).  A traced pass also swaps the names ``stretchgrid.bench`` imports
from each layer for timing wrappers, so the real ``TableConfig.run`` path is
measured without a fork of it.  Classes are wrapped by subclassing, never by
patching the class itself: ``gridgen`` and ``placement`` use
``MonotoneCubic`` internally and those calls belong to their own layers.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from stretchgrid import bench

# Span names whose self time is the benchmark's own work (``bench.self_s``).
BENCH_SPANS = ("bench.pass", "bench.table", "bench.row")

# Self-time metrics that, with ``bench.self_s``, partition a traced pass.
LAYER_SPANS = ("bench.parse", "bench.emit", "gridgen.map_build", "gridgen.sample",
               "gridgen.eval", "placement.apply", "instruments.hooks",
               "fdm.assemble", "fdm.march", "spline.interp")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for the root
    row: str | None      # row id ("<table>:<column>:<I>") of the enclosing row
    child_time: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time


class Recorder:
    """Spans and counts of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, row: str | None = None):
        parent = self._open[-1] if self._open else -1
        if row is None and parent >= 0:
            row = self.spans[parent].row
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, row))
        self._open.append(index)
        try:
            yield
        finally:
            span = self.spans[index]
            span.end = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_time += span.seconds

    def self_times(self) -> Counter:
        out: Counter = Counter()
        for span in self.spans:
            out[span.name] += span.self_seconds
        return out

    def row_seconds(self) -> dict[str, float]:
        return {s.row: s.seconds for s in self.spans if s.name == "bench.row"}


@contextmanager
def patched(owner, **replacements):
    originals = {name: getattr(owner, name) for name in replacements}
    for name, value in replacements.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(owner, name, value)


def row_timer(rec: Recorder, table: str):
    """Time every ``price_run`` call of a table as one ``bench.row`` span."""
    price_run = bench.price_run

    def timed_price_run(config, steps, cache=None):
        with rec.span("bench.row", f"{table}:{config.label}:{steps}"):
            return price_run(config, steps, cache)

    return patched(bench, price_run=timed_price_run)


def layer_spans(rec: Recorder):
    """Wrap the layer entry points ``stretchgrid.bench`` calls."""
    count = rec.counts
    build_map = bench.build_map
    sample_grid = bench.sample_grid
    apply_placement = bench.apply_placement
    constraint_hooks = bench.constraint_hooks
    payoff = bench.payoff

    def traced_build_map(*args, **kwargs):
        with rec.span("gridgen.map_build"):
            mapping = build_map(*args, **kwargs)
        count["gridgen.map_builds"] += 1
        return mapping

    def traced_sample_grid(mapping, intervals):
        with rec.span("gridgen.sample"):
            grid = sample_grid(mapping, intervals)
        count["gridgen.grid_requests"] += 1
        count["gridgen.nodes_sampled"] += grid.points.size
        return grid

    def traced_apply_placement(grid, spec):
        with rec.span("placement.apply"):
            placed = apply_placement(grid, spec)
        count["placement.calls"] += 1
        count["placement.nodes_out"] += placed.points.size
        count["placement.nodes_added"] += placed.points.size - grid.points.size
        return placed

    def traced_constraint_hooks(*args, **kwargs):
        with rec.span("instruments.hooks"):
            hooks = constraint_hooks(*args, **kwargs)
        count["instruments.observation_steps"] += sum(
            len(getattr(hook, "steps", ())) for hook in hooks)
        return hooks

    def traced_payoff(*args, **kwargs):
        with rec.span("instruments.hooks"):
            return payoff(*args, **kwargs)

    class TracedStepper(bench.TrBdf2Stepper):
        def __init__(self, *args, **kwargs):
            with rec.span("fdm.assemble"):
                super().__init__(*args, **kwargs)
            count["fdm.time_steps"] += self.n_steps
            count["fdm.node_steps"] += self.grid.points.size * self.n_steps

        def run(self, terminal):
            with rec.span("fdm.march"):
                return super().run(terminal)

    class TracedCubic(bench.MonotoneCubic):
        def __init__(self, x, y):
            with rec.span("spline.interp"):
                super().__init__(x, y)

        def __call__(self, xq):
            count["spline.calls"] += 1
            with rec.span("spline.interp"):
                return super().__call__(xq)

    return patched(bench, build_map=traced_build_map, sample_grid=traced_sample_grid,
                    apply_placement=traced_apply_placement,
                    constraint_hooks=traced_constraint_hooks, payoff=traced_payoff,
                    TrBdf2Stepper=TracedStepper, MonotoneCubic=TracedCubic)
