import os
import sys
import threading

import numpy as np
import pytest

from stretchgrid import _threads, bench, fdm


def assert_no_child_left():
    """Every child process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    """On Linux, where a started march forks, no test leaves a child
    process running or unreaped."""
    yield
    if sys.platform == "linux":
        assert_no_child_left()


def set_workers(monkeypatch, width: int):
    """Make the process look as if it may run on ``width`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)),
                        raising=False)


def on_threads(monkeypatch):
    """Start every march (``fdm.start``) on a thread, as off Linux, so that
    what a patched function records in it reaches this process."""
    monkeypatch.setattr(_threads, "FORK", False)


def record_stacks(monkeypatch) -> list:
    """Record, for every stack as it is built, its thread's name and blocks
    (every started march on a thread; see ``on_threads``)."""
    on_threads(monkeypatch)
    stacks = []
    init = fdm.Stack.__init__

    def recording(system, blocks):
        blocks = tuple(blocks)
        stacks.append((threading.current_thread().name, blocks))
        init(system, blocks)

    monkeypatch.setattr(fdm.Stack, "__init__", recording)
    return stacks


def poison_row(monkeypatch, nodes: int) -> list:
    """Put a NaN in the middle of the payoff ``bench`` builds for the next
    pricing whose grid has ``nodes`` nodes.  Returns the list of poisoned
    grids; clearing it poisons the next such pricing too."""
    poisoned = []
    payoff = bench.payoff

    def poisoning(contract, grid):
        values = payoff(contract, grid)
        if grid.points.size == nodes and not poisoned:
            poisoned.append(grid)
            values[values.size // 2] = np.nan
        return values

    monkeypatch.setattr(bench, "payoff", poisoning)
    return poisoned
