import os
import threading

from stretchgrid import fdm


def set_workers(monkeypatch, width: int):
    """Make the process look as if it may run on ``width`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)),
                        raising=False)


def record_stacks(monkeypatch) -> list:
    """Record, for every stack as it is built, its thread's name and blocks."""
    stacks = []
    init = fdm.Stack.__init__

    def recording(system, blocks):
        blocks = tuple(blocks)
        stacks.append((threading.current_thread().name, blocks))
        init(system, blocks)

    monkeypatch.setattr(fdm.Stack, "__init__", recording)
    return stacks
