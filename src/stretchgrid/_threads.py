"""The package's one thread policy: how many threads, and how parts of one job
run on them.  ``fdm.march`` and ``gridgen``'s map evaluation both call it.

Each part runs under the caller's numpy error state (``np.geterr()`` and
``np.geterrcall()``), which a new thread would otherwise not inherit, so a
part raises exactly what it would raise on the calling thread.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def workers() -> int:
    """Threads a job uses: the CPUs this process may run on, or
    ``os.cpu_count()`` where the platform reports no affinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def run_parts(work, parts: int, name: str) -> None:
    """Call ``work(part, stop)`` for every part in ``range(parts)`` at the
    same time: part 0 on the calling thread, each other part on its own
    thread named ``f"{name}-{part}"`` (with one part no thread starts).

    ``stop`` is a ``threading.Event`` that a part should test before each
    piece of its work.  It is set when a part raises, and when the calling
    thread is interrupted, so the other parts end early.  Every thread is
    joined before this returns or raises; the exception of the lowest part
    that raised is then raised here.
    """
    stop = threading.Event()
    state = dict(np.geterr(), call=np.geterrcall())
    failed: list[BaseException | None] = [None] * parts

    def run(part: int):
        try:
            with np.errstate(**state):
                work(part, stop)
        except BaseException as exc:  # noqa: BLE001 - raised in the caller after the join
            failed[part] = exc
            stop.set()

    threads = [threading.Thread(target=run, args=(part,), name=f"{name}-{part}")
               for part in range(1, parts)]
    for thread in threads:
        thread.start()
    try:
        run(0)
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()             # an interrupt on this thread stops the others
        for thread in threads:
            thread.join()
        raise
    for exc in failed:
        if exc is not None:
            raise exc
