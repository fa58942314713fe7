"""The package's one policy for running the parts of a job at the same time:
how many parts, and where each runs.  ``fdm.march`` and ``gridgen``'s map
evaluation both call it.

``run_parts`` runs part 0 on the calling thread and each other part on a
thread of its own, or, when its caller asks (``fork``), in a child process
made by ``os.fork()``.  Threads share one GIL: every release of it in a part
(a ``ctypes`` call, a numpy pass over a long vector) hands the interpreter to
another part that needs it back, and two parts that both step in Python wait
on each other at every handoff.  Measured on a 2-CPU host, a large reference
marched beside a stack of small blocks on another thread took about 1.8x its
wall alone for the same CPU seconds.  A forked part has an interpreter of its
own, shares nothing after the fork and synchronises nothing until it sends
its result back through a pipe (pickled); one fork and its round trip cost
about 1.8 ms there.  ``fdm.march`` forks where ``FORK`` holds, which is only
on Linux, where glibc and OpenBLAS install fork handlers.  macOS is left on
threads (``multiprocessing`` has treated fork as unsafe there since Python
3.8), as is Windows, which has no fork.  ``gridgen`` keeps threads
everywhere: each of its chunks releases the GIL once and writes into one
shared output.  A child runs only its part's work and leaves by
``os._exit``.  CPython 3.12 and later warns (``DeprecationWarning``) on
``os.fork`` in a process that runs other threads, and numpy's OpenBLAS keeps
a pool thread for each further CPU unless ``OPENBLAS_NUM_THREADS=1`` (its
fork handler shuts the pool down before each fork), so there a march may
warn.

Each part runs under the caller's numpy error state (``np.geterr()`` and
``np.geterrcall()``), which a new thread would otherwise not inherit, so a
part raises exactly what it would raise on the calling thread.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import numpy as np


FORK = sys.platform == "linux"    # where a caller may run its parts in forked processes


class LostPartError(RuntimeError):
    """A part run in a forked process ended without sending its result:
    ``part`` names it, ``exitcode`` is its exit code (minus the signal
    number where a signal ended it)."""

    def __init__(self, name: str, part: int, exitcode: int):
        self.name = name
        self.part = part
        self.exitcode = exitcode
        how = f"killed by signal {-exitcode}" if exitcode < 0 else f"exit code {exitcode}"
        super().__init__(f"{name}: part {part} ended without a result ({how})")

    def __reduce__(self):
        return type(self), (self.name, self.part, self.exitcode), self.__dict__


def workers() -> int:
    """Parts a job uses: the CPUs this process may run on, or
    ``os.cpu_count()`` where the platform reports no affinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def run_parts(work, parts: int, name: str, fork: bool = False) -> list:
    """Call ``work(part, stop)`` for every part in ``range(parts)`` at the
    same time, and return what each call returns, in part order.  Part 0
    runs on the calling thread; each other part on its own thread named
    ``f"{name}-{part}"``, or with ``fork`` in its own forked process, which
    returns its value pickled (with one part neither starts).

    ``stop`` is a ``threading.Event`` that a part should test before each
    piece of its work.  On threads it is set when a part raises, and when
    the calling thread is interrupted, so the other parts end early.  A
    forked part runs to its end unless the calling thread's part raises or
    is interrupted, which kills it.  Every thread is joined, and every
    process reaped, before this returns or raises; the exception of the
    lowest part that raised is then raised here, and a forked part that
    ends without a result raises ``LostPartError``.
    """
    stop = threading.Event()
    state = dict(np.geterr(), call=np.geterrcall())

    def attempt(part: int) -> tuple[bool, object]:
        """(True, the part's value), or (False, the exception it raised)."""
        try:
            with np.errstate(**state):
                return True, work(part, stop)
        except BaseException as exc:  # noqa: BLE001 - raised in the caller after the join
            stop.set()
            return False, exc

    if fork and parts > 1:
        outcomes = _forked(attempt, parts, name)
    else:
        outcomes = _threaded(attempt, stop, parts, name)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _threaded(attempt, stop: threading.Event, parts: int, name: str) -> list:
    """Each part's ``attempt``, part 0 on the calling thread and every other
    part on its own thread, joined before this returns or raises."""
    outcomes = [None] * parts

    def run(part: int):
        outcomes[part] = attempt(part)

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
    return outcomes


def _forked(attempt, parts: int, name: str) -> list:
    """Each part's ``attempt``, part 0 on the calling thread and every other
    part in its own forked child, which sends its outcome back pickled
    through a pipe.  The children are killed when part 0 fails or this
    thread is interrupted, and every child is reaped before this returns or
    raises; a child that exits without a whole outcome is a
    ``LostPartError``."""
    live, reads, received = {}, {}, {}    # unreaped pid -> part; part -> read end, outcome
    try:
        for part in range(1, parts):
            reads[part], write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(write)
                raise
            if pid == 0:
                _child(attempt, part, write)
            live[pid] = part
            os.close(write)
        first = attempt(0)
        if not first[0]:
            _kill(live)
        for pid, part in list(live.items()):
            with open(reads[part], "rb", closefd=False) as pipe:
                data = pipe.read()
            exitcode = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del live[pid]
            received[part] = (pickle.loads(data) if exitcode == 0
                              else (False, LostPartError(name, part, exitcode)))
    except BaseException:
        _kill(live)
        for pid in live:
            os.waitpid(pid, 0)
        raise
    finally:
        for read in reads.values():
            os.close(read)
    return [first, *(received[part] for part in range(1, parts))]


def _kill(pids):
    import signal
    for pid in pids:
        os.kill(pid, signal.SIGKILL)


def _child(attempt, part: int, write: int):
    """In a forked child: send ``attempt(part)`` pickled through the pipe
    end ``write`` (or, when it does not pickle, the error pickling raised)
    and leave by ``os._exit``, never returning into the caller's frames."""
    exitcode = 1
    try:
        outcome = attempt(part)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - fails this part in the parent
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        exitcode = 0
    finally:
        os._exit(exitcode)
