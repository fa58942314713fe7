"""The package's one policy for running the parts of a job at the same time:
how many parts, and where each runs.  ``fdm.start`` and ``gridgen``'s map
evaluation call it.

A ``Part`` is one part of a job, started when it is made and joined later by
``result()``: in a child process made by ``os.fork()`` when its caller asks
(``fork``), else on a thread of its own.  ``cancel()`` kills and reaps the
child, or stops and joins the thread.  ``fdm.start`` starts a whole march as
one ``Part`` and leaves the calling thread free.  ``run_parts`` starts parts
1.. on threads, runs part 0 on the calling thread, and joins them; only
``gridgen``'s threaded map evaluation calls it.

Threads share one GIL: every release of it in a part (a ``ctypes`` call, a
numpy pass over a long vector) hands the interpreter to another part that
needs it back, and two parts that both step in Python wait on each other at
every handoff.  Measured on a 2-CPU host, a large reference marched beside a
stack of small blocks on another thread took about 1.8x its wall alone for
the same CPU seconds, and a march on a thread beside grid building in the
calling thread waits the same way.  A forked part has an interpreter of
its own, shares nothing after the fork and synchronises nothing until it
sends its result back through a pipe (pickled); one fork and its round trip
cost about 1.8 ms there.  ``fdm.start`` forks where ``FORK`` holds, which is
only on Linux, where glibc and OpenBLAS install fork handlers.  macOS is
left on threads (``multiprocessing`` has treated fork as unsafe there since
Python 3.8), as is Windows, which has no fork.  ``gridgen`` keeps threads
everywhere: each of its chunks releases the GIL once and writes into one
shared output.  A child runs only its part's work and leaves by
``os._exit``: it never returns into the caller's frames, so it never
cancels, joins or reaps the parts whose handles it inherited.  CPython 3.12
and later warns (``DeprecationWarning``) on ``os.fork`` in a process that
runs other threads, and numpy's OpenBLAS keeps a pool thread for each further
CPU unless ``OPENBLAS_NUM_THREADS=1`` (its fork handler shuts the pool down
before each fork), so there a started march may warn.

A forked child starts on the CPU that the fewest of this process's
unreaped children, and its calling thread, were last seen on: it pins
itself there and at once takes back every CPU it may run on, so the kernel
stays free to move it.  On a 2-CPU Linux VM the kernel was seen to leave a
new child on its parent's CPU for up to 0.66 s while the other CPU idled,
so that a parent and its child, both busy, ran at half speed each; placed,
they ran side by side from the start.

Each part runs under the numpy error state (``np.geterr()`` and
``np.geterrcall()``) of the thread that starts it, which a new thread would
otherwise not inherit, so a part raises exactly what it would raise on that
thread.
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


def _attempt(work, part: int, stop: threading.Event, state: dict) -> tuple[bool, object]:
    """(True, ``work(part, stop)``) under the numpy error ``state``, or
    (False, the exception it raised), which also sets ``stop``."""
    try:
        with np.errstate(**state):
            return True, work(part, stop)
    except BaseException as exc:  # noqa: BLE001 - raised by whoever joins the part
        stop.set()
        return False, exc


class Part:
    """Part ``part`` of a job, ``work(part, stop)``, started now and joined
    later: in its own forked child with ``fork``, else on a thread named
    ``f"{name}-{part}"``, under the starting thread's numpy error state.

    ``stop`` is a ``threading.Event`` that the part should test before each
    piece of its work; parts on threads may share one, and a part that
    raises sets it.  ``result()`` waits for the part and returns its value or
    raises its exception; a child that ends without sending a whole outcome
    raises ``LostPartError``, and an outcome that does not pickle fails the
    part with pickle's own error.  ``cancel()`` kills (SIGKILL) and reaps the
    child, or sets ``stop`` and joins the thread; it drops the outcome and
    may be called at any time, also after ``result()``.  Until the one or
    the other, a forked part's child is left unreaped.  A forked part keeps
    in this process only the child's pid and the pipe its outcome comes
    through, not ``work`` nor anything ``work`` holds.
    """

    def __init__(self, work, part: int, name: str, fork: bool = False,
                 stop: threading.Event | None = None):
        self.name, self.part = name, part
        self.stop = stop if stop is not None else threading.Event()
        self._outcome = self._pid = self._read = self._thread = None
        args = (work, part, self.stop, dict(np.geterr(), call=np.geterrcall()))
        if not fork:
            self._thread = threading.Thread(target=self._run, args=args, name=f"{name}-{part}")
            self._thread.start()
            return
        cpu = _cpu_for_child()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            _child(args, write, cpu)
        os.close(write)
        self._pid, self._read = pid, read
        if cpu is not None:
            _placed[pid] = cpu

    def _run(self, *args):
        self._outcome = _attempt(*args)

    def result(self):
        """The part's value, once it has ended; its exception is raised."""
        if self._outcome is None:
            if self._thread is not None:
                self._thread.join()
            else:
                with open(self._read, "rb", closefd=False) as pipe:
                    data = pipe.read()
                exitcode = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
                _placed.pop(self._pid, None)
                self._pid = None
                os.close(self._read)
                self._read = None
                self._outcome = (pickle.loads(data) if exitcode == 0 else
                                 (False, LostPartError(self.name, self.part, exitcode)))
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def cancel(self):
        """Kill and reap the child, or stop and join the thread."""
        if self._pid is not None:
            import signal   # only here: ``import stretchgrid`` does not load it
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            _placed.pop(self._pid, None)
            self._pid = None
        if self._read is not None:
            os.close(self._read)
            self._read = None
        if self._thread is not None:
            self.stop.set()
            self._thread.join()


# The CPU each forked part not yet reaped was started on, by pid.
_placed: dict[int, int] = {}


def _cpu() -> int | None:
    """The CPU the calling thread last ran on (Linux's ``processor`` field
    of ``/proc/thread-self/stat``), or ``None`` where it cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])   # field 39
    except (OSError, IndexError, ValueError):
        return None


def _cpu_for_child() -> int | None:
    """The CPU a new forked part should start on: of the CPUs this process
    may run on, the one that the fewest of its unreaped forked parts were
    started on, the calling thread's own CPU counting as one more (a tie
    goes to the calling thread's CPU, then to the lowest).  ``None`` with
    one CPU, or where the calling thread's CPU cannot be read."""
    cpus = sorted(os.sched_getaffinity(0))
    here = _cpu()
    if len(cpus) < 2 or here is None:
        return None
    load = dict.fromkeys(cpus, 0)
    for cpu in [*_placed.values(), here]:
        if cpu in load:
            load[cpu] += 1
    return min(cpus, key=lambda cpu: (load[cpu], cpu != here, cpu))


def _child(args: tuple, write: int, cpu: int | None):
    """In a forked child: move to ``cpu`` (unless ``None``), send
    ``_attempt(*args)`` pickled through the pipe end ``write`` (or, when it
    does not pickle, the error pickling raised) and leave by ``os._exit``,
    never returning into the caller's frames.

    The move pins the child to ``cpu`` and at once gives it back every CPU
    it may run on: the kernel moves it there and is free to move it again.
    """
    exitcode = 1
    try:
        if cpu is not None:
            allowed = os.sched_getaffinity(0)
            try:
                os.sched_setaffinity(0, {cpu})
                os.sched_setaffinity(0, allowed)
            except OSError:
                pass   # a CPU taken away since: the kernel places the child
        outcome = _attempt(*args)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - fails this part in the parent
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        exitcode = 0
    finally:
        os._exit(exitcode)


def run_parts(work, parts: int, name: str) -> list:
    """Call ``work(part, stop)`` for every part in ``range(parts)`` at the
    same time, and return what each call returns, in part order.  Parts
    1.. start as ``Part``s on threads named ``f"{name}-{part}"`` that share
    one ``stop``; part 0 then runs on the calling thread, and the others are
    joined in order (with one part nothing starts).

    A part that raises sets ``stop``, so the other parts end early.  When
    part 0 or a join raises, or the calling thread is interrupted, every
    part still running is stopped and joined before this raises; so the
    exception raised is that of the lowest part that raised.  Every part has
    ended before this returns or raises.
    """
    stop = threading.Event()
    started: list[Part] = []
    try:
        for part in range(1, parts):
            started.append(Part(work, part, name, stop=stop))
        ok, first = _attempt(work, 0, stop, dict(np.geterr(), call=np.geterrcall()))
        if not ok:
            raise first
        return [first, *(part.result() for part in started)]
    except BaseException:
        for part in started:
            part.cancel()
        raise
