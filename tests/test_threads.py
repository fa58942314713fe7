"""``_threads``' contract for parts on threads: ``run_parts``, which
``gridgen``'s threaded map evaluation calls, and a ``Part`` started without
``fork``, which ``fdm.start`` uses off Linux.  Forked parts are tested
through ``fdm.start`` in ``test_fdm.py``."""

import sys
import threading
import time

import numpy as np
import pytest

from stretchgrid import _threads
from stretchgrid._threads import Part, run_parts


def count_started(monkeypatch) -> list:
    """Record every thread started from now on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


def overflow():
    """Overflow a float64 multiplication, as numpy's error state allows."""
    return np.float64(1e308) * np.float64(10.0)


@pytest.mark.parametrize("parts", [1, 2, 3, 8])
def test_parts_1_on_start_on_named_threads_and_part_0_on_the_caller(monkeypatch, parts):
    started = count_started(monkeypatch)
    ran = []

    def work(part, stop):
        ran.append((part, threading.current_thread().name))
        return 10 * part

    before = threading.active_count()
    assert run_parts(work, parts, "job") == [10 * part for part in range(parts)]
    assert sorted(ran) == [(0, threading.current_thread().name),
                           *((part, f"job-{part}") for part in range(1, parts))]
    assert len(started) == parts - 1
    assert threading.active_count() == before


def test_many_threads_switching_often_run_every_part_once():
    # More threads than cores, switching as often as the interpreter
    # allows: every part runs exactly once and returns into its own slot.
    calls = []

    def work(part, stop):
        calls.append(part)
        return float(np.sum(np.full(1000 + part, float(part))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_parts(work, 40, "job")
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(40))
    assert out == [float(part * (1000 + part)) for part in range(40)]


@pytest.mark.parametrize("failing, raised", [
    ({0}, 0), ({1}, 1), ({2}, 2), ({1, 2}, 1), ({0, 1, 2}, 0)])
def test_the_lowest_failed_parts_error_is_raised_after_every_join(failing, raised):
    # A part that does not fail waits for ``stop``, which the failing part
    # sets (or, when part 0 fails, the cancel of every started part).
    def work(part, stop):
        if part in failing:
            raise ValueError(f"part {part}")
        assert stop.wait(30.0)

    before = threading.active_count()
    began = time.perf_counter()
    with pytest.raises(ValueError, match=f"^part {raised}$"):
        run_parts(work, 3, "job")
    assert time.perf_counter() - began < 15.0
    assert threading.active_count() == before


@pytest.mark.parametrize("when", ["in part 0", "while joining part 1"])
def test_an_interrupt_in_the_calling_thread_stops_and_joins_every_part(monkeypatch, when):
    # Parts 1 and 2 would wait a minute for ``stop``.
    result = Part.result

    def interrupted(part):
        if part.part == 1:
            raise KeyboardInterrupt
        return result(part)

    def work(part, stop):
        if part == 0:
            if when == "in part 0":
                raise KeyboardInterrupt
            return None
        stop.wait(60.0)

    if when != "in part 0":
        monkeypatch.setattr(Part, "result", interrupted)
    before = threading.active_count()
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_parts(work, 3, "job")
    assert time.perf_counter() - began < 30.0
    assert threading.active_count() == before


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_every_part_runs_under_the_callers_error_state(parts):
    # Only the last part overflows; a thread of its own would otherwise run
    # under numpy's default state and warn instead.
    def work(part, stop):
        return overflow() if part == parts - 1 else 0.0

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            run_parts(work, parts, "job")
    seen = []
    with np.errstate(over="call", call=lambda kind, flag: seen.append(kind)):
        out = run_parts(work, parts, "job")
    assert np.isinf(out[-1]) and out[:-1] == [0.0] * (parts - 1)
    assert seen == ["overflow"]


def test_a_threaded_part_returns_its_value_or_raises_its_error():
    part = Part(lambda part, stop: threading.current_thread().name, 3, "job")
    assert part.result() == "job-3"
    assert part.result() == "job-3"

    def failing(part, stop):
        raise ValueError("failed")

    part = Part(failing, 0, "job")
    with pytest.raises(ValueError, match="failed"):
        part.result()
    assert part.stop.is_set()


def test_cancelling_a_threaded_part_sets_its_stop_and_joins_it():
    stop = threading.Event()
    before = threading.active_count()
    part = Part(lambda part, stop: stop.wait(60.0), 0, "job", stop=stop)
    began = time.perf_counter()
    part.cancel()
    assert time.perf_counter() - began < 30.0
    assert stop.is_set()
    assert threading.active_count() == before
    part.cancel()   # again, harmlessly


def test_a_part_on_a_thread_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_threads.os, "fork", no_fork)
    assert Part(lambda part, stop: part, 2, "job").result() == 2
    assert run_parts(lambda part, stop: part, 3, "job") == [0, 1, 2]
