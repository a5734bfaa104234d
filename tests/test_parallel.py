import os
import sys

import numpy as np
import pytest

from crosscity import parallel

from conftest import assert_no_child_left


@pytest.fixture
def cpus(monkeypatch):
    """Sets `parallel.worker_count` to give min(n, tasks) workers from now on."""
    def pin(n):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(sys, "platform", "linux")
    return pin


def test_every_worker_writes_the_shared_array(cpus):
    cpus(3)
    out = parallel.shared_empty((5, 2))

    def fn(item):
        out[item] = [item, os.getpid()]

    parallel.for_each(fn, range(5))
    assert_no_child_left()
    assert out[:, 0].tolist() == [0, 1, 2, 3, 4]
    # item k on worker k mod 3: worker 0 is the caller, 1 and 2 children
    pids = out[:, 1].astype(int).tolist()
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] and len({pids[0], pids[1], pids[2]}) == 3


def test_the_callers_own_exception_wins_and_every_child_is_reaped(cpus):
    cpus(3)

    def fn(item):
        raise KeyError(item)

    with pytest.raises(KeyError) as exc:
        parallel.for_each(fn, range(3))
    assert exc.value.args == (0,)
    assert_no_child_left()


def test_a_child_that_exits_without_a_report(cpus):
    cpus(2)

    def fn(item):
        if item:
            os._exit(3)

    with pytest.raises(ChildProcessError, match="exit code 3"):
        parallel.for_each(fn, range(2))
    assert_no_child_left()


class Unloadable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_unpickle_is_named(cpus):
    cpus(2)

    def fn(item):
        if item:
            raise Unloadable(1, 2)

    with pytest.raises(ChildProcessError, match="^Unloadable: 1 and 2$"):
        parallel.for_each(fn, range(2))
    assert_no_child_left()
