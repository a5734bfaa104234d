import os

import numpy as np
import pytest

from crosscity import parallel

from conftest import assert_no_child_left


def test_every_worker_writes_the_shared_array():
    out = parallel.shared_empty((3, 2))

    def work(k):
        out[k] = [k, 10 * k]

    parallel.fork_join(work, 3)
    assert_no_child_left()
    assert np.array_equal(out, [[0, 0], [1, 10], [2, 20]])


def test_shared_empty_of_no_rows():
    assert parallel.shared_empty((0, 3)).shape == (0, 3)


def test_the_callers_own_exception_wins_and_every_child_is_reaped():
    def work(k):
        raise KeyError(k)

    with pytest.raises(KeyError) as exc:
        parallel.fork_join(work, 3)
    assert exc.value.args == (0,)
    assert_no_child_left()


def test_a_child_that_exits_without_a_report():
    def work(k):
        if k:
            os._exit(3)

    with pytest.raises(ChildProcessError, match="exit code 3"):
        parallel.fork_join(work, 2)
    assert_no_child_left()


class Unloadable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_unpickle_is_named():
    def work(k):
        if k:
            raise Unloadable(1, 2)

    with pytest.raises(ChildProcessError, match="^Unloadable: 1 and 2$"):
        parallel.fork_join(work, 2)
    assert_no_child_left()
