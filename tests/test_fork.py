"""The call protocol of _fork.Child: each call(*args) runs body(*state, *args)
in the forked child, and answer reads its value or raises its exception."""

import operator
import os

import pytest

from mfsb import _fork


def _exited(child) -> None:
    """Wait until the child has exited, leaving it for stop to reap."""
    os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)


def _apply(state, function, *args):
    return os.getpid(), list(state), function(*args)


def test_calls_are_answered_in_order_on_the_forked_state(time_bound):
    state = [1, 2]
    child = _fork.Child(_apply, state)
    try:
        state.append(3)  # after the fork: the child's state is its own copy
        assert child.pid in _fork._RUNNING
        child.call(operator.add, 2, 3)
        child.call(operator.mul, 4, 5)
        first, second = child.answer(), child.answer()
        child.call(max, [7, 9, 8])
        third = child.answer()
    finally:
        child.stop()
    assert first == (child.pid, [1, 2], 5)
    assert second == (child.pid, [1, 2], 20)
    assert third == (child.pid, [1, 2], 9)
    assert _fork._RUNNING == set()


def test_a_child_whose_inbox_closes_exits_with_status_0(time_bound):
    child = _fork.Child(_apply, ())
    os.close(child._inbox)
    child._inbox = os.open(os.devnull, os.O_WRONLY)  # for stop to close
    _exited(child)
    child.stop()
    assert child.status == 0
    assert _fork._RUNNING == set()


def _raise(message):
    raise ValueError(message)


def test_an_exception_in_body_is_raised_by_answer(time_bound):
    child = _fork.Child(_raise)
    try:
        child.call("body broke")
        with pytest.raises(ValueError, match="body broke") as raised:
            child.answer()
        _exited(child)
    finally:
        child.stop()
    cause = raised.value.__cause__
    assert isinstance(cause, _fork.ChildTraceback)
    assert "in _raise" in str(cause) and "ValueError: body broke" in str(cause)
    assert child.status == 1
    assert _fork._RUNNING == set()


def test_a_value_that_cannot_be_pickled_comes_back_as_an_exception(time_bound):
    child = _fork.Child(lambda: lambda: None)
    try:
        child.call()
        with pytest.raises(Exception, match="pickle") as raised:
            child.answer()
        _exited(child)
    finally:
        child.stop()
    assert isinstance(raised.value.__cause__, _fork.ChildTraceback)
    assert "in _send" in str(raised.value.__cause__)
    assert child.status == 1
    assert _fork._RUNNING == set()

