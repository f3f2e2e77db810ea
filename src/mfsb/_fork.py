"""Forked children: how many may run, how one starts, ends and is reaped.

solver.solve_ahead forks one child per bridge it solves ahead, and
dynamics.tanaka_theta forks one drift helper.  Both count their children
here, so neither starts one while the other's hold the idle CPUs, and a
forked child starts none of its own.
"""

from __future__ import annotations

import os
import pickle
import sys

_RUNNING: set = set()  # pids of the children this process forked and did not reap
_IN_CHILD = False      # set in a forked child


class ChildTraceback(Exception):
    """The traceback of an exception raised in a child, as its text."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def spare_cpus() -> int:
    """Usable CPUs beyond this process's own and those of its running
    children; 0 in a forked child and where os.fork does not exist."""
    if _IN_CHILD or not hasattr(os, "fork"):
        return 0
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return max(usable - 1 - len(_RUNNING), 0)


def fork(body, *args) -> int:
    """Run body(*args) in a forked child and return the child's pid.

    Standard streams are flushed first, so the child never writes this
    process's buffers again.  os._exit ends the child, with status 0 once
    body returns and 1 if it raises, without the parent's exit handlers.
    """
    global _IN_CHILD
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _IN_CHILD = True
            _RUNNING.clear()  # the parent's children; this process reaps none
            body(*args)
            code = 0
        finally:
            os._exit(code)
    _RUNNING.add(pid)
    return pid


def reap(pid: int) -> int:
    """Wait for a child to end and return its wait status."""
    _, status = os.waitpid(pid, 0)
    _RUNNING.discard(pid)
    return status


def kill(pid: int):
    """Kill a child and reap it."""
    import signal
    os.kill(pid, signal.SIGKILL)
    reap(pid)


def outcome(fn, *args) -> bytes:
    """fn(*args) as a pickled (True, result, None), or the exception it
    raised as failure() pickles it."""
    try:
        return pickle.dumps((True, fn(*args), None))
    except BaseException:
        return failure()


def failure() -> bytes:
    """The exception being handled, pickled as (False, exception, traceback
    text)."""
    import traceback
    return pickle.dumps((False, sys.exc_info()[1], traceback.format_exc()))


def collect(pid: int, fd: int, what: str, head: bytes):
    """Read the pickled outcome a child writes to fd, after head, up to the
    end of the pipe; reap the child, and return the outcome's result or
    raise its exception here, chained to the child's traceback."""
    chunks = [head]
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    status = reap(pid)
    if not any(chunks):
        raise RuntimeError(f"child {pid} {what} sent no result "
                           f"(exit status {os.waitstatus_to_exitcode(status)})")
    ok, value, text = pickle.loads(b"".join(chunks))
    if ok:
        return value
    raise value from ChildTraceback(text)
