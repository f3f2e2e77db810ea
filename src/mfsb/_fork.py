"""Forked children: how many may run, the one way to run one, and the
arrays a child shares with its parent.

solver.solve_ahead starts one Child per bridge it solves ahead, and
solver._descend one helper that takes a block of each iteration's rows.
Both count their children here, so neither starts one while the other's
hold the idle CPUs, and a forked child starts none of its own.

blas_calls reads and sets the thread count of numpy's OpenBLAS.  The
descent holds it at one while its helper lives: a second BLAS thread gains
nothing on the descent's products, and it keeps spinning on the CPU the
helper needs.

A Child is a call server.  Child(body, *state) forks a process that holds
state; each call(*args) pickles args into its inbox, and _serve, the one
loop that reads an inbox, runs body(*state, *args) and sends back its value
for answer to read, one per call in turn.  A value is pickled whole before
it is written, so one that cannot be pickled raises in the child; an
exception that escapes body is sent the same way, as the child's last
answer.  A wait for an answer, or for a child's next call, first polls its
pipe for up to _POLL_S: an answer that comes within microseconds is then
read without the sleep and wake-up of a blocking read, which cost tens of
microseconds on a virtual machine.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import select
import sys
import time

import numpy as np

_RUNNING: set = set()  # pids of the children this process forked and did not reap
_IN_CHILD = False      # set in a forked child
_POLL_S = 2e-3         # how long a wait on a pipe polls before it sleeps


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


@functools.cache
def blas_calls():
    """(get, set): the C calls that read and set OpenBLAS's thread count,
    found through numpy's own extension module, whose lookup also searches
    the libraries it links; None where numpy's BLAS has no such calls.
    Looked up at the first call, not at import."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        try:
            get, put = (getattr(library, name.format(verb)) for verb in ("get", "set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def _poll(fd: int):
    """Return once fd is readable, or after _POLL_S, checking in a loop
    that yields the CPU to any other runnable thread instead of sleeping.

    Only a shortcut: the read that follows waits for what has not come."""
    end = time.perf_counter() + _POLL_S
    while not select.select([fd], [], [], 0)[0] and time.perf_counter() < end:
        os.sched_yield()


def shared_arrays(*specs) -> list:
    """Zeroed arrays, one per (shape, dtype) spec, in one anonymous shared
    mapping: a child forked after they were made writes into the same
    memory as its parent."""
    import mmap
    starts, size = [], 0
    for shape, dtype in specs:
        starts.append(size)
        size += -(-np.dtype(dtype).itemsize * math.prod(shape) // 64) * 64
    buffer = mmap.mmap(-1, max(size, 1))
    return [np.frombuffer(buffer, dtype, math.prod(shape), start).reshape(shape)
            for (shape, dtype), start in zip(specs, starts)]


class Child:
    """body(*state, *args) run in a forked child for each call(*args).

    Standard streams are flushed before the fork, so the child never writes
    this process's buffers again.  os._exit ends the child, without the
    parent's exit handlers: with status 0 once its inbox closes, and 1 after
    body raises.  The caller must call stop.
    """

    def __init__(self, body, *state):
        global _IN_CHILD
        inbox, self._inbox = os.pipe()
        answers, replies = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (inbox, self._inbox, answers, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                _IN_CHILD = True
                os.close(self._inbox)
                os.close(answers)
                with open(replies, "wb") as out:
                    try:
                        _serve(body, state, inbox, out)
                        code = 0
                    except BaseException as exc:  # sent, and it ends the child
                        import traceback
                        _send(out, traceback.format_exc(), exc)
            finally:
                os._exit(code)
        _RUNNING.add(self.pid)
        os.close(inbox)
        os.close(replies)
        self._answers = open(answers, "rb")
        self.name = body.__name__
        self.status = None  # the exit status, once reaped

    def call(self, *args):
        """Ask the child to run body(*state, *args); answer reads its value."""
        os.write(self._inbox, pickle.dumps(args))

    def answer(self):
        """The value of the child's next call, or the exception it raised,
        raised here chained to its traceback.  A child that ends without
        answering is stopped and raises RuntimeError with its exit status."""
        _poll(self._answers.fileno())
        try:
            text, value = pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):
            self.stop()
            raise RuntimeError(f"child {self.pid} ({self.name}) sent no result "
                               f"(exit status {self.status})") from None
        if text is None:
            return value
        raise value from ChildTraceback(text)

    def stop(self):
        """Close both pipes, then kill and reap the child; once stopped, do
        nothing."""
        if self.status is not None:
            return
        import signal
        os.close(self._inbox)
        self._answers.close()
        os.kill(self.pid, signal.SIGKILL)
        _, status = os.waitpid(self.pid, 0)
        _RUNNING.discard(self.pid)
        self.status = os.waitstatus_to_exitcode(status)


def _serve(body, state: tuple, inbox: int, out):
    """The child's loop: for each args read from inbox, send the value of
    body(*state, *args); return once the inbox closes."""
    with open(inbox, "rb") as calls:
        while True:
            _poll(inbox)
            try:
                args = pickle.load(calls)
            except EOFError:
                return
            _send(out, None, body(*state, *args))


def _send(out, text, value):
    """Write (text, value) to out, pickled whole before any byte is written."""
    out.write(pickle.dumps((text, value)))
    out.flush()
