"""Forked children: how many may run, and the one way to run one.

solver.solve_ahead starts one Child per bridge it solves ahead, and
dynamics.tanaka_theta one drift helper.  Both count their children here,
so neither starts one while the other's hold the idle CPUs, and a forked
child starts none of its own.

A Child runs body(*args, inbox, reply) in a forked process.  The parent
writes to inbox with send; body answers with reply(value), any number of
times, and answer reads each value in turn.  A reply is pickled before any
of it is written, so a value that cannot be pickled raises in body, and an
exception that escapes body is sent in the same way, as its last answer.
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


class Child:
    """body(*args, inbox, reply) running in a forked child.

    Standard streams are flushed before the fork, so the child never writes
    this process's buffers again.  os._exit ends the child, with status 0
    once body returns and 1 if it raises, without the parent's exit
    handlers.  The caller must call stop.
    """

    def __init__(self, body, *args):
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
                        body(*args, inbox, lambda value: _send(out, None, value))
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

    def send(self, data: bytes):
        """Write data to the child's inbox."""
        os.write(self._inbox, data)

    def answer(self):
        """The child's next reply, or the exception it raised, raised here
        chained to its traceback.  A child that ends without answering is
        stopped and raises RuntimeError with its exit status."""
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


def _send(out, text, value):
    """Write (text, value) to out, pickled whole before any byte is written."""
    out.write(pickle.dumps((text, value)))
    out.flush()
