"""Tasks run by forked workers that pull task indices from one pipe.

``run`` queues every task index, forks one child fewer than its workers and
works the queue itself as the last worker, so one worker forks nothing.
Per-worker state is what the parent built before ``run``: each child
inherits a copy.
"""

import marshal
import os

__all__ = ["run"]

# a queued task index: fixed-size records, all written (one pipe buffer at most)
# before any worker reads, so each ``os.read`` of one record takes one task
_RECORD = 4


def _queued(queue: int):
    """The task indices on the queue pipe, one record per read, until EOF."""
    while record := os.read(queue, _RECORD):
        yield int.from_bytes(record, "big")


def _worker_count(requested: int, count: int) -> int:
    """The workers ``run`` starts: min(requested, tasks, CPUs), and one without fork."""
    if not hasattr(os, "fork"):
        return 1
    return min(requested, count, os.cpu_count() or 1)


def _child(queue: int, out: int, inherited: list, work):
    """A forked worker: its {index: result} marshalled to ``out``; it never returns."""
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as fh:
            fh.write(marshal.dumps({i: work(i) for i in _queued(queue)}))
        os._exit(0)
    finally:
        # no exit handler, stream flush or traceback of the parent's runs here
        os._exit(1)


def run(count: int, requested: int, work) -> list:
    """The results of tasks 0..count-1 in index order, on up to ``requested`` workers.

    ``work(i)`` is the result of task i, a value ``marshal`` carries.  The
    workers are capped by ``_worker_count``.  A task that raises in the
    parent reaches the caller once every child is killed and reaped; one
    that raises in a child loses that worker, and a lost worker raises a
    ChildProcessError naming how it ended once every child is reaped.
    """
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_RECORD, "big") for i in range(count)))
    os.close(feed)
    children = []  # (pid, read end of its result pipe)
    finished = False
    try:
        for _ in range(_worker_count(requested, count) - 1):
            result, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result)
                os.close(out)
                raise
            if pid == 0:
                _child(queue, out, [result] + [fd for _pid, fd in children], work)
            os.close(out)
            children.append((pid, result))
        done = {i: work(i) for i in _queued(queue)}
        # each read to EOF: the child has sent its whole result, or ended
        outputs = [open(fd, "rb", closefd=False).read() for _pid, fd in children]
        finished = True
    finally:
        os.close(queue)
        statuses = []
        for pid, fd in children:
            os.close(fd)
            if not finished:
                import signal  # only an interrupted run stops its workers

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for data, status in zip(outputs, statuses):
        if not data or status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"exit status {code}" if code >= 0 else f"signal {-code}")
        done.update(marshal.loads(data))
    return [done[i] for i in range(count)]
