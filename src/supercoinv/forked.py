"""Tasks run by forked workers that pull task indices from one pipe.

``run`` queues every task index, forks ``workers - 1`` children and works the
queue itself as the last worker, so one worker forks nothing.  Per-worker
state is what the parent built before ``run``: each child inherits a copy.
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


def _worker(indices, work, describe) -> tuple:
    """({index: result}, None or (index, error line)) of the tasks at ``indices``.

    It stops at the first task that raises and drains ``indices``: every task
    still queued comes later in index order, so none needs to run.
    """
    done = {}
    for i in indices:
        try:
            done[i] = work(i)
        except Exception as exc:
            error = (i, describe(i, exc))
            for _later in indices:
                pass
            return done, error
    return done, None


def _child(queue: int, out: int, inherited: list, work, describe):
    """A forked worker: its outcome marshalled to ``out``; it never returns."""
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as fh:
            fh.write(marshal.dumps(_worker(_queued(queue), work, describe)))
        os._exit(0)
    finally:
        # no exit handler, stream flush or traceback of the parent's runs here
        os._exit(1)


def run(count: int, workers: int, work, describe) -> tuple:
    """(results of tasks 0..count-1 in index order, the first error line or None).

    ``work(i)`` is the result of task i, a value ``marshal`` carries, and
    ``describe(i, exc)`` the error line of task i raising ``exc``; a worker
    lost without its outcome is task -1 raising a ChildProcessError naming how
    it ended.  The first error is the one of least index, which a lone worker
    stops at; the results are then those of the tasks that finished.
    """
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_RECORD, "big") for i in range(count)))
    os.close(feed)
    children = []  # (pid, read end of its result pipe)
    finished = False
    try:
        for _ in range(workers - 1):
            result, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result)
                os.close(out)
                raise
            if pid == 0:
                _child(queue, out, [result] + [fd for _pid, fd in children], work, describe)
            os.close(out)
            children.append((pid, result))
        outcomes = [_worker(_queued(queue), work, describe)]
        # each read to EOF: the child has sent its whole outcome, or ended
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
        if data and status == 0:
            outcomes.append(marshal.loads(data))
        else:
            code = os.waitstatus_to_exitcode(status)
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            # index -1: a lost worker's tasks are unknown, so it outranks every error
            outcomes.append(({}, (-1, describe(-1, ChildProcessError(how)))))
    done = {i: res for results, _error in outcomes for i, res in results.items()}
    errors = [error for _results, error in outcomes if error is not None]
    return [done[i] for i in sorted(done)], min(errors)[1] if errors else None
