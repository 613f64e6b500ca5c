import os

import pytest

from supercoinv import forked


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("one worker forked a child")

    monkeypatch.setattr(os, "fork", no_fork)
    assert forked.run(5, 1, lambda i: i * i) == [0, 1, 4, 9, 16]


def test_three_workers_return_results_in_index_order(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three workers on any host
    # tuples and int-keyed dicts cross the result pipes unchanged
    results = forked.run(10, 3, lambda i: (i, {i: [i * i]}))
    assert results == [(i, {i: [i * i]}) for i in range(10)]
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_capped_before_any_fork(monkeypatch):
    # min(requested, tasks, CPUs), decided without starting a worker
    def no_fork():
        raise AssertionError("the cap started a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    for cpus, want in ((None, 1), (1, 1), (2, 2), (64, 9)):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert forked._worker_count(10**9, 9) == want
    assert forked._worker_count(3, 9) == 3
    assert forked._worker_count(5, 1) == 1
    monkeypatch.delattr(os, "fork")
    assert forked._worker_count(10**9, 9) == 1


def test_a_task_that_raises_in_a_child_loses_its_worker(monkeypatch):
    # the child that takes a task ends without its results: once it is
    # reaped, the run raises how it ended and leaves no child behind
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a second worker on any host
    parent = os.getpid()
    child_gone, child_holds = os.pipe()

    def task(i):
        if os.getpid() != parent:
            raise ValueError(i)
        # in the parent, wait for the child to end, so it takes the other task
        os.close(child_holds)
        assert os.read(child_gone, 1) == b""
        return i

    try:
        with pytest.raises(ChildProcessError, match="exit status 1"):
            forked.run(2, 2, task)
    finally:
        os.close(child_gone)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_task_that_raises_in_the_parent_reaches_the_caller(monkeypatch):
    # the child blocks in its task for ever; the parent's error kills and
    # reaps it, then reaches the caller unchanged
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a second worker on any host
    parent = os.getpid()
    never, held = os.pipe()

    def task(i):
        if os.getpid() != parent:
            os.read(never, 1)  # every holder of ``held`` is alive: no EOF
        raise ValueError("in the parent")

    try:
        with pytest.raises(ValueError, match="in the parent"):
            forked.run(2, 2, task)
    finally:
        os.close(never)
        os.close(held)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
