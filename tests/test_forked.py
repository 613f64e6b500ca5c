import os

import pytest

from supercoinv import forked


def _describe(i, exc):
    return f"task {i}: {exc!r}"


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("one worker forked a child")

    monkeypatch.setattr(os, "fork", no_fork)
    assert forked.run(5, 1, lambda i: i * i, _describe) == ([0, 1, 4, 9, 16], None)


def test_three_workers_return_results_in_index_order(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # tuples and int-keyed dicts cross the result pipes unchanged
    results, error = forked.run(10, 3, lambda i: (i, {i: [i * i]}), _describe)
    assert (results, error) == ([(i, {i: [i * i]}) for i in range(10)], None)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
