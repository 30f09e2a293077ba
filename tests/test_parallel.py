"""The contract of ``parallel.fork_map``, at 1, 2 and 3 processes."""

import os
import threading

import pytest

from stabgen.parallel import fork_map

PROCESSES = [1, 2, 3]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # not running, and not a zombie either
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    real = os.fork
    children = []

    def fork():
        pid = real()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


@pytest.mark.parametrize("processes", PROCESSES)
def test_results_come_back_in_item_order(processes, forks):
    items = list(range(11))
    assert fork_map(lambda x: (x, x * x), items, processes) == [(x, x * x) for x in items]
    assert len(forks) == processes - 1


@pytest.mark.parametrize("processes", PROCESSES)
@pytest.mark.parametrize("n_items", [0, 1, 2])
def test_forks_at_most_one_child_per_item_but_the_first(processes, n_items, forks):
    assert fork_map(str, range(n_items), processes) == [str(i) for i in range(n_items)]
    assert len(forks) == max(0, min(processes, n_items) - 1)


@pytest.mark.parametrize("processes", PROCESSES)
def test_weights_deal_the_heaviest_item_to_this_process(processes):
    # by falling weight: 1 (5), 2 (3), 3 (2), 0 (1), each to the share that
    # weighs least so far, ties to the first; share 0 is this process
    pids = fork_map(lambda _: os.getpid(), "abcd", processes, [1, 5, 3, 2])
    me = os.getpid()
    if processes == 1:
        assert pids == [me] * 4
    elif processes == 2:
        assert pids[0] == pids[1] == me and pids[2] == pids[3] != me
    else:
        assert pids[1] == me and pids[0] == pids[3] not in (me, pids[2])
        assert pids[2] != me


class _Failure(Exception):
    pass


@pytest.mark.parametrize("processes", PROCESSES)
@pytest.mark.parametrize("failing", [0, 5])  # in this process's share; in the last share
def test_a_failure_reraises_its_own_type(processes, failing, forks):
    def job(x):
        if x == failing:
            raise _Failure(x)
        return x

    with pytest.raises(_Failure) as info:
        fork_map(job, range(6), processes)
    assert info.value.args == (failing,)
    assert len(forks) == processes - 1


@pytest.mark.parametrize("processes", PROCESSES)
def test_the_first_failing_share_wins(processes):
    def job(x):
        raise _Failure(x)

    with pytest.raises(_Failure) as info:
        fork_map(job, range(6), processes)
    assert info.value.args == (0,)


@pytest.mark.parametrize("processes", PROCESSES)
def test_a_child_that_dies_without_a_result_is_named(processes):
    me = os.getpid()

    def job(x):
        if os.getpid() != me:
            os._exit(3)
        return x

    if processes == 1:  # no child to die: this process runs every job
        assert fork_map(job, range(4), processes) == [0, 1, 2, 3]
        return
    with pytest.raises(RuntimeError, match="exited with status 3"):
        fork_map(job, range(4), processes)


class _HoldsALock(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()  # pickle.dumps fails


class _TwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(a)  # pickle.loads fails: __init__ gets only ``a``
        self.b = b


@pytest.mark.parametrize("processes", PROCESSES)
@pytest.mark.parametrize("make", [_HoldsALock, lambda: _TwoArguments(1, 2)])
def test_an_exception_that_cannot_be_pickled_arrives_as_its_repr(processes, make):
    def job(x):
        if x == 1:
            raise make()
        return x

    if processes == 1:  # raised in this process, so never pickled
        with pytest.raises((_HoldsALock, _TwoArguments)):
            fork_map(job, range(2), processes)
        return
    expected = repr(make())
    with pytest.raises(RuntimeError) as info:
        fork_map(job, range(2), processes)
    assert type(info.value) is RuntimeError
    assert info.value.args == (expected,)
