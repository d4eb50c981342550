"""csufs.parts on toy jobs: results in order, the lost-part policy, killing
the children, and where cut places the shares."""

import functools
import os
import pickle
import signal
import time

import pytest

import csufs.parts
from csufs.parts import cut, in_parts, one_blas_thread


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def toy_jobs(here, lose=None):
    """Three jobs; job i returns f"r{i}" and, when it runs in this process,
    appends i to here. In a child, job 1 calls lose first, if given."""
    parent = os.getpid()

    def job(i):
        if os.getpid() == parent:
            here.append(i)
        elif i == 1 and lose is not None:
            lose()
        return f"r{i}"

    return [functools.partial(job, i) for i in range(3)]


def test_results_come_back_in_job_order():
    here = []
    with in_parts(toy_jobs(here)) as results:
        assert list(results) == ["r0", "r1", "r2"]
    assert here == [0]  # the jobs past the first ran in children
    assert_no_children()


def fail_first_fork(monkeypatch):
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) == 1:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)


def truncate_pickles(monkeypatch, lost):
    """Children send only the first half of the pickle of each result
    that lost(result) holds for."""

    def dump(obj, file, protocol):
        data = pickle.dumps(obj, protocol=protocol)
        file.write(data[: len(data) // 2] if lost(obj) else data)

    monkeypatch.setattr(pickle, "dump", dump)  # the children inherit it; this process only loads


def truncate_middle_pickle(monkeypatch):
    truncate_pickles(monkeypatch, lambda obj: obj == "r1")


@pytest.mark.parametrize(
    "setup, lose",
    [
        (fail_first_fork, None),
        (None, lambda: os._exit(3)),
        (None, lambda: os.kill(os.getpid(), signal.SIGKILL)),
        (truncate_middle_pickle, None),
    ],
    ids=["fork-fails", "exits-non-zero", "killed", "truncated-pickle"],
)
def test_lost_middle_part_is_redone_here_once(monkeypatch, setup, lose):
    if setup is not None:
        setup(monkeypatch)
    here = []
    with in_parts(toy_jobs(here, lose)) as results:
        assert list(results) == ["r0", "r1", "r2"]
    assert here == [0, 1]  # its own job and the lost one, each once
    assert_no_children()


def sleeping_jobs():
    """Three jobs whose children sleep for a minute before they deliver."""
    parent = os.getpid()

    def job(i):
        if os.getpid() != parent:
            time.sleep(60)
        return i

    return [functools.partial(job, i) for i in range(3)]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_in_the_block_kills_every_child(error):
    started = time.perf_counter()
    with pytest.raises(error):
        with in_parts(sleeping_jobs()):
            raise error("stopped")
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert_no_children()


def test_caller_stopping_early_kills_every_child():
    started = time.perf_counter()
    with in_parts(sleeping_jobs()) as results:
        assert next(results) == 0
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_cut_gives_equal_shares_up_to_the_cpus_and_the_limit(monkeypatch, cpus):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: cpus)
    for total in range(13):
        for limit in range(-1, 7):
            bounds = cut(total, limit)
            assert len(bounds) - 1 == max(1, min(cpus, limit, total))
            assert bounds[0] == 0 and bounds[-1] == total
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("total, limit, bounds", [(3, 10, [0, 1, 2, 3]), (0, 5, [0, 0])], ids=["three-items", "none"])
def test_cut_never_gives_more_parts_than_items(monkeypatch, total, limit, bounds):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: 4)
    assert cut(total, limit) == bounds


def test_cut_never_exceeds_the_usable_cpus():
    assert len(cut(1000, 1000)) - 1 <= csufs.parts.usable_cpus()


def test_cut_gives_one_part_without_fork(monkeypatch):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert cut(10, 5) == [0, 10]


def blas_threads_or_skip():
    threads = csufs.parts._blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread control in this process")
    return threads


def test_one_blas_thread_restores_the_count_after_an_error():
    get, put = blas_threads_or_skip()
    before = get()
    put(2)
    try:
        held = get()  # 2, or fewer where OpenBLAS was built for fewer
        with pytest.raises(RuntimeError):
            with one_blas_thread() as pinned:
                assert pinned and get() == 1
                raise RuntimeError("stopped")
        assert get() == held
    finally:
        put(before)


def test_one_blas_thread_yields_false_without_a_library(monkeypatch):
    monkeypatch.setattr(csufs.parts, "_blas_threads", lambda: None)
    with one_blas_thread() as pinned:
        assert pinned is False
