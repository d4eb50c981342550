"""csufs.parts on toy jobs: results in order, the claim queue, the lost-part
policy, killing the children, and where workers and pieces place the shares."""

import functools
import os
import pickle
import signal
import time

import pytest

import csufs.parts
from csufs.parts import QUEUE_MAX, in_parts, one_blas_thread, pieces, workers


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
    with in_parts(toy_jobs(here), 3) as results:
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
    truncate_pickles(monkeypatch, lambda obj: obj == [(1, "r1")])


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
    with in_parts(toy_jobs(here, lose), 3) as results:
        assert list(results) == ["r0", "r1", "r2"]
    assert here == [0, 1]  # its own job and the lost one, each once
    assert_no_children()


def sleeping_jobs(count=3):
    """count jobs whose children sleep for a minute before they deliver."""
    parent = os.getpid()

    def job(i):
        if os.getpid() != parent:
            time.sleep(60)
        return i

    return [functools.partial(job, i) for i in range(count)]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_error_in_the_block_kills_every_child(error):
    started = time.perf_counter()
    with pytest.raises(error):
        with in_parts(sleeping_jobs(), 3):
            raise error("stopped")
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert_no_children()


def test_caller_stopping_early_kills_every_child():
    started = time.perf_counter()
    with in_parts(sleeping_jobs(), 3) as results:
        assert next(results) == 0
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert_no_children()


def logging_jobs(log, count, act=None):
    """count jobs; job i appends "<pid> <i>" to the file log, calls act(i)
    next if given, and returns i * i."""

    def job(i):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {i}\n".encode())
        finally:
            os.close(fd)
        if act is not None:
            act(i)
        return i * i

    return [functools.partial(job, i) for i in range(count)]


def runs(log):
    """(pid, job index) of each run that log records, in order."""
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("workers", [2, 3])
def test_more_jobs_than_workers_run_each_once_in_job_order(tmp_path, workers):
    log = tmp_path / "runs"
    with in_parts(logging_jobs(log, 13, lambda i: time.sleep(0.002)), workers) as results:
        assert list(results) == [i * i for i in range(13)]
    ran = runs(log)
    assert sorted(i for _, i in ran) == list(range(13))  # each job once
    assert (os.getpid(), 0) in ran  # job 0 runs here
    assert len({pid for pid, _ in ran} - {os.getpid()}) <= workers - 1
    assert_no_children()


def test_as_many_workers_as_jobs_queue_nothing(tmp_path, monkeypatch):
    """Each job past the first runs in a child of its own, as with no queue."""
    queues = []
    monkeypatch.setattr(csufs.parts, "_queue", lambda indices: queues.append(indices))
    log = tmp_path / "runs"
    with in_parts(logging_jobs(log, 4), 4) as results:
        assert list(results) == [0, 1, 4, 9]
    ran = dict((i, pid) for pid, i in runs(log))
    assert queues == []
    assert ran[0] == os.getpid() and len(set(ran.values())) == 4
    assert_no_children()


def test_killed_child_has_exactly_its_jobs_redone_here(tmp_path):
    """The child of job 1 is killed on the first job it claims; every job it
    ran is done again here, and no job the other child delivered is."""
    parent, mine, log = os.getpid(), [], tmp_path / "runs"

    def act(i):
        if i in (0, 2):
            time.sleep(1.0)  # so that the child of job 1 claims first
        elif mine:
            os.kill(os.getpid(), signal.SIGKILL)
        elif i == 1 and os.getpid() != parent:
            mine.append(i)  # in this child only

    with in_parts(logging_jobs(log, 9, act), 3) as results:
        assert list(results) == [i * i for i in range(9)]
    ran = runs(log)
    killed = {pid for pid, i in ran if i == 1 and pid != parent}
    lost = sorted(i for pid, i in ran if pid in killed)
    assert len(lost) == 2 and lost[0] == 1  # its own job and the one it died on
    here = sorted(i for pid, i in ran if pid == parent)
    delivered = sorted(i for pid, i in ran if pid not in killed | {parent})
    assert sorted(here + delivered) == list(range(9))  # each job delivered once
    assert set(lost) <= set(here)
    assert_no_children()


def test_a_full_queue_runs_every_job_and_one_more_is_refused(tmp_path, monkeypatch):
    """The queue holds QUEUE_MAX records, all written before the first fork,
    which no pipe can refuse; more jobs raise before any fork."""
    log, forks = tmp_path / "runs", []
    fork = csufs.parts._fork
    monkeypatch.setattr(csufs.parts, "_fork", lambda job: forks.append(job) or fork(job))
    count = 2 + QUEUE_MAX
    with in_parts(logging_jobs(log, count), 2) as results:
        assert list(results) == [i * i for i in range(count)]
    assert sorted(i for _, i in runs(log)) == list(range(count))
    assert len(forks) == 1
    with pytest.raises(ValueError, match="queue more than"):
        with in_parts(logging_jobs(log, count + 1), 2):
            pass
    assert len(forks) == 1
    assert_no_children()


def test_more_workers_than_cores_claim_every_job_once(tmp_path):
    """Six processes race for a full queue, three times: a record read twice
    or lost would show as a job run twice or not at all."""
    for attempt in range(3):
        log = tmp_path / f"runs{attempt}"
        count = 6 + QUEUE_MAX
        started = time.perf_counter()
        with in_parts(logging_jobs(log, count), 6) as results:
            assert list(results) == [i * i for i in range(count)]
        assert time.perf_counter() - started < 60
        assert sorted(i for _, i in runs(log)) == list(range(count))
    assert_no_children()


def test_error_in_the_block_kills_every_claiming_child():
    started = time.perf_counter()
    with pytest.raises(RuntimeError):
        with in_parts(sleeping_jobs(8), 3) as results:
            assert next(results) == 0
            raise RuntimeError("stopped")
    assert time.perf_counter() - started < 30, "the children were waited for, not killed"
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pieces_cut_each_worker_share_into_equal_pieces(monkeypatch, cpus):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: cpus)
    for total in range(40):
        for limit in range(-1, 5):
            count, bounds = pieces(total, limit)
            assert count == workers(total, limit)
            count = min(total, count * csufs.parts.PIECES) if count > 1 else 1
            assert len(bounds) - 1 == count
            assert bounds[0] == 0 and bounds[-1] == total
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1


def test_pieces_never_queue_more_than_the_queue_holds(monkeypatch):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: 4)
    monkeypatch.setattr(csufs.parts, "PIECES", 10 * QUEUE_MAX)
    count, bounds = pieces(10**6, 10**6)
    assert count == 4 and len(bounds) - 1 == count + QUEUE_MAX


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_cut_gives_equal_shares_up_to_the_cpus_and_the_limit(monkeypatch, cpus):
    """With PIECES at 1, each worker's share is one piece, and the pieces
    are equal shares of total."""
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(csufs.parts, "PIECES", 1)
    for total in range(13):
        for limit in range(-1, 7):
            count = max(1, min(cpus, limit, total))
            assert workers(total, limit) == count
            assert pieces(total, limit) == (count, [i * total // count for i in range(count)] + [total])


@pytest.mark.parametrize("total, limit, bounds", [(3, 10, [0, 1, 2, 3]), (0, 5, [0, 0])], ids=["three-items", "none"])
def test_cut_never_gives_more_parts_than_items(monkeypatch, total, limit, bounds):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: 4)
    assert workers(total, limit) == len(bounds) - 1
    assert pieces(total, limit)[1] == bounds


def test_cut_never_exceeds_the_usable_cpus():
    assert workers(1000, 1000) <= csufs.parts.usable_cpus()


def test_cut_gives_one_part_without_fork(monkeypatch):
    monkeypatch.setattr(csufs.parts, "usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert workers(10, 5) == 1
    assert pieces(10, 5) == (1, [0, 10])


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


def test_one_blas_thread_leaves_a_count_of_one_alone(monkeypatch):
    """A set call restarts a pool that a fork stopped, so a count already
    at one is not set, on entry or on exit; any other count is set to one
    and back."""
    count, sets = [1], []
    monkeypatch.setattr(csufs.parts, "_blas_threads", lambda: (lambda: count[0], sets.append))
    with one_blas_thread() as pinned:
        assert pinned and sets == []
    assert sets == []
    count[0] = 3
    with one_blas_thread():
        assert sets == [1]
    assert sets == [1, 3]


def test_one_blas_thread_yields_false_without_a_library(monkeypatch):
    monkeypatch.setattr(csufs.parts, "_blas_threads", lambda: None)
    with one_blas_thread() as pinned:
        assert pinned is False
