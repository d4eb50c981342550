"""Work cut into pieces, run by this process and forked children.

This module decides how many workers and pieces there are (workers, pieces),
runs them (in_parts) and has the one policy for a lost piece: a piece
whose result does not come back from a child (the child did not start,
sent a short pickle, exited non-zero or was killed) is done again in the
caller, and no other piece is. The caller runs the first piece and child i
the i-th, one per worker; every later piece is claimed from one queue by
whichever process is free first, so a process slowed by its host takes
fewer pieces instead of holding up the stage. The callers only say what a
piece does and the least work worth a worker of its own.

Every fit runs on one BLAS thread: one_blas_thread holds the loaded
OpenBLAS to one thread, and csufs.kmeans.kmeans_fit, whose products are the
only BLAS calls, runs inside it, so that no two processes (nor a fit and a
busy host) each spin a pool of BLAS threads on the same cores. A caller
that forks fit pieces (a sweep) holds it around the fork too, so each
child starts on one thread; where it cannot be held, such a caller keeps
one worker. The pin is load-bearing: forking fit parts without it took
sweep_grid's wall_rel from 1.321 to 3.235 (raw wall_s 0.40 s to 0.71-4.80
s, better in 0 of 6 pairs on 2 shared cores).

A profile or trace of the caller sees only the pieces it runs itself: what
a child does is outside it. A child ends through leave, which skips the
interpreter's teardown; the CLI's process entry (cli.run) ends through it
too, once its outputs are flushed.
"""

import contextlib
import ctypes
import functools
import os
import pickle
import typing


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def workers(total: int, limit: int) -> int:
    """How many processes share total items: one per usable CPU, at most
    limit and at most total, and at least one; one where os.fork is
    missing."""
    return max(1, min(usable_cpus(), limit, total)) if hasattr(os, "fork") else 1


# Pieces per worker. A split stage cuts its work into PIECES equal pieces
# per worker, so that a process the host slows takes fewer of them. In
# scripts/part_balance.py's probe of 1, 2, 4 and 8 (BENCH_part_queue.json,
# "pieces_probe"), 8 gave the slower process the smallest lead past the
# mean on each workload's load and on sweep_kgrid's kernel, whose 25
# columns make pieces of 3 columns at 4 and of 1 or 2 at 8; no value moved
# the wall time beyond its quartiles.
PIECES = 8

# The most job indices the queue holds: every index is written before the
# first fork, and a pipe holds at least POSIX's least PIPE_BUF, 512 bytes,
# without blocking its writer.
_RECORD = 4
QUEUE_MAX = 512 // _RECORD


def pieces(total: int, limit: int) -> tuple[int, list[int]]:
    """(count, bounds): count is workers(total, limit), and bounds, [0, ...,
    total], cut total into PIECES equal pieces per worker, at most total
    and at most count + QUEUE_MAX, when there are two workers or more, and
    into one piece otherwise; piece i starts at i * total // its pieces. So
    a floor that limits the workers does not limit the pieces: a piece may
    hold less."""
    count = workers(total, limit)
    cuts = min(total, count * PIECES, count + QUEUE_MAX) if count > 1 else 1
    return count, [i * total // cuts for i in range(cuts)] + [total]


@contextlib.contextmanager
def in_parts(jobs: list, workers: int):
    """An iterator over what each of jobs returns, in order, with the jobs
    run by at most workers processes: this one and forked children.

    Entering writes the index of every job from the workers-th on into one
    queue, an os.pipe of fixed-size records, and then forks child i for
    job i, 0 < i < workers (see _fork). Each child runs its job and then
    claims indices from the queue until it is empty, and sends every
    (index, result) pair in one pickle when it is done. Asking for the
    first result runs job 0 here; asking for the next one claims from the
    queue here too, then reads every child's pickle. A job whose result
    does not arrive, because its child did not start, sent a short pickle,
    exited non-zero or was killed, runs here when its turn comes, and no
    other job runs twice. With workers at len(jobs) or more the queue is
    empty and each job past the first runs in a child of its own. More
    than workers + QUEUE_MAX jobs raise ValueError, before any fork. When
    the block ends, every child not yet waited for (one that a caller
    stopping early or raising left unread) is killed and then waited for."""
    workers = max(1, min(workers, len(jobs)))
    if len(jobs) - workers > QUEUE_MAX:
        raise ValueError(f"{len(jobs)} jobs queue more than {QUEUE_MAX} past {workers} workers")
    children = []  # (pid, pipe) of each child, None once waited for or never forked
    queue = None  # the read end of the queue, None while no job is queued

    def results():
        yield jobs[0]()
        done = dict(_work(jobs, (), queue))
        for i, child in enumerate(children):
            if child is not None:
                pid, pipe = child
                pairs = []
                with pipe, contextlib.suppress(EOFError, pickle.UnpicklingError):
                    pairs = pickle.load(pipe)
                if os.waitpid(pid, 0)[1] == 0:
                    done.update(pairs)
                children[i] = None
        for i in range(1, len(jobs)):
            yield done.pop(i) if i in done else jobs[i]()

    try:
        if len(jobs) > workers:
            queue = _queue(range(workers, len(jobs)))
        for i in range(1, workers):
            children.append(_fork(functools.partial(_work, jobs, (i,), queue)))
        yield results()
    finally:
        if queue is not None:
            os.close(queue)
        live = [child for child in children if child is not None]
        if live:
            import signal  # numpy does not load it, and only this path needs it

            for pid, pipe in live:
                pipe.close()
                with contextlib.suppress(ProcessLookupError, ChildProcessError):  # waited for, not yet marked
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def leave(code: int) -> typing.NoReturn:
    """End this process at once with code, as a child ends: by os._exit, so
    no exit handler, finalizer or flush runs. The caller flushes and closes
    what it wrote first."""
    os._exit(code)


def _queue(indices) -> int | None:
    """The read end of a pipe that holds each of indices as one record and
    whose write end is closed, so a read past the last record finds it
    empty; None when no pipe can be made, and then no job is claimed."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    with open(write_end, "wb") as out:
        out.write(b"".join(i.to_bytes(_RECORD, "little") for i in indices))
    return read_end


def _work(jobs: list, own: tuple, queue: int | None) -> list:
    """[(index, result)] of the jobs at the indices own and then of each job
    claimed from queue, in the order run, until it is empty. A record is
    read whole: every record was written before any reader started, and a
    pipe read of one record's size takes one record."""
    done = [(i, jobs[i]()) for i in own]
    while queue is not None and (record := os.read(queue, _RECORD)):
        i = int.from_bytes(record, "little")
        done.append((i, jobs[i]()))
    return done


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, through ctypes, or None when no library mapped here has a file
    name holding "openblas" and one of the two pairs of entry points: the
    64-bit-integer build that numpy's wheels bundle, then the plain one."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:  # no /proc on this platform
        return None
    paths = sorted({f[5].rstrip("\n") for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    if not paths:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold the loaded OpenBLAS to one thread for the block; yields whether
    it could (False where _blas_threads finds none, and then nothing is
    changed). The count it had is restored when the block ends, by an
    exception too. A count already at one is left alone: OpenBLAS stops its
    pool before each fork, and a set call restarts it, whose new thread then
    spins about 0.13 s of CPU with no work, in the caller and in each child
    that fits while a sweep's fit parts run."""
    threads = _blas_threads()
    if threads is None:
        yield False
        return
    get, put = threads
    before = get()
    if before == 1:
        yield True
        return
    put(1)
    try:
        yield True
    finally:
        put(before)


def _fork(job):
    """(pid, pipe) of a forked child that runs job() and sends its result
    through the pipe, pickled; None when no child starts. in_parts hands it
    a _work call: the child's own job, then every job it claims from the
    queue, whose read end it shares with the caller and the other children.

    The child is a copy of a process whose other threads (BLAS's among
    them; Python 3.12+ warns whenever a threaded process forks) may hold
    locks that no thread in the child will ever release. So a job must
    read and write only files of its own, start no thread, import nothing
    numpy has not loaded already (pickle is one it has), and return a
    picklable result; a child sends its results only when it is done, so
    one that dies loses every job it ran. A module a job needs that
    `import numpy` does not load is imported by its caller before in_parts
    forks: kmeans seeds by numpy.random's default_rng, so
    evaluation._evaluate_all loads it before it forks the fit parts.
    io._parse_range parses a byte range with np.loadtxt and copies its rows
    column-major; io._write_part formats rows with repr into a part file;
    scoring.range_sums scores a column range by either kernel with numpy's
    sort, abs, subtractions, additions, sums and minimums, which take no
    lock and start no thread, and returns one small array of sums. None of
    these calls BLAS. evaluation._evaluate_each fits k-means, whose
    products do call BLAS, and returns a list of EvalReports of plain
    numbers. It is safe because OpenBLAS registers a fork handler that
    stops its thread pool before each fork, so no BLAS lock is held across
    it, and because its caller forks inside one_blas_thread: the child
    inherits one BLAS thread, and every fit holds it there
    (kmeans.kmeans_fit), so it runs every product in its own thread, next
    to a caller doing the same.

    The child always leaves through leave (os._exit) in a finally, so it
    never returns into its caller's stack, a test runner's included, and
    never flushes buffers it inherited; a caller still flushes its own
    files before entering in_parts, so no child holds a copy of unwritten
    bytes.
    workers and pieces make one worker where os.fork is missing.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                pickle.dump(job(), out, protocol=5)
            code = 0
        finally:
            leave(code)
    os.close(write_end)
    return pid, open(read_end, "rb")
