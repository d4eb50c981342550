"""Work cut into parts, all but the first run in forked children.

This module decides how many parts there are (cut), runs them (in_parts)
and has the one policy for a lost part: a part whose child did not start,
sent a short pickle, exited non-zero or was killed is done again in the
caller, and no other part is. The callers only say what a part does and
the least work worth a part of its own. Parts that call BLAS (a sweep's
k-means fits) run inside one_blas_thread, which holds the loaded OpenBLAS
to one thread while the children live, so that two processes do not each
spin a pool of BLAS threads on the same cores; where it cannot, such a
caller keeps one part. The pin is load-bearing: forking fit parts without
it took sweep_grid's wall_rel from 1.321 to 3.235 (raw wall_s 0.40 s to
0.71-4.80 s, better in 0 of 6 pairs on 2 shared cores).

A profile or trace of the caller sees only the parts it runs itself: what
a child does is outside it.
"""

import contextlib
import functools
import os
import pickle


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def cut(total: int, limit: int) -> list[int]:
    """[0, ..., total]: where the equal shares of total start and end when
    it is cut into parts: one per usable CPU, at most limit and at most
    total, so no share is empty unless total is 0, and at least one; one
    part where os.fork is missing. Share i starts at i * total // count."""
    count = max(1, min(usable_cpus(), limit, total)) if hasattr(os, "fork") else 1
    return [i * total // count for i in range(count)] + [total]


@contextlib.contextmanager
def in_parts(jobs: list):
    """An iterator over what each of jobs returns, in order. Entering forks
    a child for each job but the first (see _fork); the first runs here
    when its result is asked for. A job whose child did not start, sent a
    short pickle, exited non-zero or was killed runs here when its turn
    comes, so a lost part costs only its own work again. When the block
    ends, every child not yet waited for (one that a caller stopping early
    or raising left unread) is killed and then waited for."""
    children = []  # (pid, pipe) of each job past the first, None once waited for or never forked

    def results():
        yield jobs[0]()
        for i, job in enumerate(jobs[1:]):
            delivered = False
            if children[i] is not None:
                pid, pipe = children[i]
                with pipe, contextlib.suppress(EOFError, pickle.UnpicklingError):
                    result, delivered = pickle.load(pipe), True
                delivered = os.waitpid(pid, 0)[1] == 0 and delivered
                children[i] = None
            yield result if delivered else job()

    try:
        for job in jobs[1:]:
            children.append(_fork(job))
        yield results()
    finally:
        live = [child for child in children if child is not None]
        if live:
            import signal  # numpy does not load it, and only this path needs it

            for pid, pipe in live:
                pipe.close()
                with contextlib.suppress(ProcessLookupError, ChildProcessError):  # waited for, not yet marked
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


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
    import ctypes  # only a process that finds a library needs it

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
    exception too."""
    threads = _blas_threads()
    if threads is None:
        yield False
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _fork(job):
    """(pid, pipe) of a forked child that runs job() and sends its result
    through the pipe, pickled; None when no child starts.

    The child is a copy of a process whose other threads (BLAS's among
    them; Python 3.12+ warns whenever a threaded process forks) may hold
    locks that no thread in the child will ever release. So a job must
    read and write only files of its own, start no thread, import nothing
    numpy has not loaded already (pickle is one it has), and return a
    picklable result. A module a job needs that `import numpy` does not
    load is imported by its caller before in_parts forks: kmeans seeds by
    numpy.random's default_rng, so evaluation._evaluate_all loads it
    before it forks the fit parts. io._parse_range parses a byte range
    with np.loadtxt and copies its rows column-major; io._write_part
    formats rows with repr into a part file; scoring.range_sums scores a
    column range by either kernel with numpy's sort, abs, subtractions,
    additions, sums and minimums, which take no lock and start no thread,
    and returns one small array of sums. None of these calls BLAS. evaluation._evaluate_each
    fits k-means, whose products do call BLAS, and returns a list of
    EvalReports of plain numbers. It is safe because OpenBLAS registers a
    fork handler that stops its thread pool before each fork, so no BLAS
    lock is held across it, and because its caller forks inside
    one_blas_thread: the child inherits one BLAS thread and runs every
    product in its own thread, next to a caller doing the same.

    The child always leaves through os._exit in a finally, so it never
    returns into its caller's stack, a test runner's included, and never
    flushes buffers it inherited; a caller still flushes its own files
    before entering in_parts, so no child holds a copy of unwritten bytes.
    cut makes no more than one part where os.fork is missing.
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
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")
