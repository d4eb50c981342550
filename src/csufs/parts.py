"""Work cut into parts, all but the first run in forked children.

This module decides how many parts there are (cut), runs them (in_parts)
and has the one policy for a lost part: a part whose child did not start,
sent a short pickle, exited non-zero or was killed is done again in the
caller, and no other part is. The callers only say what a part does and
the least work worth a part of its own.
"""

import contextlib
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
    it is cut into parts, one per usable CPU, at most limit and at least
    one; one part where os.fork is missing. Share i starts at
    i * total // count."""
    count = max(1, min(usable_cpus(), limit)) if hasattr(os, "fork") else 1
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


def _fork(job):
    """(pid, pipe) of a forked child that runs job() and sends its result
    through the pipe, pickled; None when no child starts.

    The child is a copy of a process whose other threads (BLAS's among
    them; Python 3.12+ warns whenever a threaded process forks) may hold
    locks that no thread in the child will ever release. So a job must
    only parse or format: read and write files of its own, start no
    thread, call no BLAS, import nothing numpy has not loaded already
    (pickle is one it has), and return a picklable result. The jobs today
    keep this contract: io._parse_range parses a byte range with
    np.loadtxt, io._write_part formats rows with repr into a part file, and
    scoring._window_part scores a column range with numpy's sort,
    subtractions, additions and minimums, none of which calls BLAS or
    starts a thread, and returns one small array of sums.

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
