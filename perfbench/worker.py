"""Cold workers: every minbase command runs in a child freshly forked
from a parent that has imported ``minbase.cli`` and run nothing, so no
command sees another's state (today the only such state is the
``lru_cache`` on ``fq.Fq``), just as separate CLI invocations would not.

The child runs ``minbase.cli.main(argv)`` with stdout and stderr
captured, times it, reads its own peak RSS, and sends one JSON record
back over a pipe.  With a tracer, the child installs the tracer's
wrappers before the timer starts and ships its spans and counts too.

A reference worker runs fixed work that uses no minbase code the same
way; its time measures the host's speed at that moment (see run.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import select
import signal
import time
import traceback


class WorkerTimeout(RuntimeError):
    pass


def _command(argv, tracer):
    """Child side of run_cold: the record of one minbase command."""
    import minbase.cli

    out, err = io.StringIO(), io.StringIO()
    record = {}
    if tracer is not None:
        tracer.install()
    # A full collection writes to every tracked object inherited from
    # the parent, taking the copy-on-write faults now rather than while
    # the command is timed: a CLI process owns its pages (on a 2-core
    # Xeon VM this cut `orth --n 7 --q 3` from 12 ms to 8 ms and its
    # page faults from 1,100 to 440).
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.run_root(minbase.cli.main, argv)
            else:
                rc = minbase.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            record["exception"] = traceback.format_exc(limit=8)
        wall = time.perf_counter() - t0
    record.update(
        rc=rc,
        wall_s=wall,
        stdout=out.getvalue(),
        stderr=err.getvalue()[-2000:],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        record["trace"] = tracer.export()
    return record


REFERENCE_STEPS = 30_000


def reference_work():
    """Fixed pure-Python work that allocates fresh memory as the commands
    do: about 8 MB of tuples, lists and dict entries, 30 ms on a 2-core
    2.1 GHz Xeon VM.  It uses no minbase code, so no change to the
    program moves its time; only the host's speed does."""
    table = {}
    x = 12345
    for i in range(REFERENCE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 0xFFF, x >> 19)
        bucket = table.get(key)
        if bucket is None:
            table[key] = bucket = []
        bucket.append(i)
    return len(table)


def _reference():
    """Child side of run_reference."""
    gc.collect()  # as in _command
    t0 = time.perf_counter()
    reference_work()
    return {"rc": 0, "wall_s": time.perf_counter() - t0}


def _child(body, args, wfd):
    try:
        payload = json.dumps(body(*args)).encode()
    except BaseException:  # anything: report it, never return into the parent's code
        payload = json.dumps(
            {"rc": None, "exception": traceback.format_exc(limit=8)}
        ).encode()
    try:
        view = memoryview(payload)
        while view:
            view = view[os.write(wfd, view):]
    finally:
        os._exit(0)


def _run_forked(body, args, timeout_s, what):
    """Run body(*args) in a freshly forked child; return the record it
    sends back.  Raises WorkerTimeout (after killing and reaping the
    child) when it does not finish within timeout_s seconds."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(body, args, wfd)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        raise WorkerTimeout(f"{what} exceeded {timeout_s:.0f}s")
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"rc": None, "exception": "worker died without a result"}


def run_cold(argv, timeout_s, tracer=None):
    """Run one minbase command in a freshly forked worker; return its record.

    Raises WorkerTimeout (after killing and reaping the child) when the
    command does not finish within timeout_s seconds.
    """
    return _run_forked(_command, (argv, tracer), timeout_s, " ".join(argv))


def run_reference(timeout_s):
    """Time reference_work() in a freshly forked worker, as a command would
    run; return its record."""
    return _run_forked(_reference, (), timeout_s, "reference work")
