"""Units of work mapped over this process and forked children, with no pool.

This process runs units too; every process draws the next 4-byte ticket
from one pipe whenever it is free, and a child sends each result back
pickled, after its length, on a pipe of its own.  Only verify imports
this module, when it runs, so the other commands never compile it.
"""
from __future__ import annotations

import os
import pickle
import select
import signal


def _drawn(units: list[tuple], chunks: list[list[int]], tickets: int):
    """(index, ok, result or exception) of each unit this process draws from ``tickets``."""
    while ticket := os.read(tickets, 4):
        for i in chunks[int.from_bytes(ticket, "little")]:
            fn, args = units[i]
            try:
                rec = i, True, fn(*args)
            except Exception as exc:
                rec = i, False, exc
            yield rec


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from the pipe ``fd``, fewer if its writer has exited."""
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def map_units(units: list[tuple], workers: int, first: int = 0):
    """Yield the result of each (function, args) unit in list order, raising a
    unit's exception in its place, on ``workers`` processes (a failed fork
    leaves its units to the others); unit ``first`` is handed out first.  A
    child that dies without a result (the kernel's out-of-memory killer,
    say) ends the map in MemoryError.  Closing the generator kills and
    reaps every child.
    """
    order = sorted(range(len(units)), key=lambda i: i != first)
    # every ticket is written before the first fork, in one write no pipe
    # splits: past PIPE_BUF / 4 units, a ticket stands for a run of them
    per = 1 + len(order) // (getattr(select, "PIPE_BUF", 512) // 4)
    chunks = [order[k:k + per] for k in range(0, len(order), per)]
    take, give = os.pipe()
    os.write(give, b"".join(k.to_bytes(4, "little") for k in range(len(chunks))))
    os.close(give)
    children, done = {}, {}  # a child's result pipe -> its pid; index -> (ok, result)
    try:
        for _ in range(workers - 1):
            fd, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(out)
                break
            if pid == 0:
                try:
                    os.close(fd)
                    fh = open(out, "wb")
                    for rec in _drawn(units, chunks, take):
                        record = pickle.dumps(rec)
                        fh.write(len(record).to_bytes(8, "little") + record)
                        fh.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(out)
            children[fd] = pid
        mine = _drawn(units, chunks, take)
        for i in range(len(units)):
            while i not in done:
                ready = select.select(children, [], [], 0)[0] if children else []
                if not ready:
                    if rec := next(mine, None):
                        done[rec[0]] = rec[1:]
                        continue
                    # every ticket is drawn: wait for the children's results
                    ready = select.select(children, [], [])[0]
                for fd in ready:
                    head = _read(fd, 8)
                    size = int.from_bytes(head, "little")
                    body = _read(fd, size)
                    if len(head) == 8 and len(body) == size:
                        rec = pickle.loads(body)
                        done[rec[0]] = rec[1:]
                        continue
                    # the child has exited: whole only if each result it sent is
                    os.close(fd)
                    if os.waitpid(children.pop(fd), 0)[1] or head:
                        raise MemoryError("a campaign worker process died")
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for fd, pid in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        os.close(take)
