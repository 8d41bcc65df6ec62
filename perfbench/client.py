"""Closed-loop HTTP clients: one process, at most ``nproc`` threads.

Each thread owns one keep-alive connection and sends its next request
only after the previous answer has been read (a dashboard waits for each
chart before the next pan).  Answers are kept as raw bytes and checked
after the timed phase, so checking adds no think time.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import threading
import time

import numpy as np

from workloads import RENDER_HEIGHT, m4_sql, tail_op

_JSON = {"Content-Type": "application/json"}


@dataclasses.dataclass
class Sample:
    """One finished operation as the client saw it."""

    kind: str               # "query" | "render" | "ingest"
    start: float
    end: float
    status: int             # HTTP status; 0 = transport error
    body: bytes = b""
    bench_id: str = ""
    op: object = None
    ctx: dict = None        # what the checker needs beyond the op

    @property
    def ms(self):
        return (self.end - self.start) * 1000.0


class Connection:
    """A keep-alive connection that reconnects after a transport error."""

    _names = itertools.count()

    def __init__(self, address, timeout=120.0):
        self._address = address
        self._timeout = timeout
        self._conn = None
        self._prefix = "c%d-" % next(self._names)
        self._n = itertools.count()

    def call(self, method, path, body=None, headers=None):
        """``(status, body, bench_id)``; status 0 on transport error.

        Every request carries an ``X-Bench-Id`` the traced server
        records on its spans, so client and server times can be joined.
        """
        if self._conn is None:
            self._conn = http.client.HTTPConnection(*self._address,
                                                    timeout=self._timeout)
        bench_id = self._prefix + str(next(self._n))
        headers = dict(headers or {}, **{"X-Bench-Id": bench_id})
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
            return resp.status, data, bench_id
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, str(exc).encode(), bench_id

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def send_op(conn, op):
    """Issue one read op; returns a :class:`Sample` (without ``ctx``)."""
    start = time.perf_counter()
    if op.kind == "query":
        status, body, bench_id = conn.call(
            "POST", "/query", json.dumps({"sql": m4_sql(op)}), _JSON)
    else:
        status, body, bench_id = conn.call(
            "GET", "/render?series=%s&width=%d&height=%d&format=json"
            % (op.series, op.w, RENDER_HEIGHT))
    return Sample(op.kind, start, time.perf_counter(), status, body,
                  bench_id, op)


def run_threads(targets):
    """Run ``targets`` (callables) in threads from a common start."""
    barrier = threading.Barrier(len(targets))
    errors = []

    def wrap(fn):
        try:
            barrier.wait()
            fn()
        except BaseException as exc:   # surfaced to the runner below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(fn,)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def replay(address, sessions, seconds):
    """Each thread replays its list of sessions cyclically, one whole
    session at a time, until ``seconds`` have passed; finishing the
    session in progress keeps every run's op mix the same.

    Returns ``(samples, started, finished)``.
    """
    out = [[] for _ in sessions]
    clock = {}

    def reader(i):
        conn = Connection(address)
        stop_at = clock.setdefault("start", time.perf_counter()) + seconds
        n = 0
        while time.perf_counter() < stop_at:
            for op in sessions[i][n % len(sessions[i])]:
                out[i].append(send_op(conn, op))
            n += 1
        conn.close()

    run_threads([lambda i=i: reader(i) for i in range(len(sessions))])
    samples = [s for part in out for s in part]
    return samples, clock["start"], max(s.end for s in samples)


def warm(address, ops, threads):
    """One untimed pass over ``ops`` split across ``threads``."""
    parts = [ops[i::threads] for i in range(threads)]
    results = [[] for _ in parts]

    def go(i):
        conn = Connection(address)
        results[i] = [send_op(conn, op) for op in parts[i]]
        conn.close()

    run_threads([lambda i=i: go(i) for i in range(threads)])
    return [s for part in results for s in part]


class LiveState:
    """Writer progress shared with the reader (guarded by ``lock``)."""

    def __init__(self, series, heads):
        self.lock = threading.Lock()
        self.sent = {name: 0 for name in series}
        self.acked = {name: 0 for name in series}
        self.batches = {name: [] for name in series}
        self.heads = dict(heads)
        self.latest = series[0]


def live(address, feed, state, seconds, seed, session=8):
    """One writer and one tail reader, closed loop, for ``seconds``.

    The reader works in sessions of ``session`` reads, the last one a
    full render, and finishes the session in progress; the writer keeps
    writing until the reader is done.

    Returns ``(read_samples, write_samples, started, finished)``.
    """
    reads, writes = [], []
    clock = {}
    done = threading.Event()
    rng = np.random.default_rng(seed)

    def writer():
        conn = Connection(address)
        clock.setdefault("start", time.perf_counter())
        while not done.is_set():
            name, t, v = feed.next_batch()
            body = json.dumps({"series": name, "timestamps": t.tolist(),
                               "values": v.tolist()})
            with state.lock:
                state.sent[name] += 1
                state.batches[name].append((t, v))
            start = time.perf_counter()
            status, data, bench_id = conn.call("POST", "/ingest", body, _JSON)
            end = time.perf_counter()
            writes.append(Sample("ingest", start, end, status, data, bench_id,
                                 ctx={"series": name, "points": int(t.size)}))
            if status != 200:
                continue
            with state.lock:
                state.acked[name] += 1
                state.heads[name] = max(state.heads[name], int(t[-1]))
                state.latest = name
        conn.close()

    def reader():
        conn = Connection(address)
        stop_at = clock.setdefault("start", time.perf_counter()) + seconds
        try:
            while time.perf_counter() < stop_at:
                for n in range(1, session + 1):
                    with state.lock:
                        name = state.latest
                        head = state.heads[name]
                        lo = state.acked[name]
                    op = tail_op(name, head, rng, render=n == session)
                    sample = send_op(conn, op)
                    with state.lock:
                        sample.ctx = {"prefix": (lo, state.sent[name])}
                    reads.append(sample)
        finally:
            done.set()
            conn.close()

    run_threads([writer, reader])
    ends = [s.end for s in reads + writes]
    return reads, writes, clock["start"], max(ends)
