"""Launch ``repro`` with the layers' entry points wrapped in spans.

Usage::

    python perfbench/traced_server.py SPANS_OUT serve --db ... [serve args]

Before the server starts, every function below is replaced, where its
caller looks it up, by a wrapper that records a span: name, start, end,
parent span and the request it belongs to.  Spans stay in memory and are
written to ``SPANS_OUT`` as JSON when the process exits.  The program's
own code is untouched; shard-worker internals stay opaque behind
``shard.router.call``.

A request is identified by the ``X-Bench-Id`` header the benchmark
client sends.  Work handed to an admission worker thread is linked back
through the server request id (``X-Repro-Request-Id``); work the ingest
writer thread does while an ``/ingest`` is waiting for its ack is linked
to that ingest call (the benchmark runs one writer, so at most one ingest
is in flight).
"""

from __future__ import annotations

import atexit
import itertools
import json
import pickle
import sys
import threading
import time

_clock = time.perf_counter
_ids = itertools.count(1)
_spans = []                 # (id, parent, name, start, end, req, nbytes)
_local = threading.local()  # .stack: open (req, span id); .req: handler's
_by_rid = {}                # server request id -> (req, handler span)
_by_call = {}               # router call id -> (req, parent span)
_ingest = [None]            # (req, submit span) of the in-flight ingest


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _context():
    """``(req, parent span)`` for work starting on this thread now.

    The thread's innermost open span decides; a thread with none open is
    either an HTTP handler about to open its root span (``_local.req``)
    or the ingest writer working for the ``/ingest`` in flight.
    """
    stack = _stack()
    if stack:
        return stack[-1]
    req = getattr(_local, "req", None)
    if req is None and _ingest[0] is not None:
        return _ingest[0]
    return req, None


def _record(name, start, end, parent, req, nbytes=0):
    _spans.append((next(_ids), parent, name, start, end, req, nbytes))


def traced(name, fn, on_enter=None):
    """``fn`` wrapped in a span named ``name``."""

    def wrapper(*args, **kwargs):
        req, parent = _context()
        sid = next(_ids)
        stack = _stack()
        stack.append((req, sid))
        if on_enter is not None:
            on_enter(req, sid)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            _spans.append((sid, parent, name, start, end, req, 0))

    return wrapper


def _handler(fn):
    """The HTTP handler: the root span of every request."""

    inner = traced("server.http", fn)

    def wrapper(self):
        # "" (not None) for requests the client did not name, so they
        # are never mistaken for the ingest writer's work.
        _local.req = self.headers.get("X-Bench-Id", "")
        try:
            return inner(self)
        finally:
            _local.req = None

    return wrapper


def _next_id(fn):
    def wrapper(self):
        rid = fn(self)
        stack = _stack()
        _by_rid[rid] = stack[0] if stack else (None, None)
        return rid

    return wrapper


def _job_run(fn):
    """Admission worker: queue wait plus the run, both under the
    request's handler span."""

    def wrapper(job):
        req, handler = _by_rid.pop(job.request_id, (None, None))
        picked = _clock()
        if job.submitted_at is not None:
            _record("server.admission.wait", job.submitted_at, picked,
                    handler, req)
        stack = _stack()
        sid = next(_ids)
        stack.append((req, sid))
        try:
            return fn(job)
        finally:
            stack.pop()
            _spans.append((sid, handler, "server.service.run", picked,
                           _clock(), req, 0))

    return wrapper


def _ingest_submit(fn):
    inner = traced("ingest.controller.submit", fn,
                   on_enter=lambda req, sid: _ingest.__setitem__(
                       0, (req, sid)))

    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            _ingest[0] = None

    return wrapper


def _lock_record(fn):
    def wrapper(self, side, started, ended):
        req, parent = _context()
        _record("storage.locks.wait", started, ended, parent, req)
        return fn(self, side, started, ended)

    return wrapper


def _client_call(fn):
    def wrapper(self, request_id, *args, **kwargs):
        _by_call[request_id] = _context()
        try:
            return fn(self, request_id, *args, **kwargs)
        finally:
            _by_call.pop(request_id, None)

    return wrapper


def _send_frame(fn):
    def wrapper(sock, obj):
        req, parent = _context()
        start = _clock()
        try:
            return fn(sock, obj)
        finally:
            end = _clock()
            _record("shard.protocol.send", start, end, parent, req,
                    len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)))

    return wrapper


def _recv_exact(fn):
    def wrapper(sock, n, eof_ok):
        data = fn(sock, n, eof_ok)
        if eof_ok:
            _local.header_at = _clock()    # the frame starts arriving
        else:
            _local.payload = n
        return data

    return wrapper


def _recv_frame(fn):
    """Router reader thread: time from the header's arrival to the
    decoded message, attributed to the call that awaits it."""

    def wrapper(sock):
        message = fn(sock)
        end = _clock()
        req, parent = _by_call.get(message.get("id"), (None, None))
        _record("shard.protocol.recv", getattr(_local, "header_at", end),
                end, parent, req, getattr(_local, "payload", 0))
        return message

    return wrapper


def install():
    """Wrap every traced entry point (idempotent per process)."""
    from repro.core.m4lsm import operator as m4lsm
    from repro.core import tiles
    from repro.ingest import controller
    from repro.query import executor
    from repro.server import admission, http, service
    from repro.shard import protocol, router
    from repro.storage import engine, locks, readers, tsfile, wal
    from repro.viz import raster

    def wrap(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    def span(name):
        return lambda fn: traced(name, fn)

    wrap(http._Handler, "do_GET", _handler)
    wrap(http._Handler, "do_POST", _handler)
    wrap(service.QueryService, "_next_id", _next_id)
    wrap(admission.Job, "run", _job_run)
    wrap(service, "parse_sql", span("query.sql.parse"))
    wrap(router, "parse_sql", span("query.sql.parse"))
    wrap(executor.Executor, "execute", span("query.executor"))
    wrap(m4lsm.M4LSMOperator, "query", span("core.m4lsm.query"))
    wrap(m4lsm.SpanSolver, "solve", span("core.m4lsm.solve"))
    wrap(tiles.TiledM4Operator, "query", span("core.tiles.query"))
    wrap(readers.DataReader, "load_chunk", span("storage.readers.load_chunk"))
    wrap(tsfile.TsFileReader, "read_page_timestamps",
         span("storage.tsfile.read_page"))
    wrap(tsfile.TsFileReader, "read_page_values",
         span("storage.tsfile.read_page"))
    wrap(engine.StorageEngine, "write_batch",
         span("storage.engine.write_batch"))
    wrap(engine.StorageEngine, "flush", span("storage.engine.flush"))
    wrap(wal.WriteAheadLog, "append_batch", span("storage.wal.append"))
    wrap(wal.WriteAheadLog, "sync", span("storage.wal.sync"))
    wrap(locks.LockWaitObs, "record", _lock_record)
    wrap(controller.IngestController, "submit", _ingest_submit)
    wrap(raster, "rasterize", span("viz.raster.rasterize"))
    wrap(router.ShardRouter, "_call", span("shard.router.call"))
    wrap(router._ShardClient, "call", _client_call)
    wrap(router, "send_frame", _send_frame)
    wrap(router, "recv_frame", _recv_frame)
    wrap(protocol, "_recv_exact", _recv_exact)


def dump(path):
    with open(path, "w") as f:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "req",
                              "bytes"], "spans": list(_spans)}, f)


def main(argv):
    spans_out, rest = argv[0], argv[1:]
    install()
    atexit.register(dump, spans_out)
    from repro.cli import main as repro_main
    return repro_main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
