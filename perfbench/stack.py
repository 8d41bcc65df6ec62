"""The system under test: bulk load through the public engine API, then a
``repro serve`` process (optionally under the tracing launcher).

Every process started here is owned by a :class:`Server` and is stopped
and reaped by it; :func:`reap_all` is the last-resort sweep the runner
calls on the way out.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time

from workloads import CHUNK_POINTS

HERE = os.path.dirname(os.path.abspath(__file__))
_LIVE = []


def load_store(path, wl, events):
    """Write ``events`` into a fresh store at ``path`` and close it."""
    from repro.shard import open_store
    from repro.storage.config import StorageConfig
    config = StorageConfig(avg_series_point_number_threshold=CHUNK_POINTS,
                           points_per_page=CHUNK_POINTS)
    engine = open_store(path, config, shards=wl.shards)
    try:
        for name in sorted({ev.series for ev in events}):
            engine.create_series(name)
        for ev in events:
            if ev.delete is not None:
                engine.delete(ev.series, *ev.delete)
                continue
            engine.write_batch(ev.series, ev.t, ev.v)
            if ev.t.size % CHUNK_POINTS:
                # An odd-sized batch is a late chunk (plus remainder):
                # seal it now so chunk versions follow write order.
                engine.flush(ev.series)
        engine.flush_all()
    finally:
        engine.close()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def store_bytes(path, suffix=""):
    """Bytes on disk under ``path`` (only files ending in ``suffix``)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(suffix):
                try:
                    total += os.path.getsize(os.path.join(root, f))
                except OSError:
                    pass    # removed by the server while we walked
    return total


def descendants(pid):
    """``pid`` and every live descendant, parents first."""
    out, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        out.append(p)
        try:
            for task in os.listdir("/proc/%d/task" % p):
                with open("/proc/%d/task/%s/children" % (p, task)) as f:
                    frontier += [int(c) for c in f.read().split()]
        except OSError:
            continue
    return out


def peak_rss_mb(pid):
    """Peak resident set (``VmHWM``) of ``pid`` plus its descendants."""
    kb = 0
    for p in descendants(pid):
        try:
            with open("/proc/%d/status" % p) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0


class Server:
    """One ``repro serve`` process over ``store``.

    With ``spans_out`` set it runs under :mod:`traced_server`, which
    wraps the layer functions before the server starts and writes the
    recorded spans to that file when the server exits.
    """

    def __init__(self, root, store, wl, log_path, spans_out=None):
        self.port = free_port()
        self.url = ("127.0.0.1", self.port)
        args = ["serve", "--db", store, "--port", str(self.port),
                "--quiet"] + wl.serve_args()
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_server.py"),
                   spans_out] + args
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, cwd=root,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self._pids = [self.proc.pid]
        _LIVE.append(self)

    def wait_healthy(self, timeout=120.0):
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with %s during boot"
                                   % self.proc.returncode)
            try:
                status, body = self.get("/healthz", timeout=5)
                if status == 200 and json.loads(body)["status"] == "ok":
                    self._pids = descendants(self.proc.pid)
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            time.sleep(0.01)
        raise RuntimeError("server not healthy within %.0fs" % timeout)

    def get(self, path, timeout=60):
        conn = http.client.HTTPConnection(*self.url, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self):
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError("/stats answered %d" % status)
        return json.loads(body)

    def rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def stop(self, timeout=60.0):
        """Graceful stop (SIGTERM: drain, flush, close)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self):
        """SIGKILL the server and anything it started, then reap."""
        pids = set(self._pids)
        if self.proc.poll() is None:
            pids.update(descendants(self.proc.pid))
        pids = {pid for pid in pids if _is_ours(pid)} | {self.proc.pid}
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        for pid in pids - {self.proc.pid}:
            _wait_gone(pid)
        self._log.close()
        if self in _LIVE:
            _LIVE.remove(self)


def _is_ours(pid):
    """Is ``pid`` still a server or shard-worker process (not a pid the
    kernel has since reused)?"""
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as f:
            return b"repro" in f.read()
    except OSError:
        return False


def _wait_gone(pid, timeout=10.0):
    """Wait for a non-child process to disappear."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        try:
            with open("/proc/%d/stat" % pid) as f:
                if f.read().split(") ", 1)[1].startswith("Z"):
                    return  # zombie: dead, awaiting its (dead) parent
        except OSError:
            return
        time.sleep(0.01)


def reap_all():
    for server in list(_LIVE):
        server.kill()
