"""Seeded inputs for the served-M4 benchmark: data, write plans, op lists.

Everything here is a pure function of the workload seed.  The program
under test only ever sees the generated points (through its public
engine API at set-up time and over HTTP afterwards); the reference
answers in :mod:`reference` are computed from the same arrays.

Three workloads, each chosen to stress a different set of layers:

* ``paper-w1000`` -- the paper's own geometry: one MF03-like series of
  1M points in 1000-point chunks, 10% overlapping chunks, deletes at 5%
  of the chunk count, every cache off, one client panning and zooming at
  w=1000 over unaligned viewports.  Time goes to the M4-LSM solver and
  the chunk readers.
* ``fleet-tiles`` -- 32 small series across two shard workers with a
  16 MiB tile cache the working set fits; two clients issue tile-aligned
  w=256 viewports.  Time goes to HTTP, the shard pipe, tile stitching and
  JSON, not to the solver.
* ``live-ingest`` -- one writer posting 1000-point batches (every 20th
  late and partly overwriting) beside one reader of the freshest tail, so
  WAL, flush, locks and tile repair sit next to the read path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

CHUNK_POINTS = 1000
TILE_SPANS = 64            # the server's default spans per tile
RENDER_HEIGHT = 200


# -- point generators (shapes of the paper's Table 2 datasets) -------------


def _quantize(v):
    """One decimal, like a sensor reading: makes value ties common, so
    the checker exercises the earliest-timestamp tie rule."""
    return np.round(v, 1)


def gen_mf03(n, rng, t0=0):
    """~100 Hz power readings: 10 ms period with jitter, load plateaus,
    ripple and noise."""
    deltas = np.full(n, 10, dtype=np.int64)
    jitter = rng.random(n) < 0.02
    deltas[jitter] += rng.integers(1, 8, int(jitter.sum()))
    t = t0 + np.cumsum(deltas) - deltas[0]
    n_levels = max(n // 5000, 2)
    starts = np.sort(rng.choice(n, size=n_levels, replace=False))
    levels = np.repeat(rng.uniform(150, 450, n_levels + 1),
                       np.diff(np.concatenate(([0], starts, [n]))))
    ripple = 12.0 * np.sin(np.arange(n) * 0.63)
    return t, _quantize(levels + ripple + rng.normal(0, 3, n))


def gen_ballspeed(n, rng, t0=0):
    """2000 Hz in microseconds: rolling noise with decaying kicks."""
    t = t0 + np.arange(n, dtype=np.int64) * 500
    v = np.abs(rng.normal(1.2, 0.4, n))
    for start in rng.choice(n, size=max(n // 20000, 3), replace=False):
        length = min(int(rng.integers(500, 4000)), n - int(start))
        v[start:start + length] += (rng.uniform(15, 30)
                                    * np.exp(-np.arange(length) / 800.0))
    return t, _quantize(v)


def gen_kob(n, rng, t0=1_639_966_606_000):
    """9 s period with transmission gaps (minutes to hours)."""
    deltas = np.full(n, 9000, dtype=np.int64)
    gaps = rng.choice(np.arange(1, n), size=max(n // 500, 2), replace=False)
    deltas[gaps] = rng.integers(120_000, 7_200_000, gaps.size)
    t = t0 + np.cumsum(deltas) - deltas[0]
    day = 86_400_000.0
    v = (20.0 + 6.0 * np.sin(2 * np.pi * (t - t[0]) / day)
         + np.cumsum(rng.normal(0, 0.05, n)))
    return t, _quantize(v)


def gen_rcvtime(n, rng, t0=1_600_000_000_000):
    """Bursts of dense readings separated by hours-to-days of silence."""
    n_bursts = max(n // 2000, 4)
    sizes = rng.multinomial(n - n_bursts,
                            rng.dirichlet(np.ones(n_bursts) * 0.5)) + 1
    parts = []
    cursor = t0
    for size in sizes:
        period = int(rng.integers(1000, 30_000))
        parts.append(cursor + np.arange(size, dtype=np.int64) * period)
        cursor = int(parts[-1][-1]) + int(rng.integers(3_600_000,
                                                       14 * 86_400_000))
    t = np.concatenate(parts)[:n]
    v = np.cumsum(rng.normal(0, 1.0, t.size)) + 50.0
    return t, _quantize(v)


PROFILES = (gen_ballspeed, gen_mf03, gen_kob, gen_rcvtime)


# -- write plans --------------------------------------------------------------


@dataclasses.dataclass
class Event:
    """One store mutation, applied in list order: a write batch (flushed
    into its own chunk) or a closed-range delete."""

    series: str
    t: np.ndarray = None
    v: np.ndarray = None
    delete: tuple = None


def overlapping_plan(series, t, v, overlap_frac, rng):
    """Chunk-sized write batches where ``overlap_frac`` of the chunks
    overlap a neighbour (Section 4.3 of the paper: late data).

    For each chosen adjacent pair (A, B) the tail quarter of A arrives
    with B and B's head quarter arrives with A, as in the paper.  B also
    re-sends A's former head-of-B points with corrected values, so the
    later version must win (last-write-wins) where the chunks overlap.
    """
    n_batches = -(-t.size // CHUNK_POINTS)
    batch_of = np.repeat(np.arange(n_batches), CHUNK_POINTS)[:t.size]
    n_pairs = int(round(overlap_frac * n_batches / 2.0))
    candidates = np.arange(0, n_batches - 1, 2)
    chosen = rng.choice(candidates, size=min(n_pairs, candidates.size),
                        replace=False)
    k = CHUNK_POINTS // 4
    corrections = {}
    for a in chosen.tolist():
        a_rows = np.flatnonzero(batch_of == a)
        b_rows = np.flatnonzero(batch_of == a + 1)
        batch_of[a_rows[-k:]] = a + 1
        batch_of[b_rows[:k]] = a
        fix = b_rows[:k:2]
        corrections[a + 1] = (t[fix], _quantize(v[fix] + rng.normal(0, 20,
                                                                  fix.size)))
    events = []
    for batch in range(n_batches):
        rows = np.flatnonzero(batch_of == batch)
        bt, bv = t[rows], v[rows]
        if batch in corrections:
            ct, cv = corrections[batch]
            bt, bv = np.concatenate((bt, ct)), np.concatenate((bv, cv))
        events.append(Event(series, bt, bv))
    return events


def delete_events(series, t, n_deletes, rng):
    """``n_deletes`` closed-range deletes, each a tenth of a chunk's time
    span long, at seeded positions."""
    extent = int(t[-1] - t[0])
    n_chunks = max(t.size // CHUNK_POINTS, 1)
    length = max(extent // n_chunks // 10, 1)
    starts = int(t[0]) + rng.integers(0, max(extent - length, 1), n_deletes)
    return [Event(series, delete=(int(s), int(s) + length))
            for s in starts.tolist()]


# -- viewports ----------------------------------------------------------------


def snap(t_lo, t_hi, w, grain=TILE_SPANS):
    """The smallest tile-aligned viewport of ``w`` power-of-two spans
    covering ``[t_lo, t_hi)``: span width ``s = 2**z`` and a start on the
    ``s * grain`` grid, so the server can answer it from whole tiles."""
    s = 1
    while True:
        unit = s * grain
        start = (int(t_lo) // unit) * unit
        if start + w * s >= t_hi:
            return start, start + w * s
        s <<= 1


@dataclasses.dataclass(frozen=True)
class Op:
    """One client operation: an M4 ``/query`` or a ``/render``."""

    kind: str                  # "query" | "render"
    series: str
    t_qs: int = 0
    t_qe: int = 0
    w: int = 0
    using: str = ""            # "" = the server's default (M4-LSM)


def m4_sql(op):
    sql = ("SELECT M4(s) FROM %s WHERE time >= %d AND time < %d "
           "GROUP BY SPANS(%d)" % (op.series, op.t_qs, op.t_qe, op.w))
    return sql + " USING " + op.using if op.using else sql


# -- workload definitions -----------------------------------------------------


@dataclasses.dataclass
class Inputs:
    """Everything one run needs: the store's write plan and the clients'
    sessions (``sessions[i]`` for reader thread ``i``: a list of op
    lists, replayed cyclically one whole session at a time)."""

    events: list
    sessions: list
    extra: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Workload:
    """Store shape, server flags and client threads of one workload (why
    each exists: BENCHMARK.json and README.md)."""

    name: str
    shards: int
    tile_cache_bytes: int
    readers: int
    writer: bool
    series: int
    points_per_series: int

    def inputs(self, seed):
        return _BUILDERS[self.name](self, np.random.default_rng(seed))

    def serve_args(self):
        args = ["--shards", str(self.shards)]
        if self.tile_cache_bytes:
            args += ["--tile-cache", str(self.tile_cache_bytes)]
        if self.writer:
            args += ["--ingest-ack", "applied"]   # ack once query-visible
        return args

    def budgets(self):
        return {"series": self.series,
                "points": self.series * self.points_per_series,
                "shards": self.shards,
                "tile_cache_bytes": self.tile_cache_bytes,
                "chunk_cache_points": 0,
                "chunk_points": CHUNK_POINTS,
                "readers": self.readers,
                "writers": int(self.writer)}


PAPER_W = 1000
PAPER_LADDER = (1.0, 0.5, 0.5, 0.25, 0.25, 0.5, 0.8)   # then a render


def _paper(wl, rng):
    name = "root.mf03"
    t, v = gen_mf03(wl.points_per_series, rng)
    events = overlapping_plan(name, t, v, 0.10, rng)
    events += delete_events(name, t, int(round(0.05 * len(events))), rng)
    lo, hi = int(t[0]), int(t[-1]) + 1
    extent = hi - lo
    sessions = []
    for _session in range(16):
        center = lo + extent / 2
        ops = []
        for frac in PAPER_LADDER:
            width = frac * extent
            # Pan or zoom around a seeded centre; unaligned on purpose.
            center = float(np.clip(center + rng.normal(0, width / 3),
                                   lo + width / 2, hi - width / 2))
            t_qs = int(center - width / 2) + int(rng.integers(0, 997))
            t_qe = min(int(center + width / 2) - int(rng.integers(0, 997)),
                       hi)
            ops.append(Op("query", name, t_qs, max(t_qe, t_qs + PAPER_W),
                          PAPER_W))
        sessions.append(ops + [Op("render", name, w=PAPER_W)])
    return Inputs(events, [sessions])


FLEET_W = 256


def _fleet(wl, rng):
    events, ops = [], []
    for i in range(wl.series):
        name = "root.fleet.d%02d" % i
        t, v = PROFILES[i % len(PROFILES)](wl.points_per_series, rng)
        events.append(Event(name, t, v))
        first, last = int(t[0]), int(t[-1]) + 1
        extent = last - first
        # Two zoom levels; the second view at each level is a half-width
        # pan of the first, so it shares tiles with it.
        for frac in (0.5, 0.125):
            width = extent * frac
            start = first + rng.uniform(0, extent - 1.5 * width)
            for shift in (0.0, 0.5):
                t_qs, t_qe = snap(start + shift * width,
                                  start + (1 + shift) * width, FLEET_W)
                ops.append(Op("query", name, t_qs, t_qe, FLEET_W))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    # 16 sessions of 7 viewports and a full-series render (not tile
    # aligned, so it bypasses the tile cache).  Renders cycle over the
    # eight MF03-profile series: render cost differs by profile, and one
    # profile keeps every run's render mix alike.  The second client
    # starts half-way through the list and half a session out of step,
    # so the two clients' renders rarely coincide.
    mf03 = [i for i in range(wl.series) if PROFILES[i % len(PROFILES)]
            is gen_mf03]
    sessions = [ops[7 * k:7 * k + 7]
                + [Op("render", "root.fleet.d%02d" % mf03[k % len(mf03)],
                      w=FLEET_W)]
                for k in range(16)]
    shifted = [s[4:] + s[:4] for s in sessions[8:] + sessions[:8]]
    lists = [sessions, shifted]
    return Inputs(events, lists[:wl.readers], extra={"warm": ops})


LIVE_W = 256
LIVE_TAIL_MS = 40_000
LATE_EVERY = 20


def _live(wl, rng):
    events, heads = [], {}
    for i in range(wl.series):
        name = "root.live.s%d" % i
        t, v = gen_mf03(wl.points_per_series, rng)
        events.append(Event(name, t, v))
        heads[name] = int(t[-1]) + 10
    return Inputs(events, [], extra={
        "series": sorted(heads), "heads": heads,
        "feed_seed": int(rng.integers(0, 2 ** 31))})


class IngestFeed:
    """The writer's seeded batch sequence for ``live-ingest``.

    Batches go round-robin over the series.  Every ``LATE_EVERY``-th
    batch is late: it lands inside the range of that series' previous
    batch, half at fresh odd timestamps and half overwriting existing
    points with new values.
    """

    def __init__(self, series, heads, seed):
        self._series = list(series)
        self._heads = dict(heads)
        self._rng = np.random.default_rng(seed)
        self._last = {}
        self._n = 0

    def next_batch(self):
        name = self._series[self._n % len(self._series)]
        self._n += 1
        rng = self._rng
        prev = self._last.get(name)
        if self._n % LATE_EVERY == 0 and prev is not None:
            pt = prev
            fresh = pt[::2] + 5
            dup = pt[1::2]
            t = np.sort(np.concatenate((fresh, dup)))
            v = _quantize(rng.normal(300, 60, t.size))
            return name, t, v
        t, v = gen_mf03(CHUNK_POINTS, rng, t0=self._heads[name])
        self._heads[name] = int(t[-1]) + 10
        self._last[name] = t
        return name, t, v


def tail_op(name, head, rng, render=False):
    """The reader's view of the freshest data: the last ~40 s before the
    newest acked timestamp, snapped to the tile grid at w=256."""
    if render:
        return Op("render", name, w=LIVE_W)
    jitter = int(rng.integers(0, 1000))
    t_qs, t_qe = snap(head - LIVE_TAIL_MS - jitter, head, LIVE_W)
    return Op("query", name, t_qs, t_qe, LIVE_W)


WORKLOADS = {wl.name: wl for wl in (
    Workload("paper-w1000", shards=1, tile_cache_bytes=0, readers=1,
             writer=False, series=1, points_per_series=1_000_000),
    Workload("fleet-tiles", shards=2, tile_cache_bytes=16 << 20, readers=2,
             writer=False, series=32, points_per_series=50_000),
    Workload("live-ingest", shards=1, tile_cache_bytes=16 << 20, readers=1,
             writer=True, series=8, points_per_series=100_000),
)}

_BUILDERS = {"paper-w1000": _paper, "fleet-tiles": _fleet,
             "live-ingest": _live}
