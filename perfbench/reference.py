"""Numpy reference model: what every served answer must equal.

The model replays the benchmark's own write plan -- last write wins per
timestamp, a delete removes points written before it -- and computes M4
with the span rule of the paper's SQL form,
``floor(w * (t - t_qs) / (t_qe - t_qs))``.  Bottom and top break value
ties on the earliest timestamp.
"""

from __future__ import annotations

import numpy as np


def materialize(events):
    """Final ``(t, v)`` per series after replaying ``events`` in order.

    Returns ``{series: (sorted int64 t, float64 v)}``.
    """
    writes, deletes = {}, {}
    for seq, ev in enumerate(events):
        if ev.delete is not None:
            deletes.setdefault(ev.series, []).append((seq,) + ev.delete)
        else:
            writes.setdefault(ev.series, []).append(
                (np.full(ev.t.size, seq, dtype=np.int64), ev.t, ev.v))
    out = {}
    for name, parts in writes.items():
        seq = np.concatenate([p[0] for p in parts])
        t = np.concatenate([p[1] for p in parts]).astype(np.int64)
        v = np.concatenate([p[2] for p in parts]).astype(np.float64)
        t, v, seq = last_write_wins(t, v, seq)
        keep = np.ones(t.size, dtype=bool)
        for d_seq, lo, hi in deletes.get(name, ()):
            keep &= ~((t >= lo) & (t <= hi) & (seq < d_seq))
        out[name] = (t[keep], v[keep])
    return out


def last_write_wins(t, v, seq):
    """Sort by time keeping, per timestamp, the point with highest seq."""
    order = np.lexsort((seq, t))
    t, v, seq = t[order], v[order], seq[order]
    last = np.ones(t.size, dtype=bool)
    last[:-1] = t[1:] != t[:-1]
    return t[last], v[last], seq[last]


def merge_batches(base, batches):
    """``base`` (t, v) with ``batches`` written after it, in order."""
    ts, vs, seqs = [base[0]], [base[1]], [np.zeros(base[0].size, np.int64)]
    for i, (t, v) in enumerate(batches, start=1):
        ts.append(np.asarray(t, dtype=np.int64))
        vs.append(np.asarray(v, dtype=np.float64))
        seqs.append(np.full(len(t), i, dtype=np.int64))
    t, v, _ = last_write_wins(np.concatenate(ts), np.concatenate(vs),
                              np.concatenate(seqs))
    return t, v


def m4(t, v, t_qs, t_qe, w):
    """M4 over sorted unique points: one row per non-empty span,
    ``(span, ft, fv, lt, lv, bt, bv, tt, tv)``."""
    lo = int(np.searchsorted(t, t_qs, side="left"))
    hi = int(np.searchsorted(t, t_qe, side="left"))
    t, v = t[lo:hi], v[lo:hi]
    if t.size == 0:
        return []
    span = (t - t_qs) * w // (t_qe - t_qs)
    starts = np.flatnonzero(np.concatenate(([True], span[1:] != span[:-1])))
    ends = np.concatenate((starts[1:], [t.size])) - 1
    seg = np.repeat(np.arange(starts.size), np.diff(np.append(starts,
                                                              t.size)))
    bottom = _first_where(v == np.minimum.reduceat(v, starts)[seg], seg,
                          starts.size)
    top = _first_where(v == np.maximum.reduceat(v, starts)[seg], seg,
                       starts.size)
    rows = []
    for s, e, b, p in zip(starts.tolist(), ends.tolist(), bottom.tolist(),
                          top.tolist()):
        rows.append((int(span[s]), int(t[s]), float(v[s]), int(t[e]),
                     float(v[e]), int(t[b]), float(v[b]), int(t[p]),
                     float(v[p])))
    return rows


def _first_where(mask, seg, n_segments):
    """Index of the first True of ``mask`` within each segment."""
    pos = np.flatnonzero(mask)
    _, first = np.unique(seg[pos], return_index=True)
    assert first.size == n_segments
    return pos[first]


def query_rows(body):
    """M4 rows of a ``POST /query`` answer, as :func:`m4` tuples."""
    return [tuple(row) for row in body["rows"]]


def render_rows(body):
    """M4 rows of a ``GET /render`` JSON answer, as :func:`m4` tuples."""
    return [(s["span"], *s["first"], *s["last"], *s["bottom"], *s["top"])
            for s in body["spans"]]
