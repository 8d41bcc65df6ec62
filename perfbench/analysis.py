"""Pure arithmetic behind the reported numbers: percentiles and span
self times.  Kept free of I/O so the tests can pin it down."""

from __future__ import annotations

import math


def percentile(values, q):
    """The ``q``-th percentile (0-100) with linear interpolation between
    closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, candidates=(99, 95, 90, 75, 50), beyond=10):
    """The highest candidate percentile that leaves at least ``beyond``
    of ``n`` samples above it (50 when none does)."""
    for q in candidates:
        if n * (100 - q) / 100.0 >= beyond:
            return q
    return 50


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover.

    ``spans`` maps span id to ``(parent_id, start, end)``; returns
    ``{span_id: seconds}``.  Children are clipped to their parent, and
    overlapping children count once.
    """
    children = {}
    for sid, (parent, _start, _end) in spans.items():
        if parent is not None and parent in spans:
            children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (_parent, start, end) in spans.items():
        covered = 0.0
        cursor = start
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(sid, ())):
            if e <= cursor:
                continue
            covered += e - max(s, cursor)
            cursor = e
        out[sid] = max(end - start - covered, 0.0)
    return out


def ratio(num, den):
    return num / den if den else 0.0
