"""After the timed phase: every answer against the numpy reference, and
(on ``live-ingest``) every acked point against the reopened store."""

from __future__ import annotations

import json

import numpy as np

from reference import m4, merge_batches, query_rows, render_rows


class Checker:
    """Counts wrong answers; keeps the first few for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._memo = {}

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def reads(self, samples, model_at):
        """Check read answers.  ``model_at(sample, t_qs, t_qe)`` yields
        candidate ``(key, t, v)`` models; an answer is right if it
        matches the M4 of one of them."""
        for sample in samples:
            self.attempted += 1
            if sample.status != 200:
                self.fail("%s %s -> HTTP %d: %.200s" % (
                    sample.kind, sample.op, sample.status, sample.body))
                continue
            try:
                got, lo, hi = _answer(sample, json.loads(sample.body))
            except (ValueError, KeyError, TypeError) as exc:
                self.fail("%s %s: malformed answer (%s)"
                          % (sample.kind, sample.op, exc))
                continue
            if not any(got == self._expected(key, t, v, lo, hi, sample.op.w)
                       for key, t, v in model_at(sample, lo, hi)):
                self.fail("%s %s: answer differs from the reference"
                          % (sample.kind, sample.op))

    def writes(self, samples):
        for sample in samples:
            self.attempted += 1
            if sample.status != 200:
                self.fail("ingest -> HTTP %d: %.200s"
                          % (sample.status, sample.body))

    def durable(self, expected, actual):
        """Every acked point must be in the reopened store, unchanged."""
        for name, (t, v) in sorted(expected.items()):
            at, av = actual.get(name, (np.empty(0, np.int64), np.empty(0)))
            self.attempted += t.size
            kept = 0
            if at.size:
                pos = np.minimum(np.searchsorted(at, t), at.size - 1)
                kept = np.count_nonzero((at[pos] == t) & (av[pos] == v))
            lost = int(t.size - kept)
            if lost:
                self.failed += lost
                if len(self.errors) < 5:
                    self.errors.append("%s: %d acked points missing or "
                                       "changed after SIGKILL" % (name, lost))

    def _expected(self, key, t, v, lo, hi, w):
        memo = (key, lo, hi, w)
        if memo not in self._memo:
            self._memo[memo] = m4(t, v, lo, hi, w)
        return self._memo[memo]


def _answer(sample, body):
    """``(rows, t_qs, t_qe)`` of one answer."""
    if sample.kind == "query":
        return query_rows(body), sample.op.t_qs, sample.op.t_qe
    return render_rows(body), body["t_qs"], body["t_qe"]


def answer_rows(sample):
    """Non-empty spans in a 200 answer (0 if it does not parse)."""
    try:
        return len(_answer(sample, json.loads(sample.body))[0])
    except (ValueError, KeyError, TypeError):
        return 0


def static_model(model):
    """Candidates for a store that does not change during the run."""

    def candidates(sample, lo, hi):
        t, v = model[sample.op.series]
        if sample.kind == "render" and not (lo <= t[0] and t[-1] < hi):
            return []
        return [(sample.op.series, t, v)]

    return candidates


def live_model(base, state):
    """Candidates for ``live-ingest``: the series after any prefix of its
    batches between those acked before the read was sent and those sent
    before its answer arrived."""
    cache = {}

    def at(name, k, lo, hi):
        key = (name, k) if lo is None else (name, k, lo, hi)
        if key not in cache:
            bt, bv = base[name]
            batches = state.batches[name][:k]
            if lo is not None:
                a, b = np.searchsorted(bt, [lo, hi])
                bt, bv = bt[a:b], bv[a:b]
                batches = [(t, v) for t, v in batches
                           if t[0] < hi and t[-1] >= lo]
            cache[key] = merge_batches((bt, bv), batches)
        return cache[key]

    def candidates(sample, lo, hi):
        name = sample.op.series
        first, last = sample.ctx["prefix"]
        for k in range(last, first - 1, -1):
            if sample.kind == "render":
                t, v = at(name, k, None, None)
                if lo <= t[0] and t[-1] < hi:
                    yield (name, k), t, v
            else:
                t, v = at(name, k, lo, hi)
                yield (name, k, lo, hi), t, v

    return candidates
