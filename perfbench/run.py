"""Served-M4 benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload live-ingest --seed 1 --seconds 40 --trace 0

It generates the workload's inputs from ``--seed``, loads them through
the public engine API, boots ``repro serve`` in its own process, drives it
closed loop from this process (at most ``nproc`` client threads) for
``--seconds``, then checks every answer against a numpy reference.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run is repeated against a server whose layer entry
points are wrapped in spans (see ``traced_server.py``) and the line
carries the per-layer metrics.  Metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import client  # noqa: E402
from analysis import percentile, ratio, tail_percentile  # noqa: E402
from check import Checker, answer_rows, live_model, static_model  # noqa: E402
from layers import counter_deltas, load_spans, per_layer  # noqa: E402
from reference import materialize, merge_batches  # noqa: E402
from stack import Server, load_store, reap_all, store_bytes  # noqa: E402
from workloads import WORKLOADS, IngestFeed  # noqa: E402

SETUP_REPEATS = 3
POINT_BYTES = 16            # one int64 timestamp + one float64 value

#: The metrics of the result line (BENCHMARK.json ``end_to_end``): those
#: every workload produces.  The ingest metrics exist on ``live-ingest``
#: only and ``ops_failed_frac`` is 0 on a correct program, so those are
#: printed with the others but carried by ``failed``/``attempted`` and
#: the stdout report instead.
END_TO_END = ("setup_s", "query_p50_ms", "query_p90_ms", "render_p50_ms",
              "read_ops_per_s", "server_rss_mb", "store_bytes_per_point")


def machine_stamp(root, wl, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"      # a plain checkout has no .git
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "seed": seed, "workload": wl.name,
            **wl.budgets()}


def setup(root, work, wl, inputs, index, spans_out=None):
    """Empty directory -> loaded store -> healthy server; returns
    ``(server, store, seconds)``."""
    store = os.path.join(work, "store%d" % index)
    shutil.rmtree(store, ignore_errors=True)
    started = time.perf_counter()
    load_store(store, wl, inputs.events)
    server = Server(root, store, wl, os.path.join(work, "server.log"),
                    spans_out=spans_out)
    server.wait_healthy()
    return server, store, time.perf_counter() - started


def drive(server, wl, inputs, seconds, seed, store):
    """Warm up, then one timed closed-loop phase.  Returns a dict with
    the samples, phase bounds, ``/stats`` before/after and peak RSS."""
    address = server.url
    if wl.name == "fleet-tiles":
        client.warm(address, inputs.extra["warm"], wl.readers)
    elif wl.name == "paper-w1000":
        client.warm(address, inputs.sessions[0][0][:1]
                    + inputs.sessions[0][0][-1:], 1)
    out = {"stats0": server.stats(),
           "tsfile0": store_bytes(store, ".tsfile")}
    if wl.writer:
        state = client.LiveState(inputs.extra["series"],
                                 inputs.extra["heads"])
        feed = IngestFeed(inputs.extra["series"], inputs.extra["heads"],
                          inputs.extra["feed_seed"])
        reads, writes, start, end = client.live(address, feed, state,
                                                seconds, seed)
        out["state"] = state
    else:
        reads, start, end = client.replay(address, inputs.sessions, seconds)
        writes = []
    out.update(reads=reads, writes=writes, start=start, end=end,
               stats1=server.stats(), tsfile1=store_bytes(store, ".tsfile"),
               rss_mb=server.rss_mb())
    return out


def check_phase(checker, wl, model, phase):
    if wl.writer:
        checker.reads(phase["reads"], live_model(model, phase["state"]))
        checker.writes(phase["writes"])
    else:
        checker.reads(phase["reads"], static_model(model))


def final_model(model, phase):
    """The store's expected content after the run's acked writes."""
    if not phase.get("writes"):
        return model
    state = phase["state"]
    return {name: merge_batches(model[name],
                                state.batches[name][:state.acked[name]])
            for name in model}


def read_back(store, names):
    """Reopen ``store`` through the public engine API; all points."""
    from repro.core.m4 import M4UDFOperator
    from repro.shard import open_store
    engine = open_store(store)
    try:
        out = {}
        for name in names:
            series = M4UDFOperator(engine).merged_series(
                name, -(1 << 62), 1 << 62)
            out[name] = (np.asarray(series.timestamps),
                         np.asarray(series.values))
        return out
    finally:
        engine.close()


def end_to_end(phase, setups, expected, store_size):
    reads = [s for s in phase["reads"] if s.status == 200]
    queries = [s.ms for s in reads if s.kind == "query"]
    renders = [s.ms for s in reads if s.kind == "render"]
    elapsed = phase["end"] - phase["start"]
    points = sum(t.size for t, _ in expected.values())
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (percentile(queries, 50), "ms"),
        "query_p90_ms": (percentile(queries, 90), "ms"),
        "render_p50_ms": (percentile(renders, 50), "ms"),
        "read_ops_per_s": (len(reads) / elapsed, "1/s"),
        "server_rss_mb": (phase["rss_mb"], "MB"),
        "store_bytes_per_point": (store_size / points, "B"),
    }
    acked = [s for s in phase["writes"] if s.status == 200]
    if phase["writes"]:
        acks = [s.ms for s in acked]
        m["ingest_points_per_s"] = (
            sum(s.ctx["points"] for s in acked) / elapsed, "1/s")
        m["ingest_ack_p50_ms"] = (percentile(acks, 50), "ms")
        m["ingest_ack_p90_ms"] = (percentile(acks, 90), "ms")
    counts = {"queries": len(queries), "renders": len(renders),
              "ingests": len(acked),
              "query_tail_percentile_supported": tail_percentile(
                  len(queries))}
    return m, counts


def run_untraced(root, work, wl, inputs, model, args, checker):
    setups = []
    for i in range(SETUP_REPEATS):
        server, store, seconds = setup(root, work, wl, inputs, i)
        setups.append(seconds)
        if i < SETUP_REPEATS - 1:
            server.kill()   # a throwaway store needs no graceful drain
            shutil.rmtree(store, ignore_errors=True)
    phase = drive(server, wl, inputs, args.seconds, args.seed, store)
    expected = final_model(model, phase)
    if wl.writer:
        server.kill()   # durability drill: acked writes must survive
        size = store_bytes(store)
        checker.durable(expected, read_back(store, sorted(expected)))
    else:
        server.stop()
        size = store_bytes(store)
    check_phase(checker, wl, model, phase)
    metrics, counts = end_to_end(phase, setups, expected, size)
    metrics["ops_failed_frac"] = (ratio(checker.failed, checker.attempted),
                                  "ratio")
    return metrics, counts


def run_traced(root, work, wl, inputs, model, args, checker):
    # The plain and the traced phase share the run's ``--seconds``.
    seconds = args.seconds / 2.0
    server, store, _ = setup(root, work, wl, inputs, 0)
    plain = drive(server, wl, inputs, seconds, args.seed, store)
    server.stop()
    shutil.rmtree(store, ignore_errors=True)
    check_phase(checker, wl, model, plain)
    spans_out = os.path.join(work, "spans.json")
    server, store, _ = setup(root, work, wl, inputs, 1, spans_out=spans_out)
    phase = drive(server, wl, inputs, seconds, args.seed, store)
    server.stop()
    check_phase(checker, wl, model, phase)
    reads = [s for s in phase["reads"] if s.status == 200]
    output_points = 4 * sum(answer_rows(s) for s in reads)
    user_bytes = POINT_BYTES * sum(s.ctx["points"] for s in phase["writes"]
                                   if s.status == 200)
    deltas = counter_deltas(phase["stats0"], phase["stats1"], len(reads),
                            output_points, user_bytes,
                            phase["tsfile1"] - phase["tsfile0"])

    def ops_per_s(p):
        return (sum(s.status == 200 for s in p["reads"])
                / (p["end"] - p["start"]))

    metrics = per_layer(phase["reads"] + phase["writes"],
                        load_spans(spans_out), deltas, ops_per_s(plain),
                        ops_per_s(phase))
    return metrics, {"reads": len(reads), "ingests": len(phase["writes"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--operator", choices=("m4lsm", "m4udf"),
                        default="m4lsm",
                        help="operator named in the /query SQL (m4udf "
                             "measures the baseline; renders always use "
                             "the server's M4-LSM path)")
    args = parser.parse_args(argv)
    # A terminated run still stops its servers (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: no program at src/repro; run from the repository "
              "root", file=sys.stderr)
        return 2
    # The loader's shard workers and the server are child processes:
    # they find the program through PYTHONPATH.
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench", "%s-%d-%d"
                        % (wl.name, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    stamp = dict(machine_stamp(root, wl, args.seed), operator=args.operator)
    print("stamp: %s" % json.dumps(stamp, sort_keys=True), flush=True)
    checker = Checker()
    try:
        inputs = wl.inputs(args.seed)
        if args.operator == "m4udf":
            inputs.sessions = [[[dataclasses.replace(op, using="M4UDF")
                                 if op.kind == "query" else op
                                 for op in session] for session in sessions]
                               for sessions in inputs.sessions]
        model = materialize(inputs.events)
        runner = run_traced if args.trace else run_untraced
        metrics, counts = runner(root, work, wl, inputs, model, args,
                                 checker)
    finally:
        reap_all()
        shutil.rmtree(work, ignore_errors=True)
    for error in checker.errors:
        print("FAILED: %s" % error)
    print("counts: %s" % json.dumps(counts, sort_keys=True))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-45s %14.4f %s" % (name, value, unit))
    keep = metrics if args.trace else {n: metrics[n] for n in END_TO_END}
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in keep.items()}}
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    suffix = "" if args.operator == "m4lsm" else "-" + args.operator
    with open(os.path.join(results, "%s-seed%d-trace%d%s.json"
                           % (wl.name, args.seed, args.trace, suffix)),
              "w") as f:
        json.dump({"stamp": stamp, "counts": counts, **result}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
