#!/usr/bin/env python3
"""Per-layer metrics and a "where the time goes" table from a bench_e2e trace.

    python3 bench/e2e/trace_report.py <trace file>

A trace holds one span per line: name start_ns end_ns id parent request.
Spans are recorded by bench_e2e around its calls into each layer:

  serve.*     facade calls (reads, write batches), set-ups, recoveries
  backend.*   bare per-shard backend calls (the layer ladder, the twin)
  persist.*   TimedEnv device calls (append, sync, read, rename)
  ladder.*    one ladder query: its serve.* call, then its backend.* calls
  twin.write  one write batch replayed into the bare backends

Every device call is attached to the set-up, write batch or recovery whose
interval contains it (those never overlap: there is one writer, and the
others run quiesced), whichever thread ran it.
A span's self time is its duration minus the part its children cover.
"""

import bisect
import math
import sys
from collections import defaultdict

CONTAINERS = ("serve.setup", "serve.write", "serve.recover")
PHASE_READS = {"serve.count", "serve.locate", "serve.extract",
               "serve.has_edge", "serve.neighbors", "serve.reverse"}


def quantile(values, q):
    """Nearest-rank quantile (as bench_e2e computes it); 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    k = min(len(v), max(1, math.ceil(q * len(v))))
    return float(v[k - 1])


def union_ns(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def load(path):
    """Returns ({id: [name, start, end, parent, request]}, {name: [count,
    total ns]}). The phase's reads (root facade read spans, by far the most
    numerous) are only tallied: nothing below them is traced, so each one's
    self time is its duration."""
    spans, reads = {}, defaultdict(lambda: [0, 0])
    with open(path) as f:
        for line in f:
            name, s, e, i, p, r = line.split()
            if p == "0" and name in PHASE_READS:
                row = reads[name]
                row[0] += 1
                row[1] += int(e) - int(s)
                continue
            spans[int(i)] = [name, int(s), int(e), int(p), int(r)]
    return spans, reads


def attach_device_calls(spans):
    """Parents every persist.* span to the set-up, write batch or recovery
    whose interval contains it. Pool threads record them with no parent,
    and a reader waiting on the pool may run (and record under its own
    read) a shard task of a concurrent write batch."""
    boxes = sorted((s[1], s[2], i) for i, s in spans.items()
                   if s[0] in CONTAINERS)
    starts = [b[0] for b in boxes]
    for s in spans.values():
        if not s[0].startswith("persist."):
            continue
        if s[3] in spans and spans[s[3]][0] in CONTAINERS:
            continue
        k = bisect.bisect_right(starts, s[1]) - 1
        if k >= 0 and boxes[k][1] >= s[2]:
            s[3] = boxes[k][2]


def analyze(path):
    """Returns ({metric: (value, unit)}, table lines)."""
    spans, reads = load(path)
    attach_device_calls(spans)
    children = defaultdict(list)
    for i, s in spans.items():
        if s[3] in spans:
            children[s[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_ns(i):
        s = spans[i]
        return dur(i) - union_ns([(spans[c][1], spans[c][2])
                                  for c in children[i]], s[1], s[2])

    def descendants(i):
        out, todo = [], list(children[i])
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(children[c])
        return out

    # The layer ladder: facade call vs the slowest bare shard call.
    facade, bare, overhead = [], [], []
    for i, s in spans.items():
        if not s[0].startswith("ladder."):
            continue
        f = [dur(c) for c in children[i] if spans[c][0].startswith("serve.")]
        b = [dur(c) for c in children[i] if spans[c][0].startswith("backend.")]
        if f and b:
            facade.append(f[0])
            bare.append(max(b))
            overhead.append(f[0] - max(b))
    # The bare twin: the slowest shard's share of each batch.
    twin = [max(dur(c) for c in children[i])
            for i, s in spans.items()
            if s[0] == "twin.write" and children[i]]
    # Device calls of the write stream.
    writes = [i for i, s in spans.items() if s[0] == "serve.write"]
    syncs, write_ns, persist_ns = [], 0, 0
    for i in writes:
        d = descendants(i)
        syncs += [dur(c) for c in d if spans[c][0] == "persist.sync"]
        write_ns += dur(i)
        persist_ns += union_ns([(spans[c][1], spans[c][2]) for c in d
                                if spans[c][0].startswith("persist.")],
                               spans[i][1], spans[i][2])

    serve_p50 = quantile(facade, 0.5)
    over_p50 = quantile(overhead, 0.5)
    metrics = {
        "serve.read_p50_us": (serve_p50 / 1e3, "us"),
        "backend.read_p50_us": (quantile(bare, 0.5) / 1e3, "us"),
        "serve.fanout.overhead_p50_us": (over_p50 / 1e3, "us"),
        "serve.fanout.overhead_share": (
            over_p50 / serve_p50 if serve_p50 else 0.0, "share"),
        "backend.write_batch_p50_ms": (quantile(twin, 0.5) / 1e6, "ms"),
        "backend.write_batch_p90_ms": (quantile(twin, 0.9) / 1e6, "ms"),
        "persist.fsync_p50_us": (quantile(syncs, 0.5) / 1e3, "us"),
        "persist.fsync_p99_us": (quantile(syncs, 0.99) / 1e3, "us"),
        "persist.write_share": (
            persist_ns / write_ns if write_ns else 0.0, "share"),
    }
    return metrics, where_the_time_goes(spans, reads, self_ns)


def where_the_time_goes(spans, reads, self_ns):
    """Self time per span name, grouped by the request's root span."""
    root_of = {}

    def root(i):
        path = []
        while i not in root_of and spans[i][3] in spans:
            path.append(i)
            i = spans[i][3]
        r = root_of.get(i, i)
        for j in path + [i]:
            root_of[j] = r
        return r

    by_root = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    roots = defaultdict(lambda: [0, 0])
    for name, tally in reads.items():
        by_root[name][name] = list(tally)
        roots[name] = list(tally)
    for i, s in spans.items():
        r = root(i)
        row = by_root[spans[r][0]][s[0]]
        row[0] += 1
        row[1] += self_ns(i)
        if r == i:
            roots[s[0]][0] += 1
            roots[s[0]][1] += s[2] - s[1]
    lines = ["where the time goes (self time by span, per request kind)"]
    for rname in sorted(roots, key=lambda n: -roots[n][1]):
        count, total = roots[rname]
        lines.append(f"  {rname}: {count} requests, "
                     f"{total / 1e6:.1f} ms total")
        rows = by_root[rname]
        for name in sorted(rows, key=lambda n: -rows[n][1]):
            n, self_total = rows[name]
            share = self_total / total if total else 0.0
            lines.append(f"    {name:<24} {n:>9} spans "
                         f"{self_total / 1e6:>10.2f} ms {share:>7.1%}")
    return lines


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics, table = analyze(sys.argv[1])
    print("\n".join(table))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:14.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
