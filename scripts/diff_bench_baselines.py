#!/usr/bin/env python3
"""Diff a fresh bench --json run against a checked-in BENCH_*.json baseline.

Usage:
    diff_bench_baselines.py <baseline.json> <fresh.json> [--fine-edge-tolerance F]

Compares the deterministic measurements and fails (exit 1) on any mismatch:

* cycle counts: exact, everywhere (any drift is a correctness regression);
* edges_visited: exact for serial algorithms, for one-worker rows (algo
  names ending in "-1w") and for the table4 probes (their search order is
  deterministic); in the fresh hop_constrained run, fine-Johnson-1w must
  also equal its row's serial-Johnson, since an adaptive fine run on one
  worker never spawns;
* edges_visited of the other fine-* algorithms: within --fine-edge-tolerance
  (default 5%). Fine-grained execution on several workers re-checks
  spawned children against a state that evolved since the spawn, so the
  visit count legitimately drifts with thread scheduling. Over 180 runs of
  `bench_hop_constrained quick` on 4 workers (a shared 4-core host), fine
  Johnson drifted up to 4.66% (BA, hops=8: 20 of the 180 runs past 2%, 3
  past 3.5%), at most 2.19% at CO, hops=8 and at most 1.76% on every other
  row; fine BC-DFS at most 0.28%. A real work regression moves the count by
  far more, and the exact one-worker row catches a small one.
* graph/roster stats (vertices, edges, windows, degrees): exact — the
  synthetic analogs are seeded and must not silently change.

Wall-clock fields (seconds) are ignored: they are the quantity perf PRs are
allowed to change.

The schema is auto-detected from the "bench" key (table4_datasets or
hop_constrained), matching what bench_table4_datasets / bench_hop_constrained
--json emit.
"""

import argparse
import json
import sys

errors = []


def check(ok, context, message):
    if not ok:
        errors.append(f"{context}: {message}")


def check_exact(context, field, base, fresh):
    check(base == fresh, context, f"{field} mismatch: baseline {base} vs fresh {fresh}")


def check_tolerant(context, field, base, fresh, tolerance):
    if base == fresh:
        return
    denom = max(abs(base), 1)
    rel = abs(fresh - base) / denom
    check(
        rel <= tolerance,
        context,
        f"{field} drifted {rel:.2%} (> {tolerance:.2%}): baseline {base} vs fresh {fresh}",
    )


def index_by(items, key, context):
    out = {}
    for item in items:
        k = item[key]
        check(k not in out, context, f"duplicate {key}={k}")
        out[k] = item
    return out


def match_keys(base, fresh, what, context):
    check(
        set(base) == set(fresh),
        context,
        f"{what} sets differ: baseline {sorted(base)} vs fresh {sorted(fresh)}",
    )
    return sorted(set(base) & set(fresh))


def diff_table4(base, fresh, args):
    del args  # table4 probes are serial-only: everything compares exactly
    base_sets = index_by(base["datasets"], "name", "table4")
    fresh_sets = index_by(fresh["datasets"], "name", "table4")
    for name in match_keys(base_sets, fresh_sets, "dataset", "table4"):
        b, f = base_sets[name], fresh_sets[name]
        ctx = f"table4/{name}"
        for field in (
            "paper_vertices",
            "paper_edges",
            "analog_vertices",
            "analog_edges",
            "time_span",
            "max_out_degree",
            "window_simple",
            "window_temporal",
        ):
            check_exact(ctx, field, b[field], f[field])
        b_probes = index_by(b.get("probes", []), "task", ctx)
        f_probes = index_by(f.get("probes", []), "task", ctx)
        for task in match_keys(b_probes, f_probes, "probe", ctx):
            bp, fp = b_probes[task], f_probes[task]
            probe_ctx = f"{ctx}/{task}"
            check_exact(probe_ctx, "window", bp["window"], fp["window"])
            check_exact(probe_ctx, "cycles", bp["cycles"], fp["cycles"])
            check_exact(
                probe_ctx, "edges_visited", bp["edges_visited"], fp["edges_visited"]
            )


def diff_hop_constrained(base, fresh, args):
    base_sets = index_by(base["datasets"], "name", "hop")
    fresh_sets = index_by(fresh["datasets"], "name", "hop")
    for name in match_keys(base_sets, fresh_sets, "dataset", "hop"):
        b, f = base_sets[name], fresh_sets[name]
        ctx = f"hop/{name}"
        check_exact(ctx, "window", b["window"], f["window"])
        b_rows = index_by(b["rows"], "hops", ctx)
        f_rows = index_by(f["rows"], "hops", ctx)
        for hops in match_keys(b_rows, f_rows, "hop bound", ctx):
            br, fr = b_rows[hops], f_rows[hops]
            row_ctx = f"{ctx}/hops={hops}"
            check_exact(row_ctx, "cycles", br["cycles"], fr["cycles"])
            b_algos = index_by(br["algos"], "algo", row_ctx)
            f_algos = index_by(fr["algos"], "algo", row_ctx)
            if "fine-Johnson-1w" in f_algos and "serial-Johnson" in f_algos:
                one = f_algos["fine-Johnson-1w"]["edges_visited"]
                serial = f_algos["serial-Johnson"]["edges_visited"]
                check(
                    one == serial,
                    f"{row_ctx}/fine-Johnson-1w",
                    f"fresh edges_visited {one} differs from fresh serial-Johnson {serial}",
                )
            for algo in match_keys(b_algos, f_algos, "algo", row_ctx):
                algo_ctx = f"{row_ctx}/{algo}"
                be = b_algos[algo]["edges_visited"]
                fe = f_algos[algo]["edges_visited"]
                if algo.startswith("serial") or algo.endswith("-1w"):
                    check_exact(algo_ctx, "edges_visited", be, fe)
                else:
                    check_tolerant(
                        algo_ctx, "edges_visited", be, fe, args.fine_edge_tolerance
                    )


def diff_stream(base, fresh, args):
    del args  # the streaming searches carry no shared blocking state, so
    # cycle counts, edge visits and escalation decisions are deterministic
    # across schedules and compare exactly — per window lane in the multi-δ
    # schema; throughput and latency are informational.
    for field in (
        "batch_size",
        "hot_threshold",
        "prune_frontier",
        "max_length",
        "window_scales",
        "shuffled",
    ):
        check_exact("stream", field, base.get(field), fresh.get(field))
    base_sets = index_by(base["datasets"], "name", "stream")
    fresh_sets = index_by(fresh["datasets"], "name", "stream")
    for name in match_keys(base_sets, fresh_sets, "dataset", "stream"):
        b, f = base_sets[name], fresh_sets[name]
        ctx = f"stream/{name}"
        if "windows" in b:
            # Multi-δ schema: per-window batch references and per-row lanes.
            for field in ("windows", "edges", "slack"):
                check_exact(ctx, field, b[field], f[field])
            b_batch = index_by(b["batch"], "window", ctx)
            f_batch = index_by(f["batch"], "window", ctx)
            for window in match_keys(b_batch, f_batch, "batch window", ctx):
                check_exact(
                    f"{ctx}/batch window={window}",
                    "cycles",
                    b_batch[window]["cycles"],
                    f_batch[window]["cycles"],
                )
        else:
            for field in ("window", "edges", "batch_cycles"):
                check_exact(ctx, field, b[field], f[field])
        b_rows = index_by(b["rows"], "threads", ctx)
        f_rows = index_by(f["rows"], "threads", ctx)
        for threads in match_keys(b_rows, f_rows, "thread count", ctx):
            br, fr = b_rows[threads], f_rows[threads]
            row_ctx = f"{ctx}/threads={threads}"
            for field in ("cycles", "edges_visited", "escalated_edges"):
                check_exact(row_ctx, field, br[field], fr[field])
            check_exact(
                row_ctx,
                "late_edges_rejected",
                br.get("late_edges_rejected"),
                fr.get("late_edges_rejected"),
            )
            # Robustness protections must be enabled-but-idle in a bench
            # replay: a baseline run that truncated a search or shed an edge
            # measured a degraded engine, not the engine. Pinned to exactly
            # zero on BOTH sides (missing keys in an old baseline count as
            # zero).
            for field in ("searches_truncated", "edges_shed"):
                check(
                    br.get(field, 0) == 0,
                    row_ctx,
                    f"baseline {field} is {br.get(field)} (must be 0)",
                )
                check(
                    fr.get(field, 0) == 0,
                    row_ctx,
                    f"fresh {field} is {fr.get(field)} (must be 0)",
                )
            b_lanes = index_by(br.get("per_window", []), "window", row_ctx)
            f_lanes = index_by(fr.get("per_window", []), "window", row_ctx)
            for window in match_keys(b_lanes, f_lanes, "window lane", row_ctx):
                lane_ctx = f"{row_ctx}/window={window}"
                for field in ("cycles", "edges_visited", "escalated_edges"):
                    check_exact(
                        lane_ctx, field, b_lanes[window][field], f_lanes[window][field]
                    )


SCHEMAS = {
    "table4_datasets": diff_table4,
    "hop_constrained": diff_hop_constrained,
    "stream": diff_stream,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in BENCH_*.json")
    parser.add_argument("fresh", help="freshly generated --json output")
    parser.add_argument(
        "--fine-edge-tolerance",
        type=float,
        default=0.05,
        help="relative tolerance for multi-worker fine-* edges_visited "
        "(default 0.05)",
    )
    args = parser.parse_args()

    with open(args.baseline) as handle:
        base = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)

    bench = base.get("bench")
    check_exact("root", "bench", bench, fresh.get("bench"))
    if bench not in SCHEMAS:
        print(f"unknown bench schema: {bench!r}", file=sys.stderr)
        return 2
    if not errors:
        SCHEMAS[bench](base, fresh, args)

    if errors:
        print(f"baseline diff FAILED ({len(errors)} mismatches):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"baseline diff OK: {args.fresh} matches {args.baseline} ({bench})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
