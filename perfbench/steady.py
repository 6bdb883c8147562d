#!/usr/bin/env python3
"""Steadiness helper: repeat a workload and compare two sets of repeats.

Run from the repository root.

    python3 perfbench/steady.py run --workload degraded-read --repeats 10 --out a.json
    python3 perfbench/steady.py run --workload degraded-read --repeats 10 --out b.json
    python3 perfbench/steady.py compare a.json b.json

`run` calls perfbench/run.py once per repeat, each with its own seed
(seed0, seed0+1, ...), and prints every metric's median and spread: the
distance between the first and third quartile as a share of the median.
`compare` checks a second set against a first: each end-to-end metric's
median may be worse than the first set's by at most the bound in
BENCHMARK.json, and each set's spread must stay within that bound
(setup_s is exempt from the spread check). It exits 1 if any check
fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_spec():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def spread(values):
    """Interquartile range over median, as the acceptance check takes it."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def run_set(args):
    runs = []
    for i in range(args.repeats):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"repeat {i} (seed {seed}) failed with exit code {out.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"repeat {i} (seed {seed}) was not correct: {res['failed']} failed")
        runs.append({k: v["value"] for k, v in res["metrics"].items()})
        print(f"repeat {i} seed {seed}: " +
              " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1].items())), flush=True)
    summary = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, "runs": runs}
    print_set(summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


def print_set(summary):
    spec = bench_spec()
    print(f"{summary['workload']}: {len(summary['runs'])} repeats")
    print(f"  {'metric':42s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(summary["runs"][0]):
        med, sp = spread([r[name] for r in summary["runs"]])
        bound = spec.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if sp <= bound else "TOO WIDE"
            if sp > bound / 3 and flag == "ok":
                flag = "ok (above a third of the bound)"
        b = f"{bound:.2f}" if bound is not None else ""
        print(f"  {name:42s} {med:14.4f} {sp:8.3f} {b:>6s} {flag}")


def compare(args):
    spec = bench_spec()
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    print(f"{a['workload']}: first set {len(a['runs'])} repeats, second set {len(b['runs'])} repeats")
    for name, m in spec.items():
        if "bound" not in m or name not in a["runs"][0]:
            continue
        ma, sa = spread([r[name] for r in a["runs"]])
        mb, sb = spread([r[name] for r in b["runs"]])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        bad = worse > m["bound"]
        if name != "setup_s":
            bad = bad or sa > m["bound"] or sb > m["bound"]
        ok = ok and not bad
        print(f"  {name:30s} {ma:12.4f} -> {mb:12.4f}  worse by {worse:+.3f}  "
              f"spreads {sa:.3f}/{sb:.3f}  bound {m['bound']:.2f}  {'FAIL' if bad else 'ok'}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="repeat one workload")
    r.add_argument("--workload", required=True)
    r.add_argument("--repeats", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=None)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare", help="compare two sets written by run --out")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    if args.cmd == "run":
        if args.seconds is None:
            path = os.path.join(HERE, "..", "BENCHMARK.json")
            args.seconds = json.load(open(path))["run_seconds"] if os.path.exists(path) else 10
        run_set(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
