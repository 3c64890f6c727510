#!/usr/bin/env python3
"""Repeated bench_e2e runs: run-to-run spread, baselines, and two-commit
comparisons, using the bounds in BENCHMARK.json.

  python3 bench_e2e/compare.py spread [--runs 10] [--sets 2]
        [--workload NAME ...] [--out runs.jsonl] [--baseline FILE]
      Runs each workload --sets x --runs times from this checkout, each
      run with its own seed, the sets interleaved. Prints each end-to-end
      metric's median and quartile spread (q3 - q1) / median per set, and
      the drift between set medians. --baseline also takes one traced run
      per workload and writes medians, quartiles and host to FILE.

  python3 bench_e2e/compare.py pairs PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workload NAME ...] [--out runs.jsonl]
      Runs alternated pairs (parent first on odd pairs, change first on
      even ones; both sides of a pair share a seed) in two checkouts and
      gives a verdict per workload and metric: "better" when the change
      wins at least 9 of 10 pairs and the medians differ by more than the
      parent's own quartile spread; "worse" when its median is worse by
      more than the bound; "unresolved" when the parent's spread is wider
      than the bound (unless every change run beats every parent run);
      otherwise "same".

Run it from a checkout root; each run goes through bench_e2e/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


HOST = {}


def run_once(root, workload, seed, seconds, trace=0):
    """One run.py invocation in checkout `root`; returns its metrics and
    keeps the host line in HOST."""
    cmd = ["python3", "bench_e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} exited "
                         f"{p.returncode}")
    for line in lines:
        if line.startswith("host "):
            HOST.update(kv.split("=", 1) for kv in line.split()[1:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {workload} seed {seed} not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def worse(change, parent, better):
    """Relative amount by which `change` is worse than `parent`."""
    rel = (change - parent) / parent
    return rel if better == "lower" else -rel


def cmd_spread(args, spec):
    seconds = spec["run_seconds"]
    records = []
    for i in range(args.runs):
        for s in range(args.sets):
            for w in args.workload:
                seed = 1 + s * args.runs + i
                m = run_once(ROOT, w, seed, seconds)
                records.append({"set": s, "workload": w, "seed": seed,
                                "metrics": m})
                print(f"set {s} {w} seed {seed}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in m.items()),
                      file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")

    ok = True
    summary = {}
    print(f"{'workload':20} {'metric':12} {'bound':>6} " +
          " ".join(f"{'median' + str(s):>12} {'spread' + str(s):>8}"
                   for s in range(args.sets)) + f" {'drift':>7}")
    for w in args.workload:
        summary[w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for s in range(args.sets):
                vals = [r["metrics"][name] for r in records
                        if r["workload"] == w and r["set"] == s]
                q1, q3, spread = quartile_spread(vals)
                med = statistics.median(vals)
                medians.append(med)
                cols.append(f"{med:12.6g} {spread:8.4f}")
                if name != "setup_s" and spread > bound / 3:
                    ok = False
            drift = max(worse(x, medians[0], m["better"])
                        for x in medians[1:]) if args.sets > 1 else 0.0
            if drift > bound:
                ok = False
            all_vals = [r["metrics"][name] for r in records
                        if r["workload"] == w]
            q1, q3, spread = quartile_spread(all_vals)
            summary[w][name] = {"median": statistics.median(all_vals),
                                "q1": q1, "q3": q3, "spread": spread,
                                "runs": len(all_vals)}
            print(f"{w:20} {name:12} {bound:6.3f} " + " ".join(cols) +
                  f" {drift:7.4f}")
    print("all spreads below a third of their bounds and drifts within "
          "bounds" if ok else "SPREAD OR DRIFT OUT OF BOUNDS")

    if args.baseline:
        traced = {w: run_once(ROOT, w, 1, seconds, trace=1)
                  for w in args.workload}
        with open(args.baseline, "w") as f:
            json.dump({"host": HOST, "run_seconds": seconds,
                       "end_to_end": summary, "traced_seed1": traced},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def cmd_pairs(args, spec):
    seconds = spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    records = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in args.workload:
            for side in order:
                m = run_once(sides[side], w, 1000 + i, seconds)
                runs[w][side].append(m)
                records.append({"pair": i, "side": side, "workload": w,
                                "seed": 1000 + i, "metrics": m})
    if args.out:
        with open(args.out, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")

    print(f"{'workload':20} {'metric':12} {'parent':>12} {'change':>12} "
          f"{'wins':>6} verdict")
    for w in args.workload:
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            p = [r[name] for r in runs[w]["parent"]]
            c = [r[name] for r in runs[w]["change"]]
            pm, cm = statistics.median(p), statistics.median(c)
            _, _, p_spread = quartile_spread(p)
            sign = -1 if better == "lower" else 1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            all_better = (min(c) > max(p)) if better == "higher" \
                else (max(c) < min(p))
            if wins >= 0.9 * len(p) and abs(cm - pm) / pm > p_spread:
                verdict = "better"
            elif p_spread > bound and not all_better:
                verdict = "unresolved"
            elif worse(cm, pm, better) > bound:
                verdict = "worse"
            else:
                verdict = "same"
            print(f"{w:20} {name:12} {pm:12.6g} {cm:12.6g} "
                  f"{wins:3d}/{len(p):<2d} {verdict}")
    return 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--sets", type=int, default=2)
    sp.add_argument("--workload", nargs="+", choices=names, default=names)
    sp.add_argument("--out")
    sp.add_argument("--baseline")
    pp = sub.add_parser("pairs")
    pp.add_argument("parent")
    pp.add_argument("change")
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--workload", nargs="+", choices=names, default=names)
    pp.add_argument("--out")
    args = ap.parse_args()
    return cmd_spread(args, spec) if args.mode == "spread" \
        else cmd_pairs(args, spec)


if __name__ == "__main__":
    sys.exit(main())
