"""Turn the run records in .bench_work/results into a trajectory entry.

    python3 bench/summarize.py --label seed            # print the entry
    python3 bench/summarize.py --label seed --append   # add it to trajectory.json

For every workload it gives, over the untraced runs, the median and
quartiles of each end-to-end metric and their spread (interquartile
distance / median), and the median over the traced runs of each
per-layer metric.  All records must come from the same source tree.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(".bench_work", "results")
ENV_KEYS = ("rat_backend", "python", "nproc", "commit", "src_sha256",
            "seconds")


def summarize(records):
    envs = {json.dumps({k: r["env"][k] for k in ENV_KEYS}, sort_keys=True)
            for r in records}
    if len(envs) != 1:
        raise SystemExit("records come from different trees or settings: %s"
                         % sorted(envs))
    out = {}
    for r in records:
        env = r["env"]
        wl = out.setdefault(env["workload"], {"seeds": [], "end_to_end": {},
                                              "per_layer": {},
                                              "traced_seeds": []})
        if not r["result"]["correct"]:
            raise SystemExit("%s seed %d failed: %s" % (
                env["workload"], env["seed"], r["failures"]))
        part = "per_layer" if env["trace"] else "end_to_end"
        (wl["traced_seeds"] if env["trace"] else wl["seeds"]).append(
            env["seed"])
        for name, m in r["result"]["metrics"].items():
            wl[part].setdefault(name, {"unit": m["unit"], "values": []})
            wl[part][name]["values"].append(m["value"])
    for wl in out.values():
        for name, m in wl["end_to_end"].items():
            v = m.pop("values")
            q1, med, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                           else [v[0]] * 3)
            m.update({"median": statistics.median(v), "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / statistics.median(v)})
        for m in wl["per_layer"].values():
            m["median"] = statistics.median(m.pop("values"))
        wl["seeds"].sort()
        wl["traced_seeds"].sort()
    env = json.loads(envs.pop())
    return {"env": env, "workloads": out}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--append", action="store_true")
    args = p.parse_args(argv)
    records = []
    for path in sorted(glob.glob(os.path.join(RESULTS, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit("no records under %s" % RESULTS)
    entry = dict(label=args.label, **summarize(records))
    if not args.append:
        json.dump(entry, sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    path = os.path.join(HERE, "trajectory.json")
    trajectory = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
