"""Median and quartiles of benchmark results, per workload and metric.

    python3 bench/summarize.py [RESULT_FILE ...]

Reads the JSON objects that run.py writes to .bench_build/results/ (or the
files given, each holding run.py's output) and prints, for every workload,
trace mode and metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), as one JSON
object.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".bench_build", "results", "*.json")


def load(path):
    """(detail, result) from a results file or a captured run.py stdout."""
    with open(path) as fh:
        text = fh.read()
    try:
        both = json.loads(text)
        return both["detail"], both["result"]
    except ValueError:
        lines = text.strip().splitlines()
        return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(paths):
    groups = {}
    for path in paths:
        detail, result = load(path)
        key = f"{detail['workload']} trace={detail['trace']}"
        group = groups.setdefault(key, {"runs": 0, "seeds": [], "failed_frac": set(), "metrics": {}})
        group["runs"] += 1
        group["seeds"].append(detail["seed"])
        group["failed_frac"].add(round(detail["failed_frac"], 6))
        for name, m in result["metrics"].items():
            group["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for group in groups.values():
        group["seeds"].sort()
        group["failed_frac"] = sorted(group["failed_frac"])
        for m in group["metrics"].values():
            values = m.pop("values")
            median = statistics.median(values)
            m["median"] = median
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return groups


def main(argv):
    paths = argv or sorted(glob.glob(RESULTS))
    print(json.dumps(summarize(paths), indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
