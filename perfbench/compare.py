"""Compare two sets of benchmark runs, metric by metric, by their medians.

    python3 perfbench/compare.py BASE.log ... -- NEW.log ...

Each log is the standard output of one `perfbench/run.py` run. Runs are
grouped by workload and trace setting. For each metric the table gives both
medians, the base runs' quartile spread as a share of their median, and the
change toward "worse" as a share of the base median, against the bound that
BENCHMARK.json fixes. Sets whose rational backends differ are refused (exit
2): Fraction and gmpy2 mpq timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """{(workload, trace): {metric: [values]}} and the set of backends."""
    runs = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in paths:
        lines = Path(path).read_text().splitlines()
        env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
        result = json.loads(lines[-1])
        backends.add(env["backend"])
        for name, m in result["metrics"].items():
            runs[(env["workload"], env["trace"])][name].append(m["value"])
    return runs, backends


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 64
    cut = argv.index("--")
    base, base_backends = load(argv[:cut])
    new, new_backends = load(argv[cut + 1 :])
    if len(base_backends | new_backends) != 1:
        print(f"refusing to compare runs on backends {sorted(base_backends)} "
              f"and {sorted(new_backends)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse_beyond = False
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]} (trace {key[1]})")
        for name, values in base[key].items():
            if name not in new[key] or name not in metrics:
                continue
            b, n = statistics.median(values), statistics.median(new[key][name])
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [b, b, b]
            spread = (q[2] - q[0]) / abs(b) if b else float("nan")
            sign = 1 if metrics[name]["better"] == "lower" else -1
            worse = sign * (n - b) / abs(b) if b else float("nan")
            bound = metrics[name].get("bound")
            verdict = ""
            if bound is not None:
                verdict = "WORSE BEYOND BOUND" if worse > bound else "within bound"
                worse_beyond |= worse > bound
            print(f"{name:30s} base {b:<12.6g} new {n:<12.6g} spread {spread:6.3f} "
                  f"worse {worse:+7.3f} {verdict}")
    return 1 if worse_beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
