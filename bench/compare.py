"""Steadiness report: two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage, from the repository root:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload t_sweep --seed $s --seconds 50 --record a.jsonl
    done
    # ... the same again into b.jsonl, then:
    python3 bench/compare.py a.jsonl b.jsonl

For every workload and end-to-end metric it prints each set's median and its
spread, the distance between the first and third quartile as a share of the
median.  A row agrees when every spread except that of ``setup_s`` is within
the metric's bound, and the second median is not worse than the first by
more than the bound.  ``steady`` marks spreads below a third of the bound.
With one file only the spreads are judged.  Exits 1 if any row disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """workload -> metric -> values, from the untraced records in a file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec["trace"]:
            for name, value in rec["metrics"].items():
                out[rec["workload"]][name].append(value)
    return out


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    all_ok = True
    print(f"{'workload':12s} {'metric':12s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    for workload in sorted(sets[0]):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [s[workload][name] for s in sets]
            if not all(vals):
                continue
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            ok = name == "setup_s" or all(sp <= bound for sp in spreads)
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / abs(meds[0]) if meds[0] else 0.0
                worse = change if m["better"] == "lower" else -change
                ok = ok and worse <= bound
            steady = name == "setup_s" or all(sp < bound / 3 for sp in spreads)
            verdict = ("agrees" if ok else "DISAGREES") + (", steady" if steady else "")
            all_ok &= ok
            med_b = f"{meds[1]:11.5g}" if len(meds) == 2 else f"{'':11s}"
            sp_b = f"{spreads[1]:8.3f}" if len(spreads) == 2 else f"{'':8s}"
            print(f"{workload:12s} {name:12s} {meds[0]:11.5g} {med_b} {spreads[0]:8.3f} {sp_b} "
                  f"{bound:6.2f}  {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
