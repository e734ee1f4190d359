"""Self-test of the benchmark itself.

Usage, from the repository root:

    python3 bench/selftest.py           # smoke runs, under a minute
    python3 bench/selftest.py --full    # also full runs of every workload, about 8 minutes

The smoke part runs every workload on a small slice of its catalog, untraced
and traced, and checks that the last line names exactly the metrics in
BENCHMARK.json with their units, that every answer was right (``ok_ratio``
is 1, so the failure ratio is 0), and that the benchmark refuses to run
where the source tree is missing.  ``--full`` also runs every workload
(``endo_tensor`` too, which is not in BENCHMARK.json) on its full catalog,
untraced and traced, prints every metric and checks every
answer, then reports for each layer metric in SPLIT its share per workload
and whether the layer does most of its work in the first workload named and
under a tenth of that in the second.  The split is a finding about the
program, so it does not change the exit code.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import catalog

# per-layer metric -> (workload where it should dominate, workload where it should be small)
SPLIT = {
    "exactlin.fq_make.self_s": ("cli_cold", "endo_tensor"),
    "exactlin.matmul_prime.self_s": ("endo_tensor", "t_sweep"),
    "modrep.fitting.candidates": ("t_sweep", "endo_tensor"),
    "modrep.strip_projectives.self_s": ("endo_tensor", "cli_cold"),
    "groups.all_subgroups.self_s": ("cli_cold", "t_sweep"),
    "picard.identify.calls": ("t_sweep", "endo_tensor"),
}


def run(root: Path, workload: str, trace: int, seconds: str, smoke: bool):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", seconds, "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=175)


def check_result(proc, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        problems.append(f"correct={last['correct']} failed={last['failed']} "
                        f"attempted={last['attempted']}")
    names = {m["name"]: m["unit"] for m in wanted}
    if set(last["metrics"]) != set(names):
        problems.append(f"metrics differ: {sorted(set(names) ^ set(last['metrics']))}")
    for name, m in last["metrics"].items():
        if m.get("unit") != names.get(name) or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"{name}: {m}")
    if "ok_ratio" in last["metrics"] and last["metrics"]["ok_ratio"]["value"] != 1.0:
        problems.append("ok_ratio is not 1")
    return problems


def check_refuses_without_source() -> list[str]:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "t_sweep", 0, "1", smoke=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without a source tree: exit {proc.returncode}"]
    return []


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False

    def report(label, problems):
        nonlocal failed
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))

    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, w["name"], trace, "1", smoke=True)
            report(f"smoke {w['name']} --trace {trace}", check_result(proc, wanted))
    report("refuses to run without a source tree", check_refuses_without_source())

    if "--full" in argv:
        layers = {}
        for name in catalog.WORKLOADS:
            for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                proc = run(ROOT, name, trace, str(spec["run_seconds"]), smoke=False)
                print(proc.stdout.rstrip().rpartition("\n")[0])
                report(f"full {name} --trace {trace}", check_result(proc, wanted))
                if trace and proc.returncode == 0:
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    layers[name] = {k: v["value"] for k, v in last["metrics"].items()}
        for metric, (high, low) in SPLIT.items():
            if high not in layers or low not in layers:
                continue
            values = {w: layers[w][metric] for w in layers}
            total = sum(values.values()) or 1.0
            shares = ", ".join(f"{w} {v / total:.0%}" for w, v in values.items())
            ok = values[high] == max(values.values()) and values[low] <= values[high] / 10
            print(f"{'as expected' if ok else 'DIFFERENT  '} {metric}: {shares} "
                  f"(expected most in {high}, little in {low})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
