"""picstab benchmark: end-to-end metrics per workload, or per-layer metrics from spans.

Usage, from the repository root:

    python3 bench/run.py --workload t_sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload cli_cold --seed 1 --seconds 50 --trace 1 --record runs.jsonl

Workloads (closed loop, one caller, one process at a time); BENCHMARK.json
names ``t_sweep`` and ``cli_cold``, and ``endo_tensor`` runs by name only:

* ``t_sweep``: library ``compute_t`` over graph-of-groups constructions x
  finite fields, in one Python session; items share vertex groups, so the
  caches warm within a pass.
* ``endo_tensor``: library ``is_endotrivial`` on Omega^n k and k + Omega^n k
  for p-groups of order 4 to 16; large tensor modules over small fields.
* ``cli_cold``: every item is a fresh ``python -m picstab.cli`` process, so
  nothing is shared between items.

A pass runs every catalog item once (bench/catalog.py) in a fresh worker
process, so caches never carry between passes or runs.  Passes repeat while
that brings the time spent in item loops nearer to ``--seconds``.  Throughput
and CPU per pass come from totals over all passes of the run, latencies are
pooled over them, and ``setup_s`` is the median over at least five fresh
starts.
Every answer is checked against the expected-outcome table after the loop.

Timings are reported at a reference host speed.  The host this benchmark was
defined on, a VM with 2 vCPUs on a shared machine, ran the same pass 1.6
times slower at one time than ten minutes earlier, and every timing drifted
with it, set-up included.  So each worker times a fixed pure-Python loop
between items (worker.HostClock), and every timing of a run is multiplied by
``CAL_REFERENCE_S`` over the mean of those samples (throughput divided by
it): the figures are those of a host on which the loop takes
``CAL_REFERENCE_S``.  The raw figures and the factor are printed and kept in
the record.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics: untraced and traced passes
alternate, spans come from the traced ones (bench/spans.py), and
``trace.overhead_s`` is traced minus untraced wall time of the same pass.
``--record FILE`` appends the full run record (environment, per-pass data,
cache counters, baseline rows) as one JSON line; bench/compare.py reads it.
The ROADMAP baseline cross-check is ``baseline`` in that record.

Exits 2 without a result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import catalog
import spans

SETUP_STARTS = 5
CAL_REFERENCE_S = 0.005  # the time of one worker.HostClock sample at reference speed
DEADLINE_S = 165.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail is the latency with this many items above it


class WorkerFailed(RuntimeError):
    pass


def environment(nproc: int) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "picstab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "blas_threads": nproc,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _kill_group(proc) -> None:
    """Kill a worker and the CLI processes it started, which share its process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts worker processes one at a time, each waited for before the next."""

    def __init__(self, args, env, workdir: Path):
        self.args, self.env, self.workdir = args, env, workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, pass_index: int, trace: bool, setup_only: bool = False):
        """(set-up seconds, pass record or None)."""
        passdir = self.workdir / f"pass{pass_index}{'t' if trace else ''}{'s' if setup_only else ''}"
        passdir.mkdir()
        argv = [sys.executable, str(BENCH / "worker.py"), self.args.workload,
                str(self.args.seed), str(pass_index), str(int(trace)),
                str(int(self.args.smoke)), str(int(setup_only)), str(passdir)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise WorkerFailed("out of time before the pass could start")
        with open(passdir / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc,))
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - start
                out = proc.stdout.read()
                proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None or proc.returncode != 0:
                    _kill_group(proc)
                    proc.wait()
                proc.stdout.close()
            if ready.strip() != b"READY" or proc.returncode != 0:
                err.seek(0)
                tail = err.read()[-2000:].decode(errors="replace")
                raise WorkerFailed(f"worker exited {proc.returncode}: {tail}")
        return setup, (None if setup_only else json.loads(out))


def run_metrics(passes: list[dict]) -> dict:
    """Throughput and CPU per pass from run totals; RSS a median; latencies pooled.

    Totals use every second measured, where a median of the few passes in a
    run would rest on one or two of them.

    The tail is the latency with TAIL_BEYOND items per pass above it, so its
    percentile depends only on the number of items in a pass, not on how many
    passes fitted into the run.
    """
    pooled = sorted(lat for p in passes for lat in p["latencies"])
    beyond = TAIL_BEYOND * len(passes)
    return {
        "items_per_s": sum(len(p["latencies"]) for p in passes) / sum(p["wall_s"] for p in passes),
        "item_p50_s": statistics.median(pooled),
        "item_tail_s": pooled[-beyond - 1] if len(pooled) > beyond else pooled[-1],
        "cpu_s": sum(p["cpu_s"] for p in passes) / len(passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def host_scale(passes: list[dict]) -> float:
    """Reference over measured host speed during the run's item loops; below 1 when slow."""
    return CAL_REFERENCE_S / statistics.fmean(s for p in passes for s in p["host_cal_s"])


def at_reference_speed(raw: dict, scale: float) -> dict:
    out = {name: raw[name] * scale for name in ("setup_s", "item_p50_s", "item_tail_s", "cpu_s")}
    out["items_per_s"] = raw["items_per_s"] / scale
    out["peak_rss_mb"] = raw["peak_rss_mb"]
    return out


def _more(loop_s: float, last_s: float, seconds: float) -> bool:
    """Whether another pass like the last one ends nearer to ``seconds`` than stopping now."""
    return loop_s + last_s / 2 < seconds


def timed_run(runner: Runner, seconds: float):
    passes, setups, loop_s = [], [], 0.0
    while not passes or _more(loop_s, passes[-1]["wall_s"], seconds):
        setup, rec = runner.worker(len(passes), trace=False)
        setups.append(setup)
        passes.append(rec)
        loop_s += rec["wall_s"]
    while len(setups) < SETUP_STARTS:
        setups.append(runner.worker(len(setups), trace=False, setup_only=True)[0])
    raw = run_metrics(passes)
    raw["setup_s"] = statistics.median(setups)
    scale = host_scale(passes)
    return (at_reference_speed(raw, scale), passes,
            {"setup_samples": setups, "raw_metrics": raw, "host_scale": scale})


def traced_run(runner: Runner, seconds: float, layer_names: list[str]):
    passes, layers, overheads, loop_s = [], [], [], 0.0
    while not layers or _more(loop_s, passes[-1]["wall_s"] + passes[-2]["wall_s"], seconds):
        index = len(layers)
        _, plain = runner.worker(index, trace=False)
        _, traced = runner.worker(index, trace=True)
        passes += [plain, traced]
        overheads.append(traced["wall_s"] - plain["wall_s"])
        layers.append(spans.finalize(traced["layers"], layer_names))
        loop_s += plain["wall_s"] + traced["wall_s"]
    metrics = {n: statistics.median(layer[n] for layer in layers) for n in layer_names}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, passes, {"overhead_samples": overheads}


def baseline_rows(workload: str, passes: list[dict]) -> list[dict]:
    rows = []
    for name, roadmap_s in catalog.BASELINE_ROWS.get(workload, {}).items():
        times = [lat for p in passes for n, lat in zip(p["items"], p["latencies"]) if n == name]
        if times:
            rows.append({"item": name, "roadmap_s": roadmap_s,
                         "measured_s": statistics.median(times), "samples": len(times)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a small slice of each catalog")
    ap.add_argument("--record", help="append the full run record to this JSON-lines file")
    args = ap.parse_args(argv)
    # On SIGTERM unwind through the finally blocks, which stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "picstab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no picstab source tree under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    nproc = len(os.sched_getaffinity(0))
    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(args, worker_env(nproc), workdir)
    try:
        if args.trace:
            metrics, passes, extra = traced_run(runner, args.seconds, list(units))
        else:
            metrics, passes, extra = timed_run(runner, args.seconds)
    except WorkerFailed as ex:
        print(f"benchmark run failed: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics["ok_ratio"] = (attempted - len(failures)) / attempted
    n_items = len(passes[0]["latencies"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": environment(nproc),
        "metrics": {name: metrics[name] for name in units},
        "items_per_pass": n_items,
        "tail_percentile": 100.0 * (n_items - TAIL_BEYOND) / n_items if n_items > TAIL_BEYOND else 100.0,
        "passes": [{k: p.get(k) for k in ("items", "latencies", "wall_s", "cpu_s",
                                           "peak_rss_mb", "failures", "caches", "host_cal_s")}
                   for p in passes],
        "baseline": baseline_rows(args.workload, passes),
        "failures": failures,
        **extra,
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    env = record["env"]
    print(f"# picstab {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"items/pass={n_items} tail=p{record['tail_percentile']:.0f} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']}")
    raw = extra.get("raw_metrics", {})
    if raw:
        print(f"# timings at reference host speed: raw x {extra['host_scale']:.4f}")
    for name, unit in units.items():
        here = f"   (raw {raw[name]:.6g})" if name in raw and raw[name] != metrics[name] else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{here}")
    for row in record["baseline"]:
        print(f"baseline {row['item']}: {row['measured_s']:.3f} s here, ROADMAP {row['roadmap_s']} s")
    for f in failures:
        print(f"FAILED {json.dumps(f)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
