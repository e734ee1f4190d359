"""One pass of a workload, in a fresh process: the unit that run.py times.

Usage: worker.py WORKLOAD SEED PASS TRACE SMOKE SETUP_ONLY WORKDIR

The worker imports picstab (with numpy and click) and builds the pass's
inputs, then writes ``READY`` on stdout; that is the end of set-up.  With
SETUP_ONLY it exits there.  Otherwise it runs the items one after another
(closed loop, one caller), checks every answer after the loop, and writes
one JSON line with per-item latencies, CPU, peak RSS, cache counters,
host calibration samples and, when TRACE is 1, the per-layer span totals.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import catalog
import snfcheck
import spans

BENCH = Path(__file__).resolve().parent


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


CAL_LOOPS = 50_000  # 4-7 ms of pure Python on a 2-vCPU VM
CAL_EVERY_S = 0.2


class HostClock:
    """Samples the host's current speed between items.

    A sample is the time of a fixed pure-Python loop that is not picstab's
    code and creates no objects the garbage collector tracks, so the state of
    the program does not change it; only the host's speed does.  Samples are
    taken before an item once CAL_EVERY_S has passed since the last one, so
    they spread evenly over the time the items run.  Their time is kept out
    of the pass's wall and CPU time.
    """

    def __init__(self):
        self.samples, self.wall_s, self.cpu_s = [], 0.0, 0.0
        self._next = 0.0

    def tick(self) -> None:
        if time.perf_counter() < self._next:
            return
        cpu0, t0 = time.process_time(), time.perf_counter()
        s = 0
        for i in range(CAL_LOOPS):
            s = (s * 31 + i) % 65521
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.wall_s += t1 - t0
        self.cpu_s += time.process_time() - cpu0
        self._next = t1 + CAL_EVERY_S


# ---------------------------------------------------------------------------
# library items


def _build_construction(spec):
    from picstab import groups, treecalc

    g = groups.build_group
    kind = spec["type"]
    if kind == "amalgam":
        return treecalc.amalgam(g(spec["left"]), g(spec["right"]), g(spec["edge"]),
                                [spec["embed_left"]["gen_to"]], [spec["embed_right"]["gen_to"]])
    if kind == "hnn":
        return treecalc.hnn(g(spec["vertex"]), g(spec["edge"]),
                            [spec["embed_initial"]["gen_to"]], [spec["embed_terminal"]["gen_to"]])
    return treecalc.free_product([g(f) for f in spec["factors"]])


def run_t_sweep(item):
    from picstab import exactlin, treecalc

    k = exactlin.fq_make(*item["field"])
    result = treecalc.compute_t(_build_construction(item["construction"]), k)
    return str(result.answer)


def _change_basis(m, seed: int):
    """The same module in a random monomial basis P: generators P A P^-1.

    A monomial P keeps the sparsity of the library's bases, so the work per
    item does not depend on the seed; the new module is validated on entry.
    """
    from picstab import exactlin, modrep

    rng = random.Random(seed)
    f, n = m.field, m.dim
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.randrange(1, f.q)
    p = exactlin.FqMatrix.from_rows(f, rows)
    p_inv = exactlin.inverse(p)
    return modrep.GModule(m.group, f, [p @ a @ p_inv for a in m.gen_action], m.label)


def run_endo_tensor(item):
    from picstab import exactlin, groups, modrep

    g = groups.build_group(item["group"])
    k = exactlin.fq_make(*item["field"])
    m = modrep.trivial_module(g, k)
    for _ in range(item["n"]):
        m = modrep.syzygy(m)
    m = _change_basis(m, item["basis_seed"])
    if item["plus_k"]:
        m = modrep.direct_sum(g, k, [modrep.trivial_module(g, k), m])
    return bool(modrep.is_endotrivial(m))


LIBRARY = {"t_sweep": run_t_sweep, "endo_tensor": run_endo_tensor}


def library_pass(workload, items, tracer, clock):
    run = LIBRARY[workload]
    latencies, answers = [], []
    if tracer:
        tracer.reset()
    cpu0 = _cpu(resource.RUSAGE_SELF)
    wall0 = time.perf_counter()
    for item in items:
        clock.tick()
        t0 = time.perf_counter()
        try:
            answer = run(item)
        except Exception as ex:  # noqa: BLE001 - a refusal is an answer; checked below
            answer = f"refused:{type(ex).__name__}"
        latencies.append(time.perf_counter() - t0)
        answers.append(answer)
    wall = time.perf_counter() - wall0 - clock.wall_s
    cpu = _cpu(resource.RUSAGE_SELF) - cpu0 - clock.cpu_s
    failures = [
        {"item": it["name"], "expected": it["expected"], "got": ans}
        for it, ans in zip(items, answers) if ans != it["expected"]
    ]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return latencies, wall, cpu, rss_mb, failures


# ---------------------------------------------------------------------------
# CLI items


def _field(report, dotted):
    for part in dotted.split("."):
        report = report[part]
    return report


def check_cli(item, code, out) -> str | None:
    """None when the process did what the expected-outcome table says."""
    if code != item["exit"]:
        return f"exit {code}, expected {item['exit']}"
    if code == 1:
        return None  # expected refusal: the message is on stderr
    report = json.loads(out)
    for key, want in item["expect"].items():
        if key == "snf":
            matrix = json.loads(Path(item["paths"][0]).read_text())["matrix"]
            problem = snfcheck.check(matrix, report, minors=want)
            if problem:
                return problem
        elif _field(report, key) != want:
            return f"{key} = {_field(report, key)!r}, expected {want!r}"
    return None


def cli_pass(items, workdir: Path, traced: bool, clock):
    """Each item is a fresh CLI process; its CPU and RSS come from RUSAGE_CHILDREN."""
    latencies, results, layer_totals = [], [], []
    cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    wall0 = time.perf_counter()
    for i, item in enumerate(items):
        clock.tick()
        if traced:
            span_file = workdir / f"spans{i}.json"
            argv = [sys.executable, str(BENCH / "clitrace.py"), str(span_file), *item["args"]]
        else:
            argv = [sys.executable, "-m", "picstab.cli", *item["args"]]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        latencies.append(time.perf_counter() - t0)
        results.append((proc.returncode, out))
        if traced:
            totals = json.loads(span_file.read_text())
            totals["cli.process_s"] = latencies[-1]
            layer_totals.append(totals)
    wall = time.perf_counter() - wall0 - clock.wall_s
    cpu = _cpu(resource.RUSAGE_CHILDREN) - cpu0
    failures = []
    for item, (code, out) in zip(items, results):
        try:
            problem = check_cli(item, code, out)
        except (ValueError, KeyError, TypeError) as ex:
            problem = f"unreadable report: {type(ex).__name__}: {ex}"
        if problem:
            failures.append({"item": item["name"], "problem": problem})
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return latencies, wall, cpu, rss_mb, failures, layer_totals


def _write_cli_inputs(items, workdir: Path) -> None:
    for item in items:
        item["paths"] = []
        for fname, doc in item["files"].items():
            path = workdir / fname
            path.write_text(json.dumps(doc))
            item["paths"].append(str(path))
        item["args"] = [a.replace("{dir}", str(workdir)) for a in item["argv"]]


# ---------------------------------------------------------------------------


def main(argv) -> int:
    workload, seed, pass_index, trace, smoke, setup_only, workdir = argv
    import picstab.cli  # noqa: F401 - set-up includes the whole package with numpy and click
    from picstab import exactlin, groups, modrep, picard

    items = catalog.pass_items(workload, int(seed), int(pass_index), smoke == "1")
    workdir = Path(workdir)
    if workload == "cli_cold":
        _write_cli_inputs(items, workdir)
    lru = {"fq_make": exactlin.fq_make, "t_group": picard.t_group, "cyclic": groups.cyclic}
    before = {name: fn.cache_info() for name, fn in lru.items()}
    tracer = None
    if trace == "1" and workload != "cli_cold":
        tracer = spans.Tracer()
        tracer.install()
    print("READY", flush=True)
    if setup_only == "1":
        return 0

    record = {"items": [it["name"] for it in items]}
    clock = HostClock()
    if workload == "cli_cold":
        lat, wall, cpu, rss, failures, totals = cli_pass(items, workdir, trace == "1", clock)
        if trace == "1":
            record["layers"] = spans.merge(totals)
    else:
        lat, wall, cpu, rss, failures = library_pass(workload, items, tracer, clock)
        after = {name: fn.cache_info() for name, fn in lru.items()}
        record["caches"] = {
            **{f"{name}.{field}": getattr(after[name], field) - getattr(before[name], field)
               for name in lru for field in ("hits", "misses")},
            "pims.entries": len(modrep._PIM_CACHE),
        }
        if tracer:
            layers = spans.summarize(tracer.spans)
            layers["exactlin.fq_make.misses"] = record["caches"]["fq_make.misses"]
            layers["picard.t_group.misses"] = record["caches"]["t_group.misses"]
            record["layers"] = layers
    record.update(latencies=lat, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss, failures=failures,
                  host_cal_s=clock.samples)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
