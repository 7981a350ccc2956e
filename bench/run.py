"""The bconn benchmark: what one CLI query costs, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs only the standard library and
the sources under src/.  The seed fixes the generated inputs (see
workloads.py), whose expected answers are computed by oracle.py before
any timing starts.

--trace 0 runs each query as its own `python -m bconn.cli` process, one
after another (a closed loop with one client), round-robin while the
measured time stays within --seconds.  `wall_s` is the sum of each
query's median time, `peak_rss_mb` the largest child `ru_maxrss` (from
os.wait4, per child) and `setup_s` the median time of a fresh
interpreter importing bconn.cli.  Times are scaled for machine speed
by an interleaved calibration loop (see REF_CAL_S).

--trace 1 replays the same queries in-process through tracer.py, one
fresh process per query: an untraced pass and a traced pass alternate,
then one tracemalloc pass gives the per-layer memory peaks.

Every answer is checked.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record, with the input sizes and per-subcommand times, goes to
.bench_run/results/.  See NOTES.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

QUERY_TIMEOUT_S = 60.0
MEMORY_TIMEOUT_S = 150.0  # one query under tracemalloc
SETUP_SAMPLES = 9
SUBCOMMANDS = ("classify", "conn", "stconn", "path", "diameter", "components", "reduce", "closure")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_TIMES = [
    "cli.output", "cli.glue",
    "formulas.parse_formula", "circuits.parse_circuit", "cnf.parse_dimacs",
    "qbf.parse_qbf", "clones.parse_base_file", "graph.parse_relation",
    "clones.clone_identify", "clones.dispatch", "properties.property_report",
    "clones.clone_closure",
    "semantics.truth_table_of", "semantics.evaluate",
    "graph.enumerate_solutions", "graph.components", "graph.diameter", "graph.shortest_path",
    "easy.decide", "easy.linear_form_of",
    "reduce.tr_combine", "reduce.synth_bformula", "reduce.t_transform",
]
_COUNTS = [
    "parse.bytes", "parse.nodes", "clones.closure_tables",
    "semantics.tabulations", "semantics.table_rows",
    "graph.vertices", "graph.components", "graph.bfs_sources", "graph.path_steps",
    "easy.witness_steps",
    "reduce.synth_calls", "reduce.synth_targets", "reduce.output_nodes", "reduce.depth",
]
_CALLS = {  # call counts reported as metrics of their own
    "clones.dispatch": "clones.dispatch_calls",
    "properties.property_report": "properties.property_report_calls",
    "semantics.evaluate": "semantics.evaluate_calls",
}
_PEAKS = ["semantics", "graph", "reduce", "formulas"]

PER_LAYER = {f"{t}_s": "s" for t in _TIMES}
PER_LAYER.update({c: "count" for c in _COUNTS + list(_CALLS.values())})
PER_LAYER["reduce.synth_hit_ratio"] = "ratio"
PER_LAYER.update({f"{g}.peak_mb": "MB" for g in _PEAKS})
PER_LAYER["trace.overhead_frac"] = "ratio"

# Spans (by call count) and counts that must show work on a workload, and
# ones that must not.  A trace that contradicts this stops the run: either
# a wrapper no longer reaches its layer or the workload stopped exercising it.
# graph.components names both a span and a count; both are checked.
_GRAPH = ["graph.parse_relation", "graph.enumerate_solutions", "graph.components",
          "graph.diameter", "graph.shortest_path", "graph.vertices", "graph.bfs_sources",
          "graph.path_steps"]
_REDUCE = ["reduce.tr_combine", "reduce.synth_bformula", "reduce.t_transform", "reduce.synth_calls"]
EXPECT = {
    "brute-dense": (
        ["cnf.parse_dimacs", "qbf.parse_qbf", "formulas.parse_formula",
         "semantics.truth_table_of", "graph.enumerate_solutions", "graph.components",
         "graph.diameter", "graph.shortest_path", "clones.dispatch"],
        ["easy.decide", "clones.clone_closure"] + _REDUCE,
    ),
    "brute-path": (
        ["graph.parse_relation", "graph.components", "graph.diameter",
         "graph.shortest_path", "graph.bfs_sources"],
        ["semantics.tabulations", "easy.decide"] + _REDUCE,
    ),
    "reduce": (
        ["cnf.parse_dimacs", "reduce.tr_combine", "reduce.synth_bformula",
         "reduce.t_transform", "semantics.truth_table_of", "clones.clone_closure", "cli.output"],
        ["easy.decide"] + _GRAPH,
    ),
    "poly": (
        ["clones.clone_identify", "properties.property_report", "formulas.parse_formula",
         "circuits.parse_circuit", "qbf.parse_qbf", "easy.decide", "easy.linear_form_of",
         "semantics.evaluate", "semantics.truth_table_of", "easy.witness_steps"],
        ["clones.clone_closure"] + _GRAPH + _REDUCE,
    ),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# Runs in a small process of its own, started before run.py builds its
# inputs.  Linux folds the RSS high-water mark of the address space a
# child replaces at exec into the child's ru_maxrss, and a spawned child
# starts out in its spawner's address space, so children spawned straight
# from run.py would report run.py's own peak.
_SPAWNER = r"""
import json, os, signal, sys, threading, time

child = None

def stop(*_):
    if child is not None:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    sys.exit(0)

signal.signal(signal.SIGTERM, stop)
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    argv, out, err, timeout = json.loads(line)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    fired = []
    t0 = time.perf_counter()
    child = os.posix_spawn(sys.executable, [sys.executable] + argv, os.environ, file_actions=actions)
    timer = threading.Timer(timeout, lambda pid=child: fired.append(os.kill(pid, signal.SIGKILL)))
    timer.daemon = True  # a SIGTERM exit must not wait for it
    timer.start()
    _, status, usage = os.wait4(child, 0)
    wall = time.perf_counter() - t0
    child = None
    timer.cancel()
    timer.join()
    code = None if fired else os.waitstatus_to_exitcode(status)
    print(json.dumps([code, wall, usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Runs children one at a time through the spawner process, with a
    per-query timeout after which the child is killed."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SPAWNER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], out: str, err: str) -> tuple[int | None, float, int]:
        """(exit code or None on timeout, wall seconds, ru_maxrss KiB)."""
        self.proc.stdin.write(json.dumps([argv, out, err, QUERY_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process died")
        code, wall, kb = json.loads(line)
        return code, wall, kb

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Checker:
    """Checks answers, remembering verdicts by output digest so that a
    large output identical to one already checked is not checked again."""

    def __init__(self):
        self.seen: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, i: int, q: workloads.Query, code: int | None, out_path: str):
        self.attempted += 1
        if code is None:
            error = f"timed out after {QUERY_TIMEOUT_S:.0f} s"
        else:
            with open(out_path, "rb") as fh:
                raw = fh.read()
            key = (i, code, hashlib.sha256(raw).hexdigest())
            if key not in self.seen:
                try:
                    payload = json.loads(raw) if raw.strip() else {}
                except ValueError:
                    payload = {}
                self.seen[key] = q.check(payload, code)
            error = self.seen[key]
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{q.sub} {q.label}: {error}")


# The machines this runs on are shared: their speed for pure-Python work
# drifts by up to 1.7x within a minute, and it drifts for the CLI child and
# for this process alike.  So a fixed piece of work runs before the first
# child and after every child, and each child's time is reported at the
# speed at which that piece takes REF_CAL_S: t * REF_CAL_S / c, with c the
# median of the four calibrations nearest the child (two on each side).
# The raw times go to the results record beside the scaled ones.
REF_CAL_S = 0.035


def calibrate() -> float:
    """Seconds for fixed work like bconn's hot loops: dict probes over
    integer words and whole-table bigint mask arithmetic."""
    t0 = time.perf_counter()
    index = {}
    for w in range(50_000):
        index[w ^ 0x5A5A] = w
    hits = 0
    for w in range(50_000):
        for b in (1, 2, 4, 8):
            if w ^ b in index:
                hits += 1
    mask = (1 << 65536) - 1
    x = 0x9E3779B97F4A7C15
    for i in range(400):
        x = (x * 3 + (mask >> (i % 89))) & mask
    return time.perf_counter() - t0


class Bracketed:
    """Runs children between calibrations; scales their times afterwards."""

    def __init__(self, spawner: Spawner):
        self.spawner = spawner
        self.cals = [calibrate()]
        self.walls: list[float] = []

    def run(self, argv: list[str], out: str, err: str) -> tuple[int | None, int, int]:
        """(exit code, ru_maxrss KiB, index of this child's time)."""
        code, wall, kb = self.spawner.run(argv, out, err)
        self.cals.append(calibrate())
        self.walls.append(wall)
        return code, kb, len(self.walls) - 1

    def scaled(self, j: int) -> float:
        near = self.cals[max(j - 1, 0):j + 3]
        return self.walls[j] * REF_CAL_S / statistics.median(near)


def measure_setup(work: str, timer: Bracketed) -> list[int]:
    """Child indices of fresh interpreters importing bconn.cli, after one
    warm-up run that leaves the bytecode cache as a CLI user has it."""
    out, err = os.path.join(work, "setup.out"), os.path.join(work, "setup.err")
    runs = []
    for i in range(SETUP_SAMPLES + 1):
        code, _, j = timer.run(["-c", "import bconn.cli"], out, err)
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"cannot import bconn.cli: {fh.read()[-500:]}")
        if i:
            runs.append(j)
    return runs


def run_untraced(spawner: Spawner, queries, seconds: float, work: str, check: Checker) -> dict:
    """Round-robin over the queries while the measured time allows, at
    least once each; every query's time is the median of its runs."""
    timer = Bracketed(spawner)
    setup = measure_setup(work, timer)
    out, err = os.path.join(work, "q.out"), os.path.join(work, "q.err")
    runs: list[list[int]] = [[] for _ in queries]
    rss_kb = 0
    for k in itertools.count():
        i = k % len(queries)
        if k >= len(queries):
            spent = sum(timer.walls[j] for v in runs for j in v)
            if spent + statistics.median(timer.walls[j] for j in runs[i]) > seconds:
                break
        q = queries[i]
        code, kb, j = timer.run(["-m", "bconn.cli", q.sub, *q.args, "--json"], out, err)
        check(i, q, code, out)
        runs[i].append(j)
        rss_kb = max(rss_kb, kb)

    def median(js, value) -> float:
        return statistics.median(value(j) for j in js)

    med = [median(v, timer.scaled) for v in runs]
    subs: dict[str, float] = {}
    for q, m in zip(queries, med):
        subs[f"cli.{q.sub}_s"] = subs.get(f"cli.{q.sub}_s", 0.0) + m
    raw = timer.walls.__getitem__
    return {
        "metrics": {
            "setup_s": median(setup, timer.scaled),
            "wall_s": sum(med),
            "peak_rss_mb": rss_kb / 1024,
        },
        "per_subcommand": {k: subs[k] for k in (f"cli.{s}_s" for s in SUBCOMMANDS) if k in subs},
        "raw": {"setup_s": median(setup, raw), "wall_s": sum(median(v, raw) for v in runs)},
        "queries": [
            {"sub": q.sub, "label": q.label, "runs": len(v), "median_s": m}
            for q, v, m in zip(queries, runs, med)
        ],
        "raw_runs": {"setup_s": [raw(j) for j in setup], "queries": [[raw(j) for j in v] for v in runs]},
        "calibrations": timer.cals,
    }


def _tracer(spawner: Spawner, mode: str, q, i: int, work: str, check: Checker) -> dict:
    out, err = os.path.join(work, "t.out"), os.path.join(work, "t.err")
    rep_path = os.path.join(work, "t.json")
    if os.path.exists(rep_path):
        os.remove(rep_path)
    argv = [os.path.join(BENCH, "tracer.py"), mode, rep_path, "--", q.sub, *q.args, "--json"]
    code, _, _ = spawner.run(argv, out, err)
    if code != 0 or not os.path.exists(rep_path):
        check(i, q, code if code else -1, out)
        return {}
    with open(rep_path, encoding="utf-8") as fh:
        rep = json.load(fh)
    check(i, q, rep["code"], out)
    return rep


def _memory_pass(queries, work: str, check: Checker) -> dict[str, int]:
    """Largest tracemalloc peak per layer group over the queries.  Peaks do
    not depend on speed, so two queries run at a time (tracemalloc slows
    the synthesizer about ninefold)."""
    peaks: dict[str, int] = {}
    pending = list(enumerate(queries))
    running: list = []
    try:
        while pending or running:
            while pending and len(running) < 2:
                i, q = pending.pop(0)
                out, rep = os.path.join(work, f"m{i}.out"), os.path.join(work, f"m{i}.json")
                argv = [os.path.join(BENCH, "tracer.py"), "memory", rep, "--", q.sub, *q.args, "--json"]
                with open(out, "wb") as fh:
                    proc = subprocess.Popen(
                        [sys.executable, *argv], stdout=fh, stderr=subprocess.DEVNULL,
                        stdin=subprocess.DEVNULL, env=_env(), cwd=ROOT,
                    )
                running.append((proc, i, q, out, rep))
            proc, i, q, out, rep = running.pop(0)
            try:
                proc.wait(timeout=MEMORY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                check(i, q, None, out)
                continue
            if proc.returncode != 0 or not os.path.exists(rep):
                check(i, q, proc.returncode or -1, out)
                continue
            with open(rep, encoding="utf-8") as fh:
                report = json.load(fh)
            check(i, q, report["code"], out)
            for group, b in report["peak_bytes"].items():
                peaks[group] = max(peaks.get(group, 0), b)
    finally:
        for proc, *_ in running:
            proc.kill()
            proc.wait()
    return peaks


def run_traced(
    spawner: Spawner, workload: str, queries, seconds: float, work: str, check: Checker
) -> dict:
    plain_totals, traced_totals, passes = [], [], []
    while True:
        plain = traced = 0.0
        agg: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, q in enumerate(queries):
            plain += _tracer(spawner, "plain", q, i, work, check).get("run_s", 0.0)
            rep = _tracer(spawner, "trace", q, i, work, check)
            if not rep:
                continue
            traced += rep["run_s"]
            for name, s in rep["self_s"].items():
                agg[f"{name}_s"] = agg.get(f"{name}_s", 0.0) + s
            agg["cli.glue_s"] = agg.get("cli.glue_s", 0.0) + rep["run_s"] - rep["top_s"]
            for name, k in rep["calls"].items():
                calls[name] = calls.get(name, 0) + k
            for name, k in rep["counts"].items():
                if name == "reduce.depth":
                    agg[name] = max(agg.get(name, 0), k)
                else:
                    agg[name] = agg.get(name, 0) + k
        for span, metric in _CALLS.items():
            agg[metric] = calls.get(span, 0)
        plain_totals.append(plain)
        traced_totals.append(traced)
        passes.append((agg, calls))
        spent = [p + t for p, t in zip(plain_totals, traced_totals)]
        if sum(spent) + statistics.median(spent) > seconds:
            break
    peaks = _memory_pass(queries, work, check)

    metrics = {}
    for name in PER_LAYER:
        values = [agg.get(name, 0) for agg, _ in passes]
        metrics[name] = statistics.median(values)
    calls = passes[-1][1]
    synth = metrics["reduce.synth_calls"]
    metrics["reduce.synth_hit_ratio"] = 1 - metrics["reduce.synth_targets"] / synth if synth else 0.0
    for g in _PEAKS:
        metrics[f"{g}.peak_mb"] = peaks.get(g, 0) / 2**20
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_totals) / statistics.median(plain_totals) - 1
    )
    _expect(workload, calls, passes[-1][0])
    return {"metrics": metrics, "calls": calls}


def _expect(workload: str, calls: dict, agg: dict):
    busy, idle = EXPECT[workload]

    def work(name: str):
        return calls.get(name, 0) + agg.get(name, 0)

    wrong = [f"{n} recorded no work" for n in busy if not work(n)]
    wrong += [f"{n} recorded work ({work(n)})" for n in idle if work(n)]
    if wrong:
        raise SystemExit(f"trace does not match the layer map for {workload}: " + "; ".join(wrong))


def _git_sha() -> str | None:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bconn", "cli.py")):
        print("bench: no bconn sources under src/ next to bench/", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    spawner = Spawner()
    try:
        t0 = time.perf_counter()
        queries = workloads.build(args.workload, args.seed, os.path.join(work, "in"))
        build_s = time.perf_counter() - t0
        check = Checker()
        if args.trace:
            result = run_traced(spawner, args.workload, queries, args.seconds, work, check)
        else:
            result = run_untraced(spawner, queries, args.seconds, work, check)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "build_s": build_s,
        "inputs": {f"{q.sub}:{q.label}": q.sizes for q in queries},
    }
    record = dict(result, meta=meta, attempted=check.attempted, failed=check.failed,
                  errors=check.errors)
    results = os.path.join(ROOT, ".bench_run", "results")
    os.makedirs(results, exist_ok=True)
    name = f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for e in check.errors:
        print(f"bench: wrong answer: {e}", file=sys.stderr)
    print(f"bconn benchmark {args.workload} seed={args.seed} trace={args.trace} "
          f"queries={len(queries)} attempted={check.attempted}")
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = {"value": check.failed / max(check.attempted, 1), "unit": "ratio"}
        shown.update({k: {"value": v, "unit": "s"} for k, v in result["per_subcommand"].items()})
    for k, m in shown.items():
        print(f"  {k:34s} {m['value']:>14.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
