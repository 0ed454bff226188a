"""The bredonkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a checkout.  Workloads (see workloads.py):
point_table, graded_reads, euler_chain, certificates.  Each pass of a workload
runs in its own child process (worker.py) with src/ on PYTHONPATH and
BREDONKIT_THREADS unset, so the package takes its one-thread path.

--trace 0 repeats passes of the same plan until the timed phases come to
about S seconds (the last pass may end up to half a pass later), starts extra
set-up-only children until there are seven set-up samples, and prints the
end-to-end metrics:

  setup_s       median time from child start to its first timed query
  wall_s        time of one pass: the sum of its query latencies, averaged
                over the passes of the run
  query_p50_ms  median over the plan's queries (at least 100) of each
                query's latency averaged over the passes
  query_p90_ms  90th percentile of the same per-query latencies
  peak_rss_mb   largest peak RSS of a pass child (getrusage)
  ok_ratio      queries answered correctly / queries attempted

Every time above is given at the reference speed of the host.  On a shared
host the speed a process gets drifts by up to 2x, over seconds and over
minutes, and no run is long enough to average that out.  So the worker takes
a reading of a fixed probe (worker.probe: interpreter and small-array work,
no bredonkit code) next to every stretch of queries, and each time is scaled
by PROBE_REFERENCE_S / reading: it is the time the query would take when the
probe runs in PROBE_REFERENCE_S.  A change to the package moves the times and
not the probe.  The line before the result gives the unscaled pass times and
the median probe reading.

Every pass runs the same queries.  Averaging each query over the passes
before taking the quantile keeps a burst of host load, which hits some
queries of one pass and not the others, from moving the quantile.

--trace 1 runs an untraced, a traced and another untraced pass on the same
inputs and prints the per-module metrics of tracing.py, with
trace.overhead_ratio = traced wall_s / mean untraced wall_s.  It fails when
a function that layers.json requires on this workload shows no calls.

The last line of standard output is the result object; the line before it
records the run's seed, commit, nproc and versions.  --record rewrites
answers.json from the current code and must only be run at a commit whose
answers are known to be right.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing     # noqa: E402  (benchmark modules, not the package)
import workloads   # noqa: E402

SETUP_SAMPLES = 7
# the probe's fastest reading on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11 and numpy 2.4, where the median reading was 2.0 ms
PROBE_REFERENCE_S = 0.0013
RUN_BUDGET_S = 170.0        # every run must end within 180 s
WORKER = os.path.join("perfbench", "worker.py")


class ChildFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.pop("BREDONKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src", HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(workload, seed, mode, deadline, trace=False, check=False):
    """Start one worker, wait for it, and return its result dict."""
    out = os.path.join(workloads.WORK_DIR, "child-%d.json" % os.getpid())
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    t0 = time.perf_counter()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--t0", repr(t0), "--out", out]
    cmd += ["--trace"] if trace else []
    cmd += ["--check"] if check else []
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("%s child passed the run's time budget" % mode)
    if proc.returncode != 0 or not os.path.exists(out):
        raise ChildFailed("%s child exited with %s:\n%s"
                          % (mode, proc.returncode, err[-2000:]))
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    return result


def _quantile(values, q):
    """The q-quantile of values (inclusive method, as statistics.quantiles)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count(passes, planned):
    """(attempted, failed, wrong answers) over finished and killed passes."""
    attempted = failed = 0
    wrong = {}
    for res in passes:
        if res is None:                 # a pass child that never reported
            attempted += planned
            failed += planned
            continue
        wrong.update(res["wrong"])
        for key, status, *_ in res["queries"]:
            attempted += 1
            if status != "ok" or key in res["wrong"]:
                failed += 1
    return attempted, failed, wrong


def end_to_end(args, deadline):
    planned = len(workloads.plan(args.workload, args.seed))
    passes, setups = [], []
    timed = 0.0
    while True:
        try:
            res = run_child(args.workload, args.seed, "pass", deadline,
                            check=not passes)
        except ChildFailed as err:
            if not passes:
                raise
            print("pass failed: %s" % err, file=sys.stderr)
            passes.append(None)
            break
        passes.append(res)
        setups.append(res)
        timed += res["wall_s"]
        # stop when the next pass would end more than half a pass late
        if timed + res["wall_s"] / 2 >= args.seconds:
            break
        if time.monotonic() + 2 * res["wall_s"] > deadline:
            break
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
        setups.append(run_child(args.workload, args.seed, "setup", deadline))
    done = [res for res in passes if res is not None]
    latencies = [s * 1000.0 for s in mean_latencies(done).values()]
    attempted, failed, wrong = count(passes, planned)
    metrics = {
        "setup_s": (statistics.median(
            at_reference_speed(res["setup_s"], res["setup_probe_s"])
            for res in setups), "s"),
        "wall_s": (statistics.fmean(pass_seconds(res) for res in done), "s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p90_ms": (_quantile(latencies, 90), "ms"),
        "peak_rss_mb": (max(res["peak_rss_mb"] for res in done), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    probes = [q[3] for res in done for q in res["queries"]]
    info = dict(run_info(args, done[0]), passes=len(passes),
                queries=len(latencies), setup_samples=len(setups),
                unscaled_pass_wall_s=[round(res["wall_s"], 4) for res in done],
                probe_median_ms=round(statistics.median(probes) * 1000, 4))
    return metrics, attempted, failed, wrong, info


def at_reference_speed(seconds, probe_s):
    """A time scaled to the host speed at which the probe takes
    PROBE_REFERENCE_S, from the probe reading taken next to it."""
    return seconds * PROBE_REFERENCE_S / probe_s


def pass_seconds(res):
    """Sum of a pass's query latencies at the reference speed."""
    return sum(at_reference_speed(seconds, probe_s)
               for _, _, seconds, probe_s in res["queries"])


def mean_latencies(passes):
    """Each query's latency (seconds, at the reference speed) averaged over
    the passes of a run."""
    samples = {}
    for res in passes:
        for key, _, seconds, probe_s in res["queries"]:
            samples.setdefault(key, []).append(
                at_reference_speed(seconds, probe_s))
    return {key: statistics.fmean(s) for key, s in samples.items()}


def per_layer(args, deadline):
    layers = tracing.load_layers()
    # untraced passes on both sides of the traced one, so that a drift in
    # machine speed during the run does not read as tracing overhead
    plain = run_child(args.workload, args.seed, "pass", deadline, check=True)
    traced = run_child(args.workload, args.seed, "pass", deadline, trace=True)
    after = run_child(args.workload, args.seed, "pass", deadline)
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics(layers)}
    values = dict(traced["trace"])
    values["trace.overhead_ratio"] = pass_seconds(traced) / statistics.fmean(
        [pass_seconds(plain), pass_seconds(after)])
    metrics = {name: (values[name], units[name]) for name in units}
    attempted, failed, wrong = count([plain, traced, after], 0)
    missing = tracing.missing_calls(layers, args.workload, values)
    for name in missing:
        wrong["trace: " + name] = "wrapped function shows no calls"
    info = dict(run_info(args, plain), passes=3,
                queries=len(plain["queries"]),
                dominant=dominant(layers, values))
    return metrics, attempted, failed, wrong, info


def dominant(layers, values):
    """Modules by self time, largest first, for reading the trace."""
    shares = {module: values["%s.self_s" % module] for module in layers["modules"]}
    total = sum(shares.values()) or 1.0
    return [[module, round(s / total, 3)]
            for module, s in sorted(shares.items(), key=lambda kv: -kv[1])]


def _commit():
    """git HEAD when the checkout is a repository, else None."""
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def _source_digest():
    """sha256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join("src", "bredonkit"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def run_info(args, child):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loop": workloads.LOOP, "commit": _commit(),
            "source_sha256": _source_digest(),
            "nproc": os.cpu_count(), "python": child["python"],
            "numpy": child["numpy"], "BREDONKIT_THREADS": "unset"}


def record():
    """Rewrite answers.json from every query any seed can draw."""
    digests = {}
    for workload in workloads.WORKLOADS:
        res = run_child(workload, 0, "record", time.monotonic() + 3600)
        if res["failed"] or res["wrong"]:
            raise SystemExit("%s: failed %s, wrong %s"
                             % (workload, res["failed"], res["wrong"]))
        digests.update(res["digests"])
        print("%s: %d answers, %.1f s" % (workload, len(res["digests"]),
                                          res["wall_s"]), file=sys.stderr)
    with open(os.path.join(HERE, "answers.json"), "w") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "bredonkit", "__init__.py")):
        print("error: run from the root of a bredonkit checkout "
              "(src/bredonkit not found)", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, wrong, info = measure(args, deadline)
    except ChildFailed as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    for key, reason in sorted(wrong.items()):
        print("wrong: %s: %s" % (key, reason), file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
