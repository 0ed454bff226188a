"""Child process of the bredonkit benchmark: set up, run one pass, check.

    python3 perfbench/worker.py --workload W --seed N --mode pass|setup|record
                                --t0 T --out FILE [--trace] [--check]

Runs from the root of a checkout with src/ on PYTHONPATH.  The parent starts
one worker per pass, so no state carries over between passes.  The worker caps
its own address space; each query runs under a timer, and a timeout, a
MemoryError, an exception or an unexpected exit code counts as a failed query
instead of ending the pass.

  setup   import bredonkit, draw the seeded inputs, write the .gcw files;
          report the time from process start (T, on the parent's monotonic
          clock) to the point where the first query would start
  pass    setup, then time every query of the plan, then compare each answer
          with answers.json and, with --check, run the independent checks
  record  run every query any seed can draw and write its digest (only for
          regenerating answers.json at a commit known to be correct)

Beside the timings the worker reports readings of a fixed probe (see probe()):
one right after set-up, and for each query the mean of the readings taken
before and after its stretch, a run of queries at least PROBE_INTERVAL_S
long.  The parent scales each time by the probe reading taken next to it.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import sys
import time

ADDRESS_SPACE_CAP = 2 * 1024 ** 3
QUERY_TIMEOUT_S = 60.0
PROBE_INTERVAL_S = 0.05
HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS_PATH = os.path.join(HERE, "answers.json")


class QueryTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so library code that
    catches Exception cannot swallow it."""


class _Timer:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise QueryTimeout()

    def call(self, fn):
        """(status, seconds, value) of one query."""
        value = None
        start = time.perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
            try:
                value = fn()
                status = "ok"
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            status = "timeout"
        except MemoryError:
            status = "memory"
        except Exception as err:    # a failed query, never a crashed pass
            status = "error: %s: %s" % (type(err).__name__, err)
        return status, time.perf_counter() - start, value


_TIMESTAMP = re.compile(r'("timestamp": )"[^"]*"')


def normalize(payload):
    """A CLI payload with its timestamp blanked, the only varying field."""
    return _TIMESTAMP.sub(r'\1""', payload)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def class_text(c):
    """Canonical text of a CohomologyClass answer."""
    return json.dumps([list(c.grading), list(c.vector), c.home.describe()])


def probe():
    """Seconds that a fixed piece of work takes now, best of three.

    The work is of the kind bredonkit's queries do (dict and tuple handling
    in the interpreter, small int64 matrix products) and calls no bredonkit
    code, so a change to the package cannot move it; a change in the speed
    the host gives this process does.  The collector is off while it runs,
    so garbage the queries left behind does not land in the reading.
    """
    import numpy
    m = numpy.arange(900, dtype=numpy.int64).reshape(30, 30) % 7
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            start = time.perf_counter()
            table = {}
            for i in range(1500):
                table[(i * 7) % 101, i % 13] = i
            sorted(table.items())
            a = m
            for _ in range(20):
                a = (a @ m) % 7
            seconds = time.perf_counter() - start
            best = seconds if best is None else min(best, seconds)
        return best
    finally:
        if enabled:
            gc.enable()


class Runner:
    """Runs the jobs of one workload and keeps what the checks need."""

    def __init__(self, bk, cli_main, timer):
        self.bk = bk
        self.cli_main = cli_main
        self.timer = timer
        self.records = []       # dicts: key, status, seconds, digest
        self.kept = []          # (job, answers) for the checks
        self.unprobed = []      # records since the last probe reading
        self.last_reading = probe()
        self.last_probe = time.perf_counter()

    def _query(self, key, fn, text):
        status, seconds, value = self.timer.call(fn)
        rec = {"key": key, "status": status, "seconds": seconds, "digest": None}
        if status == "ok":
            try:
                rec["digest"] = digest(text(value))
            except Exception as err:
                rec["status"] = "error: answer: %s" % err
        self.records.append(rec)
        self.unprobed.append(rec)
        if time.perf_counter() - self.last_probe >= PROBE_INTERVAL_S:
            self.probe()
        return value if rec["status"] == "ok" else None

    def probe(self):
        """Give every record since the last reading the mean of that reading
        and a new one, the probe's time on both sides of the stretch."""
        reading = probe()
        for rec in self.unprobed:
            rec["probe_s"] = (self.last_reading + reading) / 2
        self.unprobed = []
        self.last_reading = reading
        self.last_probe = time.perf_counter()

    def run(self, job, spaces):
        getattr(self, "_run_" + job.kind)(job, spaces)

    def _run_cli(self, job, spaces):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_main(job.argv)
            if code != 0:
                raise RuntimeError("exit code %r: %s" % (code, err.getvalue()[-200:]))
            return normalize(out.getvalue())
        payload = self._query(job.key, call, lambda text: text)
        if payload is not None:
            self.kept.append((job, payload))

    def _run_chain(self, job, spaces):
        bk = self.bk
        x = spaces[job.params["space"]]
        table = self._query(job.key + " table",
                            lambda: bk.free_cohomology(x).dims(), json.dumps)
        c = self._query(job.key + " unit", lambda: bk.unit_class(x), class_text)
        classes = [c]
        while c is not None and not c.is_zero() and len(classes) <= x.dim + 1:
            c = self._query("%s a^%d" % (job.key, len(classes)),
                            lambda c=c: bk.module_action(x, "a", c), class_text)
            classes.append(c)
        if table is not None and None not in classes:
            self.kept.append((job, (x, table, classes)))

    def _run_euler2(self, job, spaces):
        bk = self.bk
        x = spaces[job.key]
        g = x.group
        v = bk.irrep(g, job.params["k1"]) + bk.irrep(g, job.params["k2"])
        unit = bk.unit_class(x)
        c = self._query(job.key, lambda: bk.euler_action_free(x, None, unit, v),
                        class_text)
        if c is not None:
            self.kept.append((job, (x, unit, c)))

    def check(self, answers, run_independent):
        """Keys of wrong answers: digest mismatches, then failed checks."""
        import checks
        wrong = {}
        for rec in self.records:
            if rec["status"] == "ok" and answers.get(rec["key"]) != rec["digest"]:
                wrong[rec["key"]] = "answer differs from the recorded digest"
        if run_independent:
            for key, reason in independent_checks(checks, self.kept):
                wrong.setdefault(key, reason)
        return wrong


def independent_checks(checks, kept):
    """(key, reason) of every kept answer whose independent check fails."""
    ctx = {}
    for job, answer in kept:
        if job.kind == "cli":
            fn = checks.CLI_CHECKS.get(job.check)
            reason = fn(job, answer, ctx) if fn else None
        elif job.kind == "chain":
            reason = checks.chain(*answer)
        else:
            x, unit, c = answer
            reason = checks.euler2_scaling(x, unit, job.params["k1"],
                                           job.params["k2"], c)
        if reason:
            yield job.key, reason


def build_spaces(bk, workloads, jobs):
    """Complexes the jobs read: saved to WORK_DIR for CLI reads, else in memory."""
    spaces = {}
    for name in workloads.spaces_needed(jobs):
        order, labels, kind = workloads.SPACES[name]
        v = bk.VirtualRep(bk.CyclicGroup(order), labels)
        spaces[name] = bk.sphere_of_rep(v) if kind == "unit" else bk.rep_sphere(v)
    for job in jobs:
        if job.kind == "chain" and "top" in job.params:
            spaces[job.params["space"]] = bk.periodic_free_model(
                job.params["p"], job.params["top"])
        elif job.kind == "euler2":
            spaces[job.key] = bk.ecp_skeleton(job.params["p"], job.params["m"])
    if any(job.kind == "cli" for job in jobs):
        os.makedirs(workloads.WORK_DIR, exist_ok=True)
        for name in workloads.spaces_needed(jobs):
            with open(workloads.space_path(name), "w") as handle:
                handle.write(bk.save_gcw(spaces[name]))
    return spaces


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("pass", "setup", "record"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import bredonkit as bk
    import bredonkit.cli
    import workloads

    if args.mode == "record":
        jobs = workloads.universe(args.workload)
    else:
        jobs = workloads.plan(args.workload, args.seed)
    spaces = build_spaces(bk, workloads, jobs)
    setup_s = time.perf_counter() - args.t0
    import numpy
    result = {"setup_s": setup_s, "setup_probe_s": probe(),
              "python": platform.python_version(), "numpy": numpy.__version__}
    if args.mode != "setup":
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(tracing.load_layers())
            tracer.install()
        # bredonkit.cli.main is looked up after the wrappers are in place
        runner = Runner(bk, bredonkit.cli.main, _Timer())
        start = time.perf_counter()
        try:
            for job in jobs:
                runner.run(job, spaces)
            runner.probe()
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.metrics()
        if args.mode == "record":
            import checks
            result["digests"] = {r["key"]: r["digest"] for r in runner.records}
            result["failed"] = [r for r in runner.records if r["status"] != "ok"]
            result["wrong"] = dict(independent_checks(checks, runner.kept))
        else:
            with open(ANSWERS_PATH) as handle:
                answers = json.load(handle)
            result["wrong"] = runner.check(answers, args.check)
        result["queries"] = [[r["key"], r["status"], r["seconds"], r["probe_s"]]
                             for r in runner.records]
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
