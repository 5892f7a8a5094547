"""Benchmark of the `hurwitz` engine, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is run from `src/`
(`PYTHONPATH=src`); report workloads run `python3 -m hurwitz.cli` as one child
process per spec, one at a time, and the library workload runs each pass in a
fresh interpreter (perfbench/libworker.py).  A run sets up, then repeats whole
passes over the workload's operations until S seconds have gone, then checks
every output (perfbench/checks.py).  With --trace 1 it adds one traced pass
and prints the per-module metrics instead of the end-to-end ones; the spans go
to .perfbench/trace-NAME.json.  The seed only sets the order of the
operations within each pass.  The last line of stdout is one JSON object.
"""

import os
import time


def _process_start():
    """perf_counter() value at the start of this process, so that set-up
    time includes the interpreter's own start (Linux /proc; elsewhere the
    start of this script)."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) \
            - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return now
    return now - age if 0.0 <= age < 60.0 else now


T_START = _process_start()

import argparse                                          # noqa: E402
import json                                              # noqa: E402
import random                                            # noqa: E402
import select                                            # noqa: E402
import shutil                                            # noqa: E402
import signal                                            # noqa: E402
import statistics                                        # noqa: E402
import subprocess                                        # noqa: E402
import sys                                               # noqa: E402
import tempfile                                          # noqa: E402
from concurrent.futures import ThreadPoolExecutor        # noqa: E402

import checks                                            # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench")
PY = sys.executable
DEADLINE = T_START + 170.0          # every run must end within 180 s
SETUP_JOBS = 2                      # report-warm fills its cache 2 at a time


def _di(ell, k=0):
    return {"group": {"family": "affine2", "ell": ell, "k": k, "order": 3},
            "classes": ["C+", "C+", "C-", "C-"], "equivalence": "inner"}


def _serre(ell, eq="inner"):
    return {"group": {"family": "affine2", "ell": ell, "k": 0, "order": 2},
            "classes": ["2"] * 4, "equivalence": eq}


# the r = 4 inner ladder of the report workloads
LADDER = {
    "a4": _di(2),
    "a5": {"group": {"family": "alternating", "n": 5}, "classes": ["3"] * 4,
           "equivalence": "inner", "T": "natural"},
    "serre7": _serre(7),
    "di5": _di(5),
    "di7": _di(7),
    "dih49": {"group": {"family": "dihedral", "m": 49},
              "classes": ["2"] * 4, "equivalence": "inner"},
}
# the library operations of orbits-towers
LIB_OPS = {
    "di11": {"kind": "orbits", "spec": _di(11)},
    "serre7-abs": {"kind": "lattice", "spec": _serre(7, "absolute")},
    "tower-a4-k1": {"kind": "tower", "spec": _di(2, 1)},
    "tower-serre3": {"kind": "tower", "spec": _serre(3)},
}
WORKLOADS = {"report-cold": ("di7", LADDER), "report-warm": ("di7", LADDER),
             "orbits-towers": ("di11", LIB_OPS)}


class Fatal(Exception):
    """The benchmark cannot produce a result (no program, or out of time)."""


# The program sees only the inputs given on its command line.  Its string
# hashes are fixed: with random ones, set and dict layouts of the labelled
# tuples change from process to process, and so does the time of a report
# (by about 10 % for DI l = 7).
ENV = {k: v for k, v in os.environ.items()
       if k not in ("HURWITZ_CACHE", "HURWITZ_BUDGET")}
ENV.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")


def run_child(argv, log_path):
    """Runs one program process to its end; returns (exit code, wall
    seconds, rusage).  Kills it if it would pass the run's deadline."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        p = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=log,
                             stderr=subprocess.STDOUT)
    timed_out = True
    try:
        fd = os.pidfd_open(p.pid)
        try:
            timed_out = not select.select(
                [fd], [], [], max(0.0, DEADLINE - time.perf_counter()))[0]
        finally:
            os.close(fd)
    finally:
        if timed_out:
            os.kill(p.pid, signal.SIGKILL)
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    if timed_out:
        raise Fatal("%s did not end before the deadline" % argv[1:4])
    return p.returncode, wall, ru


def cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


class Run:
    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.heaviest, self.ops = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.dir = run_dir
        self.errors = []
        self.expected = {}
        self.cold_bytes = {}
        self.cache = None
        self.n_pass = 0

    # -- set-up -------------------------------------------------------
    def setup(self):
        code, _, _ = run_child([PY, "-c", "import hurwitz.cli"],
                               self.path("import.log"))
        if code:
            raise Fatal("cannot import hurwitz.cli from %s (exit %d)"
                        % (SRC, code))
        if self.ops is LADDER:
            for name, spec in LADDER.items():
                with open(self.path("%s.json" % name), "w") as fh:
                    json.dump(spec, fh)
        if self.workload == "report-warm":
            self.cache = self.path("warm-cache")
            with ThreadPoolExecutor(SETUP_JOBS) as pool:
                done = list(pool.map(self._fill, LADDER))
            for name, code in done:
                if code:
                    raise Fatal("cold report of %s failed in set-up" % name)

    def _fill(self, name):
        out = self.path("setup", name)
        code, _, _ = run_child(self.report_argv(name, out, self.cache),
                               self.path("setup-%s.log" % name))
        if code == 0:
            with open(os.path.join(out, "report.json"), "rb") as fh:
                self.cold_bytes[name] = fh.read()
        return name, code

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def report_argv(self, name, out, cache, spans=None, op_id=0):
        head = [PY, "-m", "hurwitz.cli"] if spans is None else \
            [PY, os.path.join(HERE, "tracer.py"), spans, str(op_id)]
        return head + ["--spec", self.path("%s.json" % name), "--cmd",
                       "report", "--out", out, "--cache", cache]

    # -- passes -------------------------------------------------------
    def one_pass(self, trace=False):
        """Runs every operation once, in seeded order; returns the list of
        op records and, traced, the tracer results."""
        self.n_pass += 1
        order = sorted(self.ops)
        self.rng.shuffle(order)
        pdir = self.path("pass%d" % self.n_pass)
        os.makedirs(pdir)
        if self.ops is LADDER:
            return self.report_pass(order, pdir, trace)
        return self.lib_pass(order, pdir, trace)

    def report_pass(self, order, pdir, trace):
        ops, traces = [], []
        for op_id, name in enumerate(order, 1):
            out = os.path.join(pdir, name)
            cache = self.cache or os.path.join(out, "cache")
            spans = os.path.join(pdir, "%s.spans.json" % name) \
                if trace else None
            code, wall, ru = run_child(
                self.report_argv(name, out, cache, spans, op_id),
                os.path.join(pdir, "%s.log" % name))
            op = {"name": name, "seconds": wall, "ok": code == 0,
                  "rss_kb": ru.ru_maxrss, "cpu_s": cpu_s(ru), "orbits": 0}
            ops.append(op)
            if code:
                print("%s exited %d" % (name, code), file=sys.stderr)
                continue
            try:
                with open(os.path.join(out, "report.json"), "rb") as fh:
                    raw = fh.read()
                rep = json.loads(raw)
                op["orbits"] = len(rep["orbits"]["orbits"])
            except (OSError, ValueError, KeyError, TypeError) as e:
                self.errors.append("%s: no readable report: %r" % (name, e))
                continue
            errs = checks.check_report(LADDER[name], rep,
                                       self.expected_count(name))
            if self.cache:
                errs += checks.check_warm(self.cold_bytes[name], raw)
            self.errors += ["%s: %s" % (name, e) for e in errs]
            if trace:
                with open(spans) as fh:
                    traces.append(json.load(fh))
        return ops, traces

    def lib_pass(self, order, pdir, trace):
        todo = [dict(LIB_OPS[name], name=name) for name in order]
        spans = os.path.join(pdir, "spans.json") if trace else None
        log = os.path.join(pdir, "worker.log")
        argv = [PY, os.path.join(HERE, "libworker.py"), json.dumps(todo)]
        code, _, ru = run_child(argv + ([spans] if trace else []), log)
        failed = [{"name": n, "seconds": 0.0, "ok": False, "rss_kb": 0,
                   "cpu_s": 0.0, "orbits": 0} for n in order], []
        if code:
            print("library worker exited %d" % code, file=sys.stderr)
            return failed
        try:
            with open(log) as fh:
                done = json.loads(fh.read().splitlines()[-1])["ops"]
        except (OSError, ValueError, KeyError, IndexError) as e:
            self.errors.append("no readable worker output: %r" % (e,))
            return failed
        check = {"orbits": checks.check_orbits, "lattice": checks.check_lattice,
                 "tower": checks.check_tower}
        ops = []
        for rec in done:
            op = LIB_OPS[rec["name"]]
            errs = check[op["kind"]](op["spec"], rec["summary"])
            self.errors += ["%s: %s" % (rec["name"], e) for e in errs]
            # one process runs the pass: its memory is every op's, and its
            # CPU time is shared out so that the ops sum to the pass's
            ops.append({"name": rec["name"], "seconds": rec["seconds"],
                        "ok": True, "rss_kb": ru.ru_maxrss,
                        "cpu_s": cpu_s(ru) / len(done), "orbits": 0})
        traces = []
        if trace:
            with open(spans) as fh:
                traces.append(json.load(fh))
        return ops, traces

    def expected_count(self, name):
        if name not in self.expected:
            self.expected[name] = checks.expected_inner_count(LADDER[name])
        return self.expected[name]

    # -- metrics ------------------------------------------------------
    def pass_figures(self, ops):
        return {"total_s": sum(o["seconds"] for o in ops),
                "largest_op_s": next(o["seconds"] for o in ops
                                     if o["name"] == self.heaviest),
                "peak_rss_mb": max(o["rss_kb"] for o in ops) / 1024.0,
                "cpu_s": sum(o["cpu_s"] for o in ops)}


def layer_metrics(names, traces, ops, untraced, traced):
    calls, self_s, counters = {}, {}, {}
    for t in traces:
        for src, dst in ((t["calls"], calls), (t["self_s"], self_s),
                         (t["counters"], counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    orbits = sum(o["orbits"] for o in ops)
    special = {
        "reduced.reduce_orbit.calls_per_orbit":
            calls.get("reduced.reduce_orbit", 0) / orbits if orbits else 0.0,
        "proc.cpu_s": statistics.median(f["cpu_s"] for f in untraced),
        "trace.overhead_s": traced["total_s"] - statistics.median(
            f["total_s"] for f in untraced),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = counters.get(name, 0)
    return out


def write_trace(workload, seed, traces, metrics):
    spans = [s for t in traces for s in t["spans"]]
    hot = [[t["op"]] + h for t in traces for h in t["hot"]]
    path = os.path.join(RUNS, "trace-%s.json" % workload)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "span_fields": ["op", "id", "parent", "name", "start",
                                   "end"],
                   "hot_fields": ["op", "parent", "name", "calls",
                                  "total_s"],
                   "spans": spans, "hot": hot, "metrics": metrics}, fh)
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "hurwitz", "cli.py")):
        print("no program: %s/hurwitz is missing" % SRC, file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=RUNS)
    try:
        run = Run(args.workload, args.seed, run_dir)
        run.setup()
        setup_s = time.perf_counter() - T_START
        passes, ops = [], []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            pass_ops, _ = run.one_pass()
            ops += pass_ops
            passes.append(run.pass_figures(pass_ops))
            print("pass %d: %s" % (len(passes), json.dumps(
                {o["name"]: round(o["seconds"], 3) for o in pass_ops})),
                file=sys.stderr)
        if args.trace:
            pass_ops, traces = run.one_pass(trace=True)
            ops += pass_ops
            metrics = layer_metrics([m["name"] for m in bench["per_layer"]],
                                    traces, pass_ops, passes,
                                    run.pass_figures(pass_ops))
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            print("spans: %s" % write_trace(args.workload, args.seed, traces,
                                            metrics), file=sys.stderr)
        else:
            metrics = {
                "total_s": statistics.median(f["total_s"] for f in passes),
                "largest_op_s": statistics.median(f["largest_op_s"]
                                                  for f in passes),
                "peak_rss_mb": max(f["peak_rss_mb"] for f in passes),
                "setup_s": setup_s,
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    except Fatal as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for e in run.errors:
        print("CHECK FAILED: %s" % e, file=sys.stderr)
    failed = sum(1 for o in ops if not o["ok"])
    print(json.dumps({
        "correct": not run.errors,
        "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
