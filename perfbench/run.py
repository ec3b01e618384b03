"""arstep benchmark: one workload, its end-to-end metrics or its layer trace.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--write-reference]

Run from the root of a checkout; arstep is imported from ./src, never
from an installed copy.  The workloads are described in workloads.py
and README.md.  The run calls every case of the workload in rounds
(each round calls each case once) until --seconds of timed calls have
passed, and checks every output: against the stored reference for the
default seed, against invariants for other seeds, and against the
first output of the same case on every repeat.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median wall time of fresh interpreters that import
               arstep and make the first call of each size class
               (taken before, midway and after the timed rounds)
  small_ms     geometric mean over the small cases of each case's mean
  large_ms     call latency, its slowest call left out (same for large)
  ops_per_s    timed operations per second of call time over the run
  peak_rss_mb  peak resident memory of this process
Printed too, but not in BENCHMARK.json: failed_ratio (failed / attempted,
normally 0; a metric there must never read 0).

--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of BENCHMARK.json: per-operation calls, self time and
counters of the outside-in spans (tracer.py), the ``-X importtime``
split of ``import arstep``, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details, provenance and (with
--trace 1) the span dump go to perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference"

#: Percentiles considered for the informational tail line, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: Time limit of one fresh-interpreter sample, in seconds.
CHILD_TIMEOUT = 120


def load_arstep():
    """Import arstep from the checkout's src directory, or exit."""
    package = SRC / "arstep"
    if not (package / "__init__.py").is_file():
        sys.exit("error: no arstep sources at %s; run from the root of a "
                 "checkout of the repository" % package)
    sys.path.insert(0, str(SRC))
    import arstep
    if Path(arstep.__file__).resolve().parent != package:
        sys.exit("error: imported arstep from %s, not %s"
                 % (arstep.__file__, package))
    return arstep


def run_child(argv):
    """Run a fresh interpreter to completion; return its stderr."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("child %r exited with %d" % (argv, proc.returncode))
    return proc.stderr


def setup_sample(workload, seed):
    start = time.perf_counter()
    run_child([str(BENCH / "setup_child.py"), workload, str(seed)])
    return time.perf_counter() - start


def import_lines():
    """(depth, module, self ms, cumulative ms) of ``import arstep``,
    in the order ``-X importtime`` prints them (children first)."""
    lines = []
    for line in run_child(["-X", "importtime", "-c", "import arstep"]
                          ).splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        lines.append((depth, name.strip(), int(self_us) / 1000,
                      int(cumulative_us) / 1000))
    return lines


def import_ms(lines, package):
    """(self ms, cumulative ms) of a package in one import trace.

    The cumulative time sums the top-most lines of the package or its
    submodules: ``-X importtime`` prints no line for some packages that
    are imported piecemeal (scipy.linalg), only for their submodules.
    """
    self_ms, total, open_lines = 0.0, 0.0, []
    for depth, name, own, cumulative in reversed(lines):
        while open_lines and open_lines[-1][0] >= depth:
            open_lines.pop()
        inside = name == package or name.startswith(package + ".")
        if name == package:
            self_ms = own
        if inside and not any(hit for _, hit in open_lines):
            total += cumulative
        open_lines.append((depth, inside))
    return self_ms, total


def git_commit():
    """Commit of the checkout from .git, without running git; else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(arstep, seed, loadavg):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "arstep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "arstep": arstep.__version__, "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
        "blas": {key: blas.get(key)
                 for key in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
        "seed": seed, "loadavg_start": loadavg,
    }


class Runner:
    """Times single calls of the workload's cases and checks each output."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, case, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (case.label, message))

    def call(self, index):
        """Call one case; return its latency in seconds, or None if failed."""
        case = self.workload.cases[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = case.call()
        except Exception as exc:  # a raising operation is a failed one
            self._fail(case, "raised %s: %s" % (type(exc).__name__, exc))
            return None
        elapsed = time.perf_counter() - start
        summary = case.summary(out)
        if index in self.first:
            want, good = self.first[index]
            if summary != want:
                self._fail(case, "output differs from the run's first call")
                return None
            if not good:
                self._fail(case, "output fails its checks")
                return None
            return elapsed
        problems = self.workload.problems(case, summary, self.reference)
        self.first[index] = (summary, not problems)
        if problems:
            self._fail(case, "; ".join(problems))
            return None
        return elapsed


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_line(samples):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            rank = max(1, math.ceil(p / 100 * n))
            return "p%g %.3f ms (n=%d, %d beyond)" % (
                p, 1000 * ordered[rank - 1], n, n - rank)
    return "no percentile with ten samples beyond it (n=%d)" % n


def trimmed_mean(samples):
    """Mean of the calls without the slowest one (when there are two+)."""
    if len(samples) < 2:
        return samples[0]
    return (sum(samples) - max(samples)) / (len(samples) - 1)


def class_latency(cases, samples, cls):
    """(geometric mean of per-case trimmed means in ms, detail) of a class.

    A case's latency is fixed up to host noise.  Here that noise comes as
    slow phases of seconds to minutes (up to 1.7x, in CPU time too).  The
    median and the quartiles of a case flip with the share of slow phases
    in a run, and the fastest call with whether a run saw a quiet moment;
    the mean moves smoothly with that share and varied least between
    runs.  Dropping each case's slowest call keeps one stall from
    dominating a case with few calls.
    """
    picked = [i for i, case in enumerate(cases) if case.cls == cls
              and samples[i]]
    if not picked:
        return None, {"cases": 0, "samples": 0}
    pooled = [s for i in picked for s in samples[i]]
    return geomean([trimmed_mean(samples[i]) * 1000 for i in picked]), {
        "cases": len(picked), "samples": len(pooled),
        "case_min_ms": {cases[i].label: min(samples[i]) * 1000
                        for i in picked},
        "case_median_ms": {cases[i].label: statistics.median(samples[i])
                           * 1000 for i in picked},
        "case_calls_ms": {cases[i].label: [s * 1000 for s in samples[i]]
                          for i in picked},
        "tail": tail_line(pooled)}


def timed_rounds(runner, seconds, tracer=None, midway=None):
    """Call every case in rounds until `seconds` of round time have passed.

    With a tracer, odd rounds run traced; returns per-case latencies of
    the untraced and of the traced rounds.  `midway` runs once, off the
    clock, after the round that crosses half the time.
    """
    count = len(runner.workload.cases)
    plain = [[] for _ in range(count)]
    traced = [[] for _ in range(count)]
    paused, rounds, midway_done = 0.0, 0, midway is None
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and rounds % 2 == 1
        if tracing:
            tracer.install()
        try:
            for index in range(count):
                if tracing:
                    tracer.op = "%d:%d" % (rounds, index)
                try:
                    latency = runner.call(index)
                finally:
                    if tracing:
                        tracer.op = None
                if latency is not None:
                    (traced if tracing else plain)[index].append(latency)
        finally:
            if tracing:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start - paused
        if not midway_done and elapsed >= seconds / 2:
            pause = time.perf_counter()
            midway()
            paused += time.perf_counter() - pause
            midway_done = True
        if elapsed >= seconds and (tracer is None or rounds >= 2):
            return plain, traced, rounds


def layer_metrics(names, tracer, traced_ops, imports, overhead_pct):
    """Per-operation values of the per-layer metrics named in BENCHMARK.json."""
    values = {}
    for name in names:
        if name == "tracer.overhead_pct":
            values[name] = overhead_pct
            continue
        if name.startswith("import."):
            package, stat = name[len("import."):].rsplit(".", 1)
            samples = [import_ms(lines, package) for lines in imports]
            values[name] = statistics.median(
                s[0] if stat == "self_ms" else s[1] for s in samples)
            continue
        span, stat = name.rsplit(".", 1)
        entry = tracer.stats.get(span)
        if entry is None:
            values[name] = 0.0
        elif stat == "self_ms":
            values[name] = entry.self_s * 1000 / traced_ops
        elif stat == "calls":
            values[name] = entry.calls / traced_ops
        elif stat == "failed":
            values[name] = entry.failed / traced_ops
        elif stat == "accept_ratio":
            values[name] = entry.extra / entry.calls if entry.calls else 0.0
        else:  # a COUNTERS total: rows, matrices, failed_reps
            values[name] = entry.extra / traced_ops
    return values


def write_reference(workload):
    from workloads import DEFAULT_SEED, WORKLOADS

    work = WORKLOADS[workload](DEFAULT_SEED)
    data = {"seed": DEFAULT_SEED,
            "cases": {case.label: case.summary(case.call())
                      for case in work.cases},
            "prelude": work.prelude()[0] if work.prelude else {}}
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / ("%s.json" % workload)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path.relative_to(ROOT))


def prepare(workload, seed):
    """Build the workload, load its reference, run the prelude and warm up.

    Returns the Runner and the problems found outside single calls.
    """
    from workloads import DEFAULT_SEED, WORKLOADS

    work = WORKLOADS[workload](seed)
    reference, problems = None, []
    if seed == DEFAULT_SEED or not work.seeded:
        path = REFERENCE / ("%s.json" % workload)
        if path.is_file():
            reference = json.loads(path.read_text())
        else:
            problems.append("no stored reference at %s"
                            % path.relative_to(ROOT))
    problems += work.run_prelude(reference)
    runner = Runner(work, reference)
    warmed = set()
    for index, case in enumerate(work.cases):
        if case.cls not in warmed:
            warmed.add(case.cls)
            runner.call(index)
    return runner, problems


def trace_report(tracer, plain, traced, imports, names, info):
    """Per-layer metric values; prints overhead and the top self times."""
    traced_ops = sum(len(t) for t in traced)
    # Traced and untraced rounds alternate within the run, so their
    # fastest calls see the same host state.
    ratios = [min(t) / min(p) for p, t in zip(plain, traced) if p and t]
    overhead = 100 * (geomean(ratios) - 1) if ratios else 0.0
    values = layer_metrics(names, tracer, traced_ops, imports, overhead)
    top = sorted(((name, e) for name, e in tracer.stats.items() if e.calls),
                 key=lambda kv: -kv[1].self_s)
    total = sum(e.self_s for _, e in top)
    print("tracing overhead %.1f%% over %d traced operations"
          % (overhead, traced_ops))
    for name, entry in top[:8]:
        print("self time %5.1f%%  %s" % (100 * entry.self_s / total, name))
    info["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
    info["span_stats"] = {name: {"calls": e.calls, "self_ms": e.self_s * 1000,
                                 "failed": e.failed, "extra": e.extra}
                          for name, e in top}
    info["import_ms"] = {name: [own, cumulative]
                         for _, name, own, cumulative in imports[0]
                         if cumulative >= 1.0}
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("criterion", "ape", "montecarlo", "theory"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs and exit")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    arstep = load_arstep()
    if args.write_reference:
        write_reference(args.workload)
        return 0

    info = {"provenance": provenance(arstep, args.seed, loadavg),
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}
    print("provenance " + json.dumps(info["provenance"], sort_keys=True))
    setups, imports = [], []

    def child():
        """One fresh-interpreter sample: import split or set-up time."""
        if args.trace:
            imports.append(import_lines())
        else:
            setups.append(setup_sample(args.workload, args.seed))

    child()
    runner, problems = prepare(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    origin = time.perf_counter()
    plain, traced, rounds = timed_rounds(
        runner, args.seconds, tracer, child)
    child()

    cases = runner.workload.cases
    classes = {cls: class_latency(cases, plain, cls)
               for cls in ("small", "large")}
    end_to_end = {
        "setup_s": statistics.median(setups) if setups else None,
        "small_ms": classes["small"][0],
        "large_ms": classes["large"][0],
        "ops_per_s": sum(map(len, plain)) / sum(map(sum, plain)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "failed_ratio": runner.failed / runner.attempted,
    }
    samples = {
        "setup_s": "%d fresh interpreters" % len(setups),
        "ops_per_s": "%d untraced calls" % sum(map(len, plain)),
        "peak_rss_mb": "1 process",
        "failed_ratio": "%d failed of %d attempted" % (runner.failed,
                                                       runner.attempted),
    }
    for cls, (_, detail) in classes.items():
        samples[cls + "_ms"] = "%d cases, %d calls; pooled %s" % (
            detail["cases"], detail["samples"], detail.get("tail", "-"))
    problems += runner.problems
    for message in problems:
        print("problem: " + message)

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        kind = "per_layer"
        values = trace_report(tracer, plain, traced, imports,
                              [m["name"] for m in spec[kind]], info)
        tracer.write_jsonl(RESULTS / ("%s-spans.jsonl" % args.workload),
                           origin)
    else:
        kind = "end_to_end"
        values = end_to_end
    for name, value in end_to_end.items():
        if value is not None:
            print("%-12s %-22s %s" % (name, value, samples[name]))
    info.update(end_to_end=end_to_end, samples=samples, rounds=rounds,
                classes={cls: detail for cls, (_, detail) in classes.items()},
                problems=problems)
    (RESULTS / ("%s-trace%d.json" % (args.workload, args.trace))).write_text(
        json.dumps(info, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
