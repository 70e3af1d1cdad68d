"""sandharm benchmark: seeded workloads, end-to-end metrics, and a traced per-layer split.

Run from the repository root (``BENCHMARK.json`` lists the workloads and metrics):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs the workload single-threaded, as a closed loop with one
client: each task starts when the previous one has finished.  A run makes an
odd number of passes over the workload's tasks, at least three and about
``seconds`` divided by the workload's nominal pass time, so the work measured
does not change with the speed of the code under test and the median pass
drops a pass slowed by other load on the machine.

``--trace 0`` reports the end-to-end metrics.  Set-up, from process start to
the first timed task, is measured in this process and in two more fresh
processes, and reported as the median.  ``--trace 1`` alternates untraced
passes with passes that wrap the library's public functions in spans, and
reports the per-layer metrics of the traced passes.

A readable report and the run facts come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A failed check makes ``correct`` false and is listed on stderr.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before numpy, scipy and sandharm load

import os  # noqa: E402

# One single-threaded process: pin the BLAS and OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
MIN_SPAN_COVERAGE = 0.9
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing source, failed set-up probe)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchmarkError("cannot read %s: %s" % (path, exc)) from None


def import_workloads():
    """Load sandharm from this checkout's src/, then the workloads that call it."""
    if not os.path.isfile(os.path.join(SRC, "sandharm", "__init__.py")):
        raise BenchmarkError("no sandharm source under %s" % SRC)
    sys.path.insert(0, SRC)
    import sandharm

    if os.path.dirname(os.path.dirname(os.path.abspath(sandharm.__file__))) != SRC:
        raise BenchmarkError("sandharm was imported from %s, not %s" % (sandharm.__file__, SRC))
    import spans
    import workloads

    return workloads, spans


# -- statistics -----------------------------------------------------------------


def tail_percentile(samples):
    """The highest percentile with at least ten samples above it, as (value, level %).

    With fewer than 21 samples that rank falls below the median, so the
    median is reported at level 50.
    """
    xs = sorted(samples)
    k = len(xs) - 11
    if k < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


# -- passes -----------------------------------------------------------------------


def timed_pass(workloads, workload, tracer=None):
    p = workloads.Pass(tracer)
    start = time.perf_counter()
    workload.run_pass(p)
    p.wall_s = time.perf_counter() - start
    return p


def setup_probe(args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def untraced_run(args, workloads, workload, n_passes, setup_s):
    passes = [timed_pass(workloads, workload) for _ in range(n_passes)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    latencies = [t for p in passes for t in p.latencies]
    tail, level = tail_percentile(latencies)
    walls = [p.wall_s for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_s": "median of %d passes: %s" % (len(walls), fmt_list(walls)),
        "setup_s": "median of %d set-ups: %s" % (len(setups), fmt_list(setups)),
        "task_p50_s": "median of %d tasks" % len(latencies),
        "task_tail_s": "p%.1f of %d tasks, %d above it" % (level, len(latencies), min(10, len(latencies) // 2)),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return passes, values, notes


def traced_run(workloads, spans, workload, n_passes):
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    tracer = spans.Tracer()
    untraced, traced, per_pass = [], [], []
    for _ in range(max(2, (n_passes + 1) // 2)):
        untraced.append(timed_pass(workloads, workload))
        tracer.reset()
        tracer.install()
        try:
            p = timed_pass(workloads, workload, tracer)
        finally:
            tracer.uninstall()
        traced.append(p)
        per_pass.append(spans.layer_metrics(tracer.spans, p.wall_s, p.bytes_written, max(p.cert_errs)))
    problems = []
    values = {}
    for name in per_pass[0]:
        series = [m[name] for m in per_pass]
        if name in spans.EXACT_COUNTS:
            if len(set(series)) != 1:
                problems.append("count %s differs between traced passes: %s" % (name, series))
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    for m in per_pass:
        if m["span_coverage"] < MIN_SPAN_COVERAGE:
            problems.append("named spans cover %.3f of a traced pass, below %.2f"
                            % (m["span_coverage"], MIN_SPAN_COVERAGE))
    values["trace_overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    return untraced + traced, values, problems


# -- facts and output -------------------------------------------------------------


def fmt_list(xs):
    return ", ".join("%.4g" % x for x in xs)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return "unknown (%s)" % exc
    return proc.stdout.strip() or "unknown"


def src_facts():
    """Line count and content hash of the package source (the hash identifies non-git checkouts)."""
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def run_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines, sha = src_facts()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "")),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_sha256": sha,
    }


def emit(spec_metrics, values, passes, problems, notes=None):
    """Print the report, then the result line with exactly the metrics the spec lists."""
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures + problems:
        print("FAIL " + line, file=sys.stderr)
    rows = [(m["name"], values[m["name"]], m["unit"], (notes or {}).get(m["name"], "")) for m in spec_metrics]
    rows.append(("failed_ratio", len(failures) / attempted, "ratio",
                 "%d of %d tasks failed a check or raised" % (len(failures), attempted)))
    if "cert_err_max" not in values:
        cert = max(c for p in passes for c in p.cert_errs)
        rows.append(("cert_err_max", cert, "1", "largest certified error bound on an output"))
    for row in rows:
        print("  %-48s %14.6g %-6s %s" % row)
    print("facts " + json.dumps(run_facts(), sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }
    print(json.dumps(result))


def run_all(args, spec):
    """Run every workload in its own process and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError("workload %s exited with %d" % (w["name"], proc.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (w["name"], name)] = metric
    print(json.dumps(combined))


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)

    workloads, spans = import_workloads()
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workload_cls(args.seed, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return
        n_passes = max(3, round(args.seconds / workload.nominal_pass_s)) | 1
        print("workload %s, seed %d, %d passes, trace %d" % (args.workload, args.seed, n_passes, args.trace))
        if args.trace:
            passes, values, problems = traced_run(workloads, spans, workload, n_passes)
            emit(spec["per_layer"], values, passes, problems)
        else:
            passes, values, notes = untraced_run(args, workloads, workload, n_passes, setup_s)
            emit(spec["end_to_end"], values, passes, [], notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
