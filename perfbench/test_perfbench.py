"""Tests of the benchmark itself: statistics, span bookkeeping, and exact counts.

    python3 -m pytest perfbench -q

The count tests run each workload's traced run three times (two with one
seed, one with another), about five minutes on two cores.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
from sandharm import sandpile  # noqa: E402
from sandharm.window import BoxWindow  # noqa: E402

SEED, OTHER_SEED = 11, 12

# Counts the seed cannot move: the workload's inputs fix them whatever the draw.
SEED_INVARIANT = {
    "tables": spans.EXACT_COUNTS,
    "sandpile-bulk": (
        "sandpile.random_recurrent.calls",
        "sandpile.group_add.calls",
        "sandpile.stabilize.calls",
        "sandpile.correct_to_recurrent.calls",
        "green.compute_green.calls",
        "cli.calls",
    ),
    "cli-requests": (
        "cli.calls",
        "sandpile.count_recurrent.configs_enumerated",
        "sandpile.toppling_determinant_exact.calls",
        "green.entropy_quadrature.calls",
        "harmonic.kernel_witness.calls",
        "harmonic.standard_specs.calls",
    ),
}


def test_tail_percentile_keeps_ten_samples_above():
    xs = list(range(100))
    value, level = run.tail_percentile(xs)
    assert value == 89 and sum(x > value for x in xs) == 10
    assert level == pytest.approx(90.0)


def test_tail_percentile_falls_back_to_median_on_few_samples():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.tail_percentile(list(range(20)))[1] == 50.0


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    window = BoxWindow.from_shape((8, 8))
    a = sandpile.random_recurrent(window, 4, np.random.default_rng(0))
    tracer.install()
    try:
        sandpile.group_add(a, a)
    finally:
        tracer.uninstall()
    assert sandpile.group_add.__name__ == "group_add" and not hasattr(sandpile.group_add, "__wrapped__")
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["sandpile.group_add"]
    children = [s for s in tracer.spans if s.parent is top[0]]
    # is_recurrent twice (burning_test), then stabilize
    assert [s.name for s in children] == ["sandpile.burning_test"] * 2 + ["sandpile.stabilize"]
    assert top[0].self_s == pytest.approx(top[0].duration - sum(c.duration for c in children))
    m = spans.layer_metrics(tracer.spans, top[0].duration, 0, 0.0)
    assert m["sandpile.burning_test.calls"] == 2 and m["span_coverage"] == pytest.approx(1.0)
    assert m["sandpile.stabilize.topplings"] > 0


def test_every_per_layer_metric_is_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == spans.metric_units()


def traced_counts(workload, seed):
    """Exact counts of a short traced run, which must pass every check."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {name: result["metrics"][name]["value"] for name in spans.EXACT_COUNTS}


@pytest.mark.parametrize("workload", sorted(SEED_INVARIANT))
def test_exact_counts_repeat_between_runs_and_follow_the_seed(workload):
    first = traced_counts(workload, SEED)
    again = traced_counts(workload, SEED)
    mismatched = {k: (first[k], again[k]) for k in first if first[k] != again[k]}
    assert not mismatched, "counts differ between runs of one seed: %s" % mismatched
    other = traced_counts(workload, OTHER_SEED)
    moved = {k for k in first if first[k] != other[k]}
    assert not moved & set(SEED_INVARIANT[workload])
    if workload != "tables":  # the tables' seed moves no count: it only picks dissipative thresholds
        assert moved, "a second seed changed no count"
