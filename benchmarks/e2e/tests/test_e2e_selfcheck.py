"""Self-tests of the end-to-end benchmark (``--quick`` scale).

    python -m pytest benchmarks/e2e/tests -q

Outside ``testpaths``, so the repository's tier-1 suite never collects
them.  They run the benchmark the way a user does -- ``run.py`` in a
subprocess -- and check the instrument, not the program.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
sys.path.insert(0, E2E)

import trace as tracing  # noqa: E402  (benchmarks/e2e/trace.py)
from metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("adhoc_mixed", "monitor_stream", "service_fleet",
             "store_scatter")


def run(tmp_path, *flags):
    """``run.py --quick <flags>``; returns (result document, stdout)."""
    output = os.path.join(str(tmp_path), "result.json")
    done = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--quick",
         "--output", output, *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    with open(output, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run(tmp_path_factory.mktemp("traced"), "--trace")


def test_every_named_metric_is_present_with_a_unit(traced):
    document, stdout = traced
    for workload in WORKLOADS:
        untraced = document["runs"][workload][0]
        assert untraced["failed"] == 0, untraced["errors"]
        assert untraced["verified"] > 0
        for name in DRIVER_END_TO_END:
            assert untraced["end_to_end"][name] > 0, (workload, name)
        assert set(untraced["end_to_end"]) <= set(END_TO_END)
        layers = document["traced"][workload]["per_layer"]
        assert set(layers) == set(PER_LAYER)
        assert layers["dispatch.leaked_segments"] == 0
    # every one of the sixteen is exercised by some workload ...
    seen = set().union(*(document["runs"][w][0]["end_to_end"]
                         for w in WORKLOADS))
    assert seen == set(END_TO_END)
    # ... and printed by name with its unit
    for name, (unit, _better, _bound) in END_TO_END.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines()), name
    for name, (unit, _better) in PER_LAYER.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in stdout.splitlines()), name
    assert set(document["fingerprint"]) >= {
        "nproc", "cpu_model", "python", "numpy", "scipy", "numba",
        "blas_threads_env",
    }


def test_each_layer_works_where_the_design_says(traced):
    document, _stdout = traced
    layers = {w: document["traced"][w]["per_layer"] for w in WORKLOADS}
    assert layers["service_fleet"]["service.fusion_ratio"] > 1.0
    assert layers["store_scatter"]["planner.dispatch_share.process"] > 0
    assert layers["store_scatter"]["dispatch.process_vs_planned"] > 0
    assert layers["monitor_stream"]["operators.ladder_extend_calls"] > 0
    assert layers["adhoc_mixed"]["plan_cache.constructions"] > 0
    assert layers["adhoc_mixed"]["service.evaluations"] == 0
    assert layers["adhoc_mixed"]["store.journal_bytes"] == 0


@pytest.mark.parametrize("workload", ["adhoc_mixed", "monitor_stream"])
def test_counts_repeat_per_seed_and_differ_across_seeds(tmp_path, workload):
    def counts(seed):
        document, _stdout = run(tmp_path, "--workload", workload,
                                "--seed", str(seed))
        result = document["runs"][workload][0]
        return (result["op_counts"],
                result["counters"].get("plan_cache"))

    assert counts(11) == counts(11)
    assert counts(11) != counts(12)


def test_span_self_times_sum_to_the_timed_wall(traced):
    document, _stdout = traced
    for workload in ("adhoc_mixed", "monitor_stream", "store_scatter"):
        result = document["traced"][workload]
        path = os.path.join(E2E, "out", f"trace_{workload}.json")
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        selfs = tracing.self_times(spans)
        lo, hi = trace["timed_lo"], trace["timed_hi"]
        timed = [(s, t)
                 for s, t, root in zip(spans, selfs,
                                       tracing.root_names(spans))
                 if lo <= s[1] <= hi and root.startswith("bench.")]
        wall = result["timed_wall_s"]
        total = sum(t for _s, t in timed)
        assert abs(total - wall) <= 0.02 * wall, workload
        named = sum(t for s, t in timed if not s[0].startswith("bench."))
        unattributed = result["per_layer"]["bench.unattributed_frac"]
        assert abs((wall - named) / wall - unattributed) <= 0.02, workload
        assert result["per_layer"]["bench.attribution_coverage"] >= 0.9


def test_a_wrong_reference_is_counted_as_failed(tmp_path):
    document, stdout = run(tmp_path, "--workload", "adhoc_mixed",
                           "--corrupt-reference")
    result = document["runs"]["adhoc_mixed"][0]
    assert result["end_to_end"]["failed_frac"] > 0
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(DRIVER_END_TO_END)


def _document(values):
    """A result document with three runs of one workload."""
    return {"seed": 11, "seconds": 12.0, "scale": "full", "runs": {
        "adhoc_mixed": [{"end_to_end": dict(run)} for run in values]
    }}


def test_compare_gates_on_bounds_spread_and_failures(capsys):
    import compare

    steady = [{"exists_p50_ms": v, "failed_frac": 0.0}
              for v in (10.0, 10.1, 10.2)]
    slower = [{"exists_p50_ms": v, "failed_frac": 0.0}
              for v in (12.0, 12.1, 12.2)]
    noisy = [{"exists_p50_ms": v, "failed_frac": 0.0}
             for v in (8.0, 10.0, 13.0)]
    wrong = [{"exists_p50_ms": v, "failed_frac": f}
             for v, f in ((10.0, 0.0), (10.1, 0.01), (10.2, 0.01))]
    assert compare.compare(_document(steady), _document(steady)) == 0
    assert compare.compare(_document(steady), _document(slower)) == 1
    assert compare.compare(_document(slower), _document(steady)) == 0
    assert "improved" in capsys.readouterr().out
    assert compare.compare(_document(steady), _document(noisy)) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(_document(steady), _document(wrong)) == 1
    assert compare.compare(_document(steady[:2]), _document(steady)) == 2


def test_benchmark_json_lists_the_catalogue():
    root = os.path.dirname(os.path.dirname(E2E))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == [
        (name, END_TO_END[name][0]) for name in DRIVER_END_TO_END
    ]
    assert {(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]} == {
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    }
