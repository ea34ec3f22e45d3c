"""Tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from aht import cli, noise, scenario  # noqa: E402,F401
from perfbench import checks, envinfo, run, tracer, workloads  # noqa: E402


def _same_ops(a, b) -> bool:
    def key(op):
        expect = {k: np.asarray(v).tobytes().hex() for k, v in op.expect.items()}
        return (op.name, op.check, op.argv, json.dumps(op.scenario, sort_keys=True),
                json.dumps(expect, sort_keys=True))
    return [key(op) for op in a] == [key(op) for op in b]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    assert _same_ops(workloads.generate(workload, 7), workloads.generate(workload, 7))
    assert not _same_ops(workloads.generate(workload, 7), workloads.generate(workload, 8))


def _bindings() -> dict:
    out = {}
    for name, mod in sys.modules.items():
        if name == "aht" or name.startswith("aht."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    out["from_json"] = scenario.Scenario.__dict__["from_json"]
    return out


def _run_tiny(workload: str, tmp_path: Path, trace: bool):
    ops = workloads.generate(workload, 3, tiny=True)
    argvs = workloads.materialize(ops, tmp_path / workload)
    stats = run.Stats()
    if trace:
        with tracer.Tracer(memory=True) as t:
            _, outs = run.run_pass(ops, argvs, stats, "tiny")
        return ops, outs, stats, t.spans
    _, outs = run.run_pass(ops, argvs, stats, "tiny")
    return ops, outs, stats, None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_checks_and_tracing_changes_nothing(workload, tmp_path):
    before = _bindings()
    ops, plain, stats, _ = _run_tiny(workload, tmp_path, trace=False)
    assert stats.failed == 0, stats.problems
    ops, traced, stats, spans = _run_tiny(workload, tmp_path, trace=True)
    assert stats.failed == 0, stats.problems
    assert traced == plain
    assert _bindings() == before
    assert tracer.check_spans(spans) == {}
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"] * len(ops)
    # verify reaches the noise engine through its own imported reference
    assert any(s.name == "noise.ensemble_coherence" for s in spans) == (workload != "algebra")
    selfs = tracer.self_times(spans)
    for root in roots:
        own = sum(v for s, v in zip(spans, selfs) if s.op == root.op)
        assert own == root.end - root.start


def test_failed_checks_are_counted():
    op = workloads.generate("verify", 1)[0]
    assert checks.check_output(op, 0, "x\n\n8/9 checks passed\n", "") != []
    assert checks.check_output(op, 2, "", "error: bad\n") != []
    assert checks.check_output(op, 0, "x\n\n9/9 checks passed\n", "") == []


def test_reference_comparison_tolerance():
    ref = "a 1.000000000000 b 3.3e-16\n"
    assert checks.compare_reference(ref, "a 1.000000000001 b -2.0e-16\n") == []
    assert checks.compare_reference(ref, "a 1.00001 b 3.3e-16\n") != []
    assert checks.compare_reference(ref, "A 1.0 b 3.3e-16\n") != []


def test_computed_steps_match_the_simulator_grid():
    scenarios = [
        noise.build_scenario("hybrid_dephasing", fast_amplitude=0.0, slow_amplitude=0.3,
                             tau_slow=20.0, max_step=1 / 40, cycle_time=0.5, repetitions=32),
        noise.build_scenario("hybrid_dephasing", pulses=False, repetitions=3),
        noise.build_scenario("encoded_spin_boson", repetitions=5),
        noise.build_scenario("encoded_depolarizing", repetitions=5),
        noise.build_scenario("four_qubit_blockwise", repetitions=2),
    ]
    for sc in scenarios:
        assert tracer.grid_steps(sc) == noise._build_grid(sc).durations.shape[0]
    assert tracer.grid_steps(scenarios[0]) == 12800
    assert tracer.grid_steps(scenarios[0], live_only=True) == 640
    paths = [tracer.is_diagonal_path(sc) for sc in scenarios]
    assert paths == [True, True, False, False, True]


def test_import_split_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.version",
        "import time:        20 |        100 |     numpy",
        "import time:         5 |          5 |           numpy.testing",
        "import time:        30 |         40 |         scipy._lib",
        "import time:        50 |        300 |     scipy.linalg",
        "import time:        40 |        500 |   aht.operators",
        "import time:         7 |        600 | aht",
    ])
    split = envinfo.parse_importtime(text)
    assert split == pytest.approx(
        {"numpy_import_s": 100e-6, "scipy_import_s": 300e-6, "aht_import_s": 200e-6})


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    summary = tracer.summarize([])
    summary["noise"]["peak_bytes"] = 0
    produced = run.layer_metrics([summary], summary, dict.fromkeys(
        ("numpy_import_s", "scipy_import_s", "aht_import_s"), 0.0), [1.0], [1.0])
    assert set(produced) == listed
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
