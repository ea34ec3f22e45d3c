"""The aht benchmark: closed-loop ``aht`` CLI calls with checked outputs.

Usage::

    python3 perfbench/run.py --workload {verify,noise_eigh,algebra} \\
        --seed N --seconds S --trace {0,1}

One client in one process calls ``aht.cli.main([...])`` in-process; the
next call starts when the previous one returns.  Each run:

1. measures set-up: with ``--trace 0``, ``setup_s`` is the median wall
   time of fresh interpreters that import ``aht`` and generate the inputs
   (``perfbench/probe.py``); with ``--trace 1``, the numpy / scipy / aht
   split of ``python -X importtime -c "import aht"``;
2. runs one warm-up pass on the inputs of ``REFERENCE_SEED`` and compares
   the recorded outputs in ``perfbench/reference`` (with ``--trace 1``
   this pass also records ``tracemalloc`` peaks of the noise runs);
3. runs timed passes over the ``--seed`` inputs for ``--seconds`` (at
   least two): untraced with ``--trace 0``, alternating untraced and
   traced with ``--trace 1``.  Every pass's outputs must be byte-identical
   to the first pass's.

Every output is checked (``perfbench/checks.py``); a failed check, a
non-zero exit or an ``error:`` line fails the operation.  Human-readable
lines go first; the last line of stdout is the JSON result.  Spans and
the environment record go to ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make ``perfbench`` importable
    sys.path.insert(0, str(ROOT))

from perfbench import checks, envinfo, tracer  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
MIN_PASSES = 2


class Stats:
    """Attempted and failed operation counts, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """One closed-loop operation: ``aht.cli.main(argv)`` with captured output."""
    from aht import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the loop must keep running; the op fails
            rc = -1
            print(f"error: uncaught {exc!r}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_pass(ops, argvs, stats: Stats, label: str) -> tuple[float, list[str]]:
    """Run every op once, checking outputs; returns (seconds in calls, outputs)."""
    total, outputs = 0.0, []
    for op, argv in zip(ops, argvs):
        rc, out, err, elapsed = call_cli(argv)
        stats.attempted += 1
        stats.record(f"{label} {op.name}", checks.check_output(op, rc, out, err))
        total += elapsed
        outputs.append(out)
    return total, outputs


def check_same(ops, first: list[str], outputs: list[str], stats: Stats, label: str) -> None:
    """Determinism: a repeated pass must reproduce the first pass byte for byte."""
    for op, a, b in zip(ops, first, outputs):
        if a != b:
            stats.record(f"{label} {op.name}", ["output differs from the first pass"])


def check_reference(workload: str, ops, outputs: list[str], stats: Stats) -> None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        stats.record("reference", [f"missing {path.name}"])
        return
    recorded = json.loads(path.read_text())
    for op, out in zip(ops, outputs):
        if op.is_reference:
            if op.name not in recorded:
                stats.record(f"reference {op.name}", ["no recorded output"])
            else:
                stats.record(f"reference {op.name}",
                             checks.compare_reference(recorded[op.name], out))


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of fresh interpreters that import aht and generate the inputs."""
    times = []
    for i in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed),
             str(workdir / f"probe{i}")],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = quartiles(values)
    return (f"{name} median {statistics.median(values):.4f} {unit} "
            f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")


def layer_metrics(summaries: list[dict], memory: dict, imports: dict,
                  traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts per pass.

    ``memory`` is the summary of the tracemalloc pass (peaks and errors only).
    """
    def med(name: str, key: str) -> float:
        return statistics.median(s[name][key] for s in summaries)

    first = summaries[0]
    noise = first["noise"]
    m: dict[str, tuple[float, str]] = {}
    for name in ("noise.ensemble_coherence", "noise.propagate_trajectory",
                 "universality.lie_closure", "universality.transformer_reach",
                 "operators.expm", "operators.logm_effective", "decoupling.builtin_groups",
                 "decoupling.close_group", "decoupling.project_group",
                 "decoupling.average_zeroth", "decoupling.cycle_propagator",
                 "decoupling.effective_defect", "decoupling.named_sequence",
                 "codes.build_code", "codes.logical_action"):
        m[f"{name}.calls"] = (first[name]["calls"], "count")
        m[f"{name}.self_s"] = (med(name, "self_s"), "s")
    for name in ("noise.build_scenario", "universality.generate_group",
                 "scenario.Scenario.from_json", "scenario.parse_hamiltonian"):
        m[f"{name}.total_s"] = (med(name, "total_s"), "s")
    for name in ("operators.pauli_sum", "cli.main", "verify.run_suite"):
        m[f"{name}.self_s"] = (med(name, "self_s"), "s")
    ens_s = med("noise.ensemble_coherence", "self_s")
    m["noise.ensemble_coherence.traj_steps_per_s"] = (
        noise["ensemble_steps"] / ens_s if ens_s > 0 else 0.0, "1/s")
    m["noise.ensemble_coherence.peak_mb"] = (memory["noise"]["peak_bytes"] / 2**20, "MB")
    m["noise.traj_steps.diagonal"] = (noise["diagonal"], "count")
    m["noise.traj_steps.eigh"] = (noise["eigh"], "count")
    m["noise.useful_step_ratio"] = (
        noise["useful"] / noise["run"] if noise["run"] else 0.0, "ratio")
    for key, value in imports.items():
        m[f"setup.{key}"] = (value, "s")
    for module in tracer.MODULES:
        m[f"{module}.errors"] = (max(s["errors"][module] for s in summaries + [memory]), "count")
    m["trace.untraced_pass_s"] = (statistics.median(untraced), "s")
    m["trace.traced_pass_s"] = (statistics.median(traced), "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_pass(ops, argvs, stats: Stats, label: str, memory: bool, traces: list):
    """``run_pass`` under a fresh ``Tracer``; checks the spans and keeps them."""
    with tracer.Tracer(memory=memory) as t:
        elapsed, outs = run_pass(ops, argvs, stats, label)
    for op_id, problems in tracer.check_spans(t.spans).items():
        stats.record(f"{label} op {op_id} spans", problems)
    traces.append({"label": label, "spans": [s.to_dict() for s in t.spans]})
    return elapsed, outs, tracer.summarize(t.spans)


def noise_calls(spans: list[dict]) -> str:
    """Per-call computed step counts, e.g. ``ensemble_coherence diagonal 640/6400 x500``."""
    return ", ".join(f"{s['name'].split('.')[1]} {s['path']} {s['useful_steps']}/{s['steps']}"
                     f" x{s['n_traj']}" for s in spans if "steps" in s)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads  # imports aht, so only after ``main`` found it

    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    stats = Stats()
    traces: list[dict] = []
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    report: dict = {"workload": workload, "seed": seed, "trace": trace}
    try:
        if trace:
            splits = [envinfo.import_split(SRC, dict(os.environ)) for _ in range(IMPORT_SAMPLES)]
            imports = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
        else:
            setup = setup_seconds(workload, seed, workdir)

        ref_ops = workloads.generate(workload, workloads.REFERENCE_SEED)
        ops = workloads.generate(workload, seed)
        ref_argvs = workloads.materialize(ref_ops, workdir / "reference")
        argvs = workloads.materialize(ops, workdir / "inputs")

        # warm-up pass at the reference seed; traced runs take memory peaks here
        if trace:
            _, ref_outs, memory = traced_pass(ref_ops, ref_argvs, stats, "reference", True, traces)
        else:
            _, ref_outs = run_pass(ref_ops, ref_argvs, stats, "reference")
        check_reference(workload, ref_ops, ref_outs, stats)

        first: list[str] | None = None
        start = time.perf_counter()
        while (len(untraced) + len(traced) < MIN_PASSES
               or time.perf_counter() - start < seconds):
            index = len(untraced) + len(traced)
            label = f"pass{index}"
            if trace and index % 2 == 1:
                elapsed, outs, summary = traced_pass(ops, argvs, stats, label, False, traces)
                traced.append(elapsed)
                summaries.append(summary)
            else:
                elapsed, outs = run_pass(ops, argvs, stats, label)
                untraced.append(elapsed)
            if first is None:
                first = outs
            else:
                check_same(ops, first, outs, stats, label)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fail_ratio = stats.failed / stats.attempted
    report["environment"] = envinfo.environment(ROOT)
    print("env " + json.dumps(report["environment"], sort_keys=True))
    print(f"{workload} seed {seed}: " + describe("pass_s", untraced, "s")
          + f"; peak_rss_mb {rss_mb:.1f} MB; fail_ratio {fail_ratio:.4f} ratio "
          f"({stats.failed}/{stats.attempted})")
    if trace:
        metrics = layer_metrics(summaries, memory, imports, traced, untraced)
        print(describe("traced pass_s", traced, "s") + "; tracing overhead "
              f"{metrics['trace.overhead_s']['value']:.4f} s")
        print("computed noise steps (useful/run per trajectory): "
              + (noise_calls(traces[-1]["spans"]) or "none"))
    else:
        print(describe("setup_s", setup, "s"))
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        report["setup_s"] = setup
    for line in stats.problems:
        print(f"FAILED {line}")
    report.update(untraced_pass_s=untraced, traced_pass_s=traced, metrics=metrics,
                  problems=stats.problems, traces=traces, fail_ratio=fail_ratio,
                  op_names=[op.name for op in ops])
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{'trace' if trace else 'run'}-{workload}-seed{seed}.json"
    out.write_text(json.dumps(report, sort_keys=True) + "\n")
    return {"correct": stats.failed == 0, "attempted": stats.attempted,
            "failed": stats.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aht" / "__init__.py").is_file():
        print(f"error: no aht package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
