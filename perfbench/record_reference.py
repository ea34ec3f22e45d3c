"""Record the reference outputs that ``run.py`` compares at ``REFERENCE_SEED``.

Usage: ``python3 perfbench/record_reference.py [WORKLOAD ...]``

Writes ``perfbench/reference/<workload>.json``, mapping each reference
op (one per kind, see ``Op.is_reference``) to its exact stdout.  Re-record
only when a change to ``aht`` is meant to move output bytes, and say so
with the change.
"""
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, workloads  # noqa: E402
from perfbench.run import REFERENCE_DIR, call_cli  # noqa: E402


def record(workload: str) -> dict[str, str]:
    ops = workloads.generate(workload, workloads.REFERENCE_SEED)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        argvs = workloads.materialize(ops, Path(tmp))
        recorded = {}
        for op, argv in zip(ops, argvs):
            if not op.is_reference:
                continue
            rc, out, err, _ = call_cli(argv)
            problems = checks.check_output(op, rc, out, err)
            if problems:
                raise SystemExit(f"{workload} {op.name}: {problems}")
            recorded[op.name] = out
    return recorded


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
