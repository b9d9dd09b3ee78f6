"""Record the reference summaries that the benchmark's checks compare with.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs one pass of each workload at the default seed with the current code
and writes perfbench/reference/<workload>.json.  Re-record only for a
change that is meant to alter dampcert's outputs, and say so in it.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name, work: Path):
    ops = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, work)
    summaries = {}
    for op in ops:
        summary = op.check(op.run())
        if summaries.setdefault(op.name, summary) != summary:
            raise SystemExit(f"{name}: repeated op {op.name} gave another output")
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(
        {"default_seed": workloads.DEFAULT_SEED, "ops": summaries}, indent=1, sort_keys=True) + "\n")
    print(f"{path.relative_to(ROOT)}: {len(summaries)} ops")


def main(argv):
    names = argv or sorted(workloads.WORKLOADS)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in names:
            work = Path(tmp) / name
            work.mkdir()
            record(name, work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
