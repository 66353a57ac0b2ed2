"""Quick self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and checks that
each run reports exactly the metric names and units BENCHMARK.json lists,
with no failed call or check.  Then traces ``noise run --jobs 2`` to check
that calls made inside pool workers reach the parent's trace.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "BUILD_BATCHES": 1, "BUILD_RECORDS": 20, "EVAL_SPLITS": run.ORACLE_SAMPLE,
    "EVAL_LM_SENTENCES": 20, "CROWD_BATCHES": 1, "CROWD_SUBMISSIONS": 8, "CROWD_PAIRS": 20,
}


def _expected(root: Path) -> dict[str, dict[str, str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def check_workloads(root: Path) -> list[str]:
    expected = _expected(root)
    problems = []
    for name, value in TINY.items():
        setattr(workloads, name, value)
    for workload in workloads.NAMES:
        for trace in (False, True):
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = run.run_workload(root, workload, seed=7, seconds=1, trace=trace)
            metrics = outcome["layers"] if trace else outcome["end_to_end"]
            want = expected["per_layer" if trace else "end_to_end"]
            got = {k: unit for k, (_, unit) in metrics.items()}
            label = f"{workload} --trace {int(trace)}"
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                problems.append(f"{label}: missing {missing}, unlisted {extra}, wrong unit {units}")
            if outcome["failed"]:
                problems.append(f"{label}: failed_ratio {outcome['failed']}/{outcome['attempted']}: "
                                f"{outcome['messages'][:3]}")
            print(f"{label}: {len(got)} metrics, {outcome['attempted']} checks, {outcome['failed']} failed")
    return problems


def check_pool_tracing(root: Path) -> list[str]:
    """Trace ``noise run --jobs 2``; every record is noised in a worker."""
    from draftkit import cli
    from tracer import Tracer

    work = root / ".perfbench_work" / f"selftest-pool-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spool").mkdir(parents=True)
    try:
        lines = [f"the model improves the results in case {i} ." for i in range(40)]
        (work / "in.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracer = Tracer(work / "spool")
        tracer.install()
        code = cli.dispatch(["noise", "run", "--input", str(work / "in.txt"),
                             "--out", str(work / "out.tsv"), "--jobs", "2"])
        reported = tracer.collect()
        calls = tracer.calls("noising.noise_sentence")
        print(f"pool tracing: exit {code}, {reported} worker traces, {calls} noise_sentence calls")
        if code != 0 or reported == 0 or calls != len(lines):
            return [f"pool tracing: exit {code}, {reported} worker traces, {calls} calls of {len(lines)}"]
        return []
    finally:
        run.remove_work(work)


def main() -> int:
    root = Path.cwd()
    run.use_checkout(root)
    problems = check_workloads(root) + check_pool_tracing(root)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
