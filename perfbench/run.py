"""draftkit benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run (see README.md for both lists).
``--workload all`` runs every workload in turn.  The last line of
standard output is the result object; the lines before it are a readable
summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
WORKER_TIMEOUT_S = 150.0
ORACLE_SAMPLE = 6
HOST_WINDOW_S = 2.0

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = (
    "cli.invocations", "corpus.tokenize.calls", "lm.logprob.calls", "lm.arpa_bytes",
    "noising.noise_sentence.calls", "quality.spell_check.calls", "quality.oov_tokens",
    "quality.oov_types", "quality.corrections", "quality.levenshtein.calls",
    "quality.filter_pairs.kept", "quality.filter_pairs.removed",
    "metrics.levenshtein_char.calls", "metrics.levenshtein_char.cells",
    "metrics.extract_edits.calls",
)

STAGES = (
    "corpus_extract", "lm_train", "noise_run", "quality_filter_pairs", "stats_dataset",
    "analysis_terms", "eval_run", "lm_ppl", "quality_score_workers",
)

_SETUP_PROBE = """\
import json, time
t0 = time.perf_counter()
import draftkit.cli
t1 = time.perf_counter()
from draftkit.resources import load_participles, load_stopwords, load_wordlist
load_wordlist(); load_stopwords(); load_participles()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.messages.append(message)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path) -> tuple[float, float, float]:
    """Median (total, import, word-list load) seconds of fresh interpreters.

    One unrecorded probe first, so byte-code caches are written before
    any probe is timed.  Not scaled to the reference host speed: import
    time is mostly file and extension loading, which the calibration
    loop does not track.
    """
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=_env(root), cwd=root,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    samples = samples[1:]
    return (
        statistics.median(a + b for a, b in samples),
        statistics.median(a for a, _ in samples),
        statistics.median(b for _, b in samples),
    )


def run_worker(root: Path, work: Path, mode: str, extra: list[str]) -> tuple[dict, float]:
    """Run worker.py; return its result and its peak RSS in MB."""
    result = work / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--work", str(work),
           "--mode", mode, "--result", str(result), *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=sys.stderr)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"worker ({mode}) exceeded {WORKER_TIMEOUT_S:.0f} s")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8")), usage.ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# independent re-checks on a seeded sample, outside the timed phase


def _nearest_entry(word: str, vocab: dict[str, int], distance) -> str | None:
    """Brute-force spell-check pick: distance <= 2, then frequency, then
    lexicographic order."""
    best = None
    for entry, freq in vocab.items():
        if abs(len(entry) - len(word)) > 2:
            continue
        d = distance(word, entry)
        if 1 <= d <= 2:
            key = (d, -freq, entry)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def _check_spelling(drafts: list[str], root: Path, rng: random.Random, failures: Failures) -> None:
    import gen
    from draftkit.corpus import MASK_TOKEN, Sentence
    from draftkit.quality import spell_check
    from oracles import levenshtein_recursive

    words, counts = gen.load_vocab(root)
    vocab = dict(zip(words, counts))
    for text in rng.sample(drafts, min(ORACLE_SAMPLE, len(drafts))):
        sentence = Sentence.from_text(text)
        expected = []
        for token in sentence.tokens:
            out = token
            if token.isalpha() and not token.isupper() and token != MASK_TOKEN and token.lower() not in vocab:
                found = _nearest_entry(token.lower(), vocab, levenshtein_recursive)
                if found is not None:
                    out = found.capitalize() if token.istitle() else found
            expected.append(out)
        got = spell_check(sentence).corrected_text
        failures.check(got == " ".join(expected), f"spell check of {text!r} gave {got!r}")


def oracle_checks(root: Path, work: Path, spec: dict, seed: int) -> Failures:
    from draftkit.corpus import tokenize
    from draftkit.metrics import levenshtein_char
    from oracles import lcs_length_recursive, levenshtein_recursive

    rng = random.Random(f"oracle:{spec['workload']}:{seed}")
    failures = Failures()
    workload = spec["workload"]
    if workload == "build":
        rows = []
        for b in range(len(spec["batches"])):
            batch = [line.split("\t") for line in workloads.read_lines(work / f"pairs_{b}.tsv")]
            stats = json.loads((work / f"stats_{b}.json").read_text(encoding="utf-8"))
            mean = sum(levenshtein_char(d, r) for d, r in batch) / len(batch)
            failures.check(stats["mean_char_levenshtein"] == mean, f"stats_{b}.json: mean_char_levenshtein is off")
            rows += batch
        for draft, ref in rng.sample(rows, ORACLE_SAMPLE):
            failures.check(
                levenshtein_char(draft, ref) == levenshtein_recursive(draft, ref),
                f"levenshtein_char({draft!r}, {ref!r}) disagrees with the oracle",
            )
        _check_spelling([d for d, _ in rows], root, rng, failures)
    elif workload == "eval":
        picks = [(k, i) for k, size in enumerate(spec["split_sizes"]) for i in range(size)]
        for k, i in rng.sample(picks, 2 * ORACLE_SAMPLE):
            record = json.loads((work / f"eval_{k}.json").read_text(encoding="utf-8"))["pairs"][i]
            hyp = workloads.read_lines(work / f"split_{k}.hyp.txt")[i]
            ref = workloads.read_lines(work / f"split_{k}.ref.txt")[i]
            failures.check(
                record["levenshtein_char"] == levenshtein_recursive(hyp, ref),
                f"eval_{k} pair {i}: levenshtein_char disagrees with the oracle",
            )
            h, r = tokenize(hyp), tokenize(ref)
            lcs = lcs_length_recursive(h, r)
            p, q = lcs / len(h), lcs / len(r)
            expected = 0.0 if lcs == 0 else (1 + 1.2**2) * p * q / (q + 1.2**2 * p)
            failures.check(
                abs(record["rouge_l"] - expected) <= 1e-12,
                f"eval_{k} pair {i}: rouge_l {record['rouge_l']} != LCS oracle {expected}",
            )
    else:
        subs, verdicts, drafts = [], [], []
        for b in range(len(spec["batches"])):
            subs += [json.loads(line) for line in workloads.read_lines(work / f"submissions_{b}.jsonl")]
            verdicts += [json.loads(line) for line in workloads.read_lines(work / f"verdicts_{b}.jsonl")]
            drafts += [line.split("\t")[0] for line in workloads.read_lines(work / f"crowd_pairs_{b}.tsv")]
        for i in rng.sample(range(len(subs)), ORACLE_SAMPLE):
            bands = []
            for answer, mt in zip(subs[i]["answers"], subs[i]["mt_references"]):
                d = levenshtein_recursive(answer, mt)
                if d <= 10:
                    bands.append("worker.ld_le_10")
                elif d < 20:
                    bands.append("worker.ld_10_20")
                elif d <= 30:
                    bands.append("worker.ld_20_30")
            got = [c for c, _ in verdicts[i]["triggered"] if c.startswith("worker.ld_")]
            failures.check(got == bands, f"{subs[i]['worker_id']}: distance bands {got} != oracle {bands}")
        _check_spelling(drafts, root, rng, failures)
    return failures


# --------------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def host_factors(timed: dict) -> list[float]:
    """Each timed unit's host slowdown: the median calibration time within
    HOST_WINDOW_S of the unit's midpoint, over the reference time.  The
    window spans several calibrations, which evens out their own jitter
    while still following the slower swings in host speed."""
    calibrations = timed["calibrations"]
    factors = []
    for sample in timed["samples"]:
        near = [c for t, c in calibrations if abs(t - sample["t"]) <= HOST_WINDOW_S]
        factors.append(statistics.median(near) / hostspeed.REFERENCE_S)
    return factors


def timed_metrics(timed: dict) -> tuple[dict, dict]:
    """End-to-end rate and per-subcommand details of a timed run, at the
    reference host speed."""
    factors = host_factors(timed)
    rates = []
    stage_s: dict[str, float] = {}
    stage_records: dict[str, int] = {}
    call_ms = []
    for sample, slow in zip(timed["samples"], factors):
        if sample["ok"]:
            rates.append(sample["records"] * slow / sample["s"])
        for stage, records, elapsed in sample["calls"]:
            stage_s[stage] = stage_s.get(stage, 0.0) + elapsed / slow
            stage_records[stage] = stage_records.get(stage, 0) + records
            if stage == "eval_run":
                call_ms.append(elapsed * 1000.0 / slow)
    summary = {"records_per_s": (statistics.median(rates), "records/s")}
    details = {
        f"us_per_record.{stage}": (stage_s[stage] * 1e6 / stage_records[stage], "us/record")
        for stage in stage_s
    }
    if len(call_ms) >= 2:
        details["call_ms.p50"] = (statistics.median(call_ms), "ms")
        details["call_ms.p90"] = (_quantile(call_ms, 90), "ms")
        details["call_ms.samples"] = (len(call_ms), "count")
    details["host.slowdown"] = (statistics.median(factors), "ratio")
    details["units.timed"] = (len(rates), "count")
    return summary, details


def use_checkout(root: Path) -> None:
    """Import draftkit and the test oracles from the checkout at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from draftkit import cli

    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = workloads.generate(root, work, workload, seed)
        problems = workloads.prepare(work, spec, cli.dispatch)
        if problems:
            raise RuntimeError("; ".join(problems))
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        records, chars = workloads.input_chars(work, spec)
        setup_s, import_s, wordlists_s = measure_setup(root)

        timed, rss_mb = run_worker(root, work, "timed", ["--seconds", str(seconds)])
        attempted = timed["attempted"]
        messages = list(timed["failures"])
        oracle = oracle_checks(root, work, spec, seed)
        attempted += oracle.attempted
        messages += oracle.messages
        summary, details = timed_metrics(timed)
        summary["setup_s"] = (setup_s, "s")
        summary["peak_rss_mb"] = (rss_mb, "MB")
        details["failed_ratio"] = (len(messages) / attempted, "ratio")
        digest = timed["digest"]

        layers: dict[str, tuple[float, str]] = {}
        if trace:
            first, _ = run_worker(root, work, "traced", ["--time-untraced-cycle"])
            second, _ = run_worker(root, work, "traced", [])
            attempted += first["attempted"] + second["attempted"]
            messages += first["failures"] + second["failures"]
            for name in EXACT:
                attempted += 1
                a, b = first["layers"][name][0], second["layers"][name][0]
                if a != b:
                    messages.append(f"{name} differs between traced runs: {a} vs {b}")
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"trace-{workload}-seed{seed}.json").write_text(
                json.dumps({"table": first["trace_table"], "spans": first["spans"]}), encoding="utf-8"
            )
            layers.update((name, tuple(v)) for name, v in first["layers"].items())
            layers["trace.overhead_ratio"] = (
                first["traced_cycle_s"] / first["untraced_cycle_s"], "ratio"
            )
            layers["setup.import_cli_s"] = (import_s, "s")
            layers["resources.load_s"] = (wordlists_s, "s")
            layers["input.records"] = (records, "count")
            layers["input.mean_chars_per_record"] = (chars / records, "chars")
            for stage in STAGES:
                layers[f"us_per_record.{stage}"] = details.get(f"us_per_record.{stage}", (0.0, "us/record"))
            for name in ("call_ms.p50", "call_ms.p90"):
                layers[name] = details.get(name, (0.0, "ms"))
            layers["call_ms.samples"] = details.get("call_ms.samples", (0, "count"))
            layers["host.slowdown"] = details["host.slowdown"]
            layers["units.timed"] = details["units.timed"]
            layers["failed_ratio"] = (len(messages) / attempted, "ratio")
        return {
            "workload": workload, "seed": seed, "attempted": attempted, "failed": len(messages),
            "messages": messages, "digest": digest, "end_to_end": summary, "details": details,
            "layers": layers,
        }
    finally:
        remove_work(work)


def remove_work(work: Path) -> None:
    """Delete a work directory, and its parent once no other run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):  # the parent is not empty
        work.parent.rmdir()


def _baseline_note(outcome: dict) -> str:
    """Whether the outputs match the bytes recorded in baseline.json."""
    path = HERE / "baseline.json"
    if not path.exists():
        return "no baseline recorded"
    digests = json.loads(path.read_text(encoding="utf-8"))["digests"].get(outcome["workload"], {})
    recorded = digests.get(str(outcome["seed"]))
    if recorded is None:
        return "seed not in baseline"
    return "same bytes as baseline" if recorded == outcome["digest"] else "DIFFERS from baseline"


def _print_summary(outcome: dict, trace: bool) -> None:
    print(f"workload {outcome['workload']}  seed {outcome['seed']}")
    rows = {**outcome["end_to_end"], **outcome["details"]}
    if trace:
        rows.update(sorted(outcome["layers"].items()))
    for name, (value, unit) in rows.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  outputs sha256 {outcome['digest']} ({_baseline_note(outcome)})")
    for message in outcome["messages"]:
        print(f"  FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/draftkit/cli.py", "tests/oracles.py", "tests/synth.py") if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    use_checkout(root)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        outcome = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        _print_summary(outcome, bool(args.trace))
        metrics = outcome["layers"] if args.trace else outcome["end_to_end"]
        results[name] = {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
