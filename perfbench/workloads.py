"""The three workloads: their inputs, their CLI calls and the checks on
every call's output.

A workload is a cycle of *units*.  A unit is the closed-loop sequence of
CLI calls that turns one batch of input records into its outputs:

- ``build``: the README's corpus-building pipeline over one raw-text
  batch, every stage at ``--jobs 1``.
- ``eval``: one dev split of about 50 pairs through ``eval run --lm``,
  then ``lm ppl`` over its hypotheses, both at ``--jobs 2``.
- ``crowd-qc``: ``quality score-workers`` over a batch of worker
  submissions, then ``quality filter-pairs`` over a batch of crowdsourced
  pairs, both at ``--jobs 2``.

Each workload has several batches so that one run times many units and
can report a median.  CLI arguments name files relative to the work
directory, which is the current directory while the calls run, so that
reports which echo a path hold the same bytes in every checkout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

NAMES = ("build", "eval", "crowd-qc")

# Input sizes.  On a quiet 2-CPU host a unit takes about half a second
# (build, crowd-qc) or a tenth of one (eval), so a run of 25 s times
# 30 to 200 units and reports their median.
BUILD_BATCHES = 6
BUILD_RECORDS = 50  # clean sentences per batch, plus about 10% junk lines
EVAL_SPLITS = 20
EVAL_LM_SENTENCES = 150
CROWD_BATCHES = 6
CROWD_SUBMISSIONS = 25
CROWD_PAIRS = 25

JOBS_PARALLEL = "2"


@dataclass
class Call:
    stage: str  # subcommand name, as used in the us_per_record.* metrics
    argv: list[str]
    records: int
    check: Callable[[], list[str]]
    outputs: list[Path]


@dataclass
class Unit:
    name: str
    records: int
    calls: list[Call]


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _expect(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def generate(root: Path, work: Path, workload: str, seed: int) -> dict:
    """Write the workload's inputs into ``work``; return its spec."""
    rng = random.Random(f"{workload}:{seed}")
    spec: dict = {"workload": workload, "seed": seed}
    if workload == "build":
        corpus = gen.academic_corpus(BUILD_BATCHES * BUILD_RECORDS)
        spec["batches"] = [
            gen.build_inputs(root, work, rng, corpus[b::BUILD_BATCHES], f"raw_{b}.txt")
            for b in range(BUILD_BATCHES)
        ]
    elif workload == "eval":
        spec.update(gen.eval_inputs(root, work, rng, EVAL_SPLITS, EVAL_LM_SENTENCES))
    elif workload == "crowd-qc":
        spec["batches"] = [
            gen.crowd_inputs(root, work, rng, CROWD_SUBMISSIONS, CROWD_PAIRS, f"_{b}")
            for b in range(CROWD_BATCHES)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def input_chars(work: Path, spec: dict) -> tuple[int, int]:
    """(input records, their total characters) over one cycle."""
    workload = spec["workload"]
    records = chars = 0
    if workload == "build":
        for b in range(len(spec["batches"])):
            lines = read_lines(work / f"raw_{b}.txt")
            records += len(lines)
            chars += sum(len(line) for line in lines)
    elif workload == "eval":
        for k in range(len(spec["split_sizes"])):
            for side in ("src", "hyp", "ref"):
                lines = read_lines(work / f"split_{k}.{side}.txt")
                chars += sum(len(line) for line in lines)
            records += len(lines)
    else:
        for b in range(len(spec["batches"])):
            subs = read_lines(work / f"submissions_{b}.jsonl")
            pairs = read_lines(work / f"crowd_pairs_{b}.tsv")
            records += len(subs) + len(pairs)
            chars += sum(sum(len(a) for a in json.loads(s)["answers"]) for s in subs)
            chars += sum(len(p) for p in pairs)
    return records, chars


def units(work: Path, spec: dict) -> list[Unit]:
    make = {"build": _build_unit, "eval": _eval_unit, "crowd-qc": _crowd_unit}[spec["workload"]]
    batches = spec["batches"] if "batches" in spec else spec["split_sizes"]
    return [make(work, spec, b, batch) for b, batch in enumerate(batches)]


def _build_unit(work: Path, spec: dict, b: int, batch: dict) -> Unit:
    clean = batch["clean"]
    n_raw, n = batch["raw_lines"], len(clean)
    raw, cleaned, model, pairs = f"raw_{b}.txt", f"clean_{b}.txt", f"model_{b}.arpa", f"pairs_{b}.tsv"
    kept, removed, stats, terms = f"kept_{b}.tsv", f"removed_{b}.tsv", f"stats_{b}.json", f"terms_{b}.tsv"
    jobs = ["--jobs", "1"]

    def check_extract() -> list[str]:
        return _expect(read_lines(work / cleaned) == clean, f"{cleaned}: not exactly the clean lines of {raw}")

    def check_train() -> list[str]:
        text = (work / model).read_text(encoding="utf-8")
        ok = text.startswith("\\data\\") and text.rstrip().endswith("\\end\\")
        return _expect(ok, f"{model}: malformed ARPA file")

    def check_noise() -> list[str]:
        rows = [line.split("\t") for line in read_lines(work / pairs)]
        ok = len(rows) == n and all(len(r) == 2 for r in rows) and [r[1] for r in rows] == clean
        return _expect(ok, f"{pairs}: not one pair per clean line with that line as reference")

    def check_filter() -> list[str]:
        k, r = read_lines(work / kept), read_lines(work / removed)
        ok = len(k) + len(r) == n and all(len(line.split("\t")) == 3 for line in r)
        return _expect(ok, f"{kept}: kept {len(k)} + removed {len(r)} != {n} input pairs")

    def check_stats() -> list[str]:
        report = json.loads((work / stats).read_text(encoding="utf-8"))
        ok = report.get("pair_count") == n and "draft_profile" in report
        return _expect(ok, f"{stats}: pair_count {report.get('pair_count')} != {n} input lines")

    def check_terms() -> list[str]:
        lines = read_lines(work / terms)
        ok = lines[:1] == ["term\tdraft_per10k\tref_per10k\tlog_ratio"] and 1 < len(lines) <= 41
        return _expect(ok, f"{terms}: malformed")

    return Unit(f"batch_{b}", n_raw, [
        Call("corpus_extract", ["corpus", "extract", "--profile", "training", "--input", raw,
             "--out", cleaned, *jobs], n_raw, check_extract, [work / cleaned]),
        Call("lm_train", ["lm", "train", "--order", "5", "--input", cleaned, "--out", model, *jobs],
             n, check_train, [work / model]),
        # Each batch draws its own noise streams; with one seed for all,
        # record i of every batch would be noised alike.
        Call("noise_run", ["noise", "run", "--input", cleaned, "--out", pairs,
             "--seed", str(spec["seed"] * BUILD_BATCHES + b), *jobs], n, check_noise, [work / pairs]),
        Call("quality_filter_pairs", ["quality", "filter-pairs", "--input", pairs, "--kept", kept,
             "--removed", removed, *jobs], n, check_filter, [work / kept, work / removed]),
        Call("stats_dataset", ["stats", "dataset", "--input", pairs, "--lm", model,
             "--report", stats, *jobs], n, check_stats, [work / stats]),
        Call("analysis_terms", ["analysis", "terms", "--input", pairs, "--out", terms, *jobs],
             n, check_terms, [work / terms]),
    ])


def _eval_unit(work: Path, spec: dict, k: int, size: int) -> Unit:
    src, hyp, ref = (f"split_{k}.{side}.txt" for side in ("src", "hyp", "ref"))
    report, ppl = f"eval_{k}.json", f"ppl_{k}.json"

    def check_eval() -> list[str]:
        payload = json.loads((work / report).read_text(encoding="utf-8"))
        ok = len(payload["pairs"]) == size and payload["aggregates"]["skipped_ppl"] == 0
        return _expect(ok, f"{report}: expected {size} scored pairs with perplexities")

    def check_ppl() -> list[str]:
        payload = json.loads((work / ppl).read_text(encoding="utf-8"))
        ok = payload["sentence_count"] == size and payload["corpus_ppl"] > 0
        return _expect(ok, f"{ppl}: expected {size} scored sentences")

    return Unit(f"split_{k}", size, [
        Call("eval_run", ["eval", "run", "--src", src, "--hyp", hyp, "--ref", ref, "--lm", "eval.arpa",
             "--report", report, "--jobs", JOBS_PARALLEL], size, check_eval, [work / report]),
        Call("lm_ppl", ["lm", "ppl", "--model", "eval.arpa", "--input", hyp, "--report", ppl,
             "--jobs", JOBS_PARALLEL], size, check_ppl, [work / ppl]),
    ])


def _crowd_unit(work: Path, spec: dict, b: int, batch: dict) -> Unit:
    worker_ids, n_pairs = batch["worker_ids"], batch["pairs"]
    subs, pairs = f"submissions_{b}.jsonl", f"crowd_pairs_{b}.tsv"
    verdicts, kept, removed = f"verdicts_{b}.jsonl", f"crowd_kept_{b}.tsv", f"crowd_removed_{b}.tsv"

    def check_verdicts() -> list[str]:
        ids = [json.loads(line)["worker_id"] for line in read_lines(work / verdicts)]
        return _expect(ids == worker_ids, f"{verdicts}: not one verdict per submission, in order")

    def check_filter() -> list[str]:
        k, r = len(read_lines(work / kept)), len(read_lines(work / removed))
        ok = k + r == n_pairs and k > 0 and r > 0
        return _expect(ok, f"{kept}: kept {k} + removed {r} != {n_pairs} input pairs")

    return Unit(f"batch_{b}", len(worker_ids) + n_pairs, [
        Call("quality_score_workers", ["quality", "score-workers", "--input", subs, "--out", verdicts,
             "--jobs", JOBS_PARALLEL], len(worker_ids), check_verdicts, [work / verdicts]),
        Call("quality_filter_pairs", ["quality", "filter-pairs", "--input", pairs, "--kept", kept,
             "--removed", removed, "--jobs", JOBS_PARALLEL], n_pairs, check_filter,
             [work / kept, work / removed]),
    ])


def prepare(work: Path, spec: dict, dispatch) -> list[str]:
    """Untimed set-up calls that make derived inputs (the eval model)."""
    if spec["workload"] != "eval":
        return []
    argv = ["lm", "train", "--order", "3", "--input", str(work / "lm_corpus.txt"),
            "--out", str(work / "eval.arpa")]
    return [] if dispatch(argv) == 0 else ["lm train for the eval model failed"]
