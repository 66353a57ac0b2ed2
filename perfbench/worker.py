"""Runs one workload's CLI calls in-process and writes what it measured.

Started by ``run.py`` in a fresh interpreter, so that its peak resident
memory is the workload's own.  Every call goes through
``draftkit.cli.dispatch``; one call is issued after the previous one
returns (a closed loop with one client).

Modes:

- ``timed``: one warm-up cycle, then whole units until ``--seconds`` of
  wall time have passed.  Nothing is traced.
- ``traced``: one warm-up cycle, optionally one untraced cycle to time,
  then one traced cycle.  A fixed amount of work, so its counts repeat.

Each call's exit code and outputs are checked between calls, outside the
timed region, and each unit's output digest is compared with the one from
its first run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing.process
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_TRACE_SPOOL"):
    # A spawned pool worker re-imports this script: trace it as well.
    sys.path.insert(0, os.environ["PERFBENCH_SRC"])
    from tracer import Tracer

    Tracer(Path(os.environ["PERFBENCH_TRACE_SPOOL"]), in_worker=True).install()


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Runner:
    def __init__(self, units, dispatch_module) -> None:
        self.units = units
        self.cli = dispatch_module
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.samples: list[dict] = []
        self.calibrations: list[tuple[float, float]] = []
        self.after_call = None

    def run_unit(self, unit, *, timed: bool) -> float:
        """Run one unit; return its wall time.  A timed unit is recorded
        with its calls' times, and the host-speed calibration is run
        right before and after it (see hostspeed.py)."""
        spent = 0.0
        if timed:
            self.calibrations.append((perf_counter(), hostspeed.calibrate()))
        started = perf_counter()
        calls = []
        for call in unit.calls:
            self.attempted += 1
            start = perf_counter()
            try:
                code = self.cli.dispatch(call.argv)
            except Exception as exc:  # a crash is a failed call, not a failed benchmark
                code = f"by raising {exc!r}"
            elapsed = perf_counter() - start
            spent += elapsed
            if self.after_call is not None:
                self.after_call()
            if code != 0:
                self.failures.append(f"{' '.join(call.argv[:2])} exited {code}")
                continue
            problems = call.check()
            self.failures.extend(problems)
            if not problems:
                calls.append((call.stage, call.records, elapsed))
        digest = _digest([p for call in unit.calls for p in call.outputs])
        first = self.digests.setdefault(unit.name, digest)
        if first != digest:
            self.failures.append(f"{unit.name}: outputs differ from its first run")
        if timed:
            ended = perf_counter()
            self.calibrations.append((ended, hostspeed.calibrate()))
            ok = len(calls) == len(unit.calls)
            self.samples.append({"t": (started + ended) / 2, "records": unit.records,
                                 "s": spent, "ok": ok, "calls": calls})
        return spent

    def cycle(self, *, timed: bool = False) -> float:
        return sum(self.run_unit(unit, timed=timed) for unit in self.units)

    def run_for(self, seconds: float) -> None:
        start = perf_counter()
        done = 0
        while done < len(self.units) or perf_counter() - start < seconds:
            self.run_unit(self.units[done % len(self.units)], timed=True)
            done += 1

    def combined_digest(self) -> str:
        return hashlib.sha256(
            "".join(self.digests[u.name] for u in self.units).encode()
        ).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--time-untraced-cycle", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    src = str(args.root / "src")
    sys.path.insert(0, src)
    import workloads
    from draftkit import cli

    args.work = args.work.resolve()
    spec = json.loads((args.work / "spec.json").read_text(encoding="utf-8"))
    os.chdir(args.work)
    runner = Runner(workloads.units(args.work, spec), cli)
    result: dict = {}
    runner.cycle()  # warm-up: caches fill, lazy loads finish
    if args.mode == "timed":
        runner.run_for(args.seconds)
        result.update(samples=runner.samples, calibrations=runner.calibrations)
    else:
        if args.time_untraced_cycle:
            result["untraced_cycle_s"] = runner.cycle()
        from tracer import SPOOL_ENV, Tracer

        spool = args.work / "spool"
        spool.mkdir(exist_ok=True)
        os.environ[SPOOL_ENV] = str(spool)
        os.environ["PERFBENCH_SRC"] = src
        tracer = Tracer(spool)
        tracer.install()
        started = [0]
        real_start = multiprocessing.process.BaseProcess.start

        def counting_start(self, *a, **kw):
            started[0] += 1
            return real_start(self, *a, **kw)

        multiprocessing.process.BaseProcess.start = counting_start
        pool_calls = {"worker_processes": 0, "untraced_worker_calls": 0}

        def after_call() -> None:
            reported = tracer.collect()
            if started[0]:
                pool_calls["worker_processes"] += started[0]
                if not reported:
                    pool_calls["untraced_worker_calls"] += 1
            started[0] = 0

        runner.after_call = after_call
        result["traced_cycle_s"] = runner.cycle()
        result["layers"] = layer_metrics(tracer, args.work)
        result["layers"].update({f"trace.{k}": (v, "count") for k, v in pool_calls.items()})
        result["trace_table"] = tracer.table()
        result["spans"] = tracer.spans
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        digest=runner.combined_digest(),
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")


def layer_metrics(t, work: Path) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced cycle: name -> (value, unit)."""
    lev = "metrics.levenshtein_char"
    cells = t.counts["levenshtein_char.cells"]
    oov_tokens = t.counts["oov_tokens"]
    spell_lev = t.counts["spell_check.levenshtein_calls"]  # made while spell_check runs
    counts = {
        "cli.invocations": t.calls("cli.dispatch"),
        "corpus.tokenize.calls": t.calls("corpus.tokenize"),
        "lm.logprob.calls": t.calls("lm.NGramModel.logprob"),
        "noising.noise_sentence.calls": t.calls("noising.noise_sentence"),
        "quality.spell_check.calls": t.calls("quality.spell_check"),
        "quality.oov_tokens": oov_tokens,
        "quality.oov_types": len(t.oov_types),
        "quality.corrections": t.counts["corrections"],
        "quality.levenshtein.calls": spell_lev,
        "quality.filter_pairs.kept": t.counts["filter_pairs.kept"],
        "quality.filter_pairs.removed": t.counts["filter_pairs.removed"],
        "metrics.levenshtein_char.calls": t.calls(lev),
        "metrics.extract_edits.calls": t.calls("metrics.extract_edits"),
    }
    seconds = {
        "cli.self_s": t.self_seconds(layer="cli"),
        "corpus.tokenize.s": t.seconds("corpus.tokenize"),
        "corpus.load_pairs.s": t.seconds("corpus.load_pairs"),
        "corpus.write_pairs.s": t.seconds("corpus.write_pairs"),
        "corpus.filter.s": t.seconds(
            "corpus.passes_final_filter", "corpus.passes_training_filter",
            "corpus.filter_final_sentences", "corpus.filter_training_sentences",
        ),
        "lm.train.s": t.seconds("lm.train"),
        "lm.save_arpa.s": t.seconds("lm.save_arpa"),
        "lm.load_arpa.s": t.seconds("lm.load_arpa"),
        "lm.sentence.s": t.seconds(
            "lm.NGramModel.sentence_logprob", "lm.NGramModel.perplexity",
            "lm.sentence_logprob", "lm.perplexity",
        ),
        "noising.noise_sentence.s": t.seconds("noising.noise_sentence"),
        "quality.spell_check.s": t.seconds("quality.spell_check"),
        "quality.score_worker.s": t.seconds("quality.score_worker"),
        "metrics.levenshtein_char.s": t.seconds(lev),
        "metrics.extract_edits.s": t.seconds("metrics.extract_edits"),
        "metrics.bleu.s": t.seconds("metrics.bleu"),
        "metrics.rouge_l.s": t.seconds("metrics.rouge_l"),
        "metrics.evaluate.self_s": t.self_seconds(callee="metrics.evaluate"),
        "analysis.dataset_stats.s": t.seconds("analysis.dataset_stats"),
        "analysis.linguistic_profile.s": t.seconds("analysis.linguistic_profile"),
        "analysis.characteristic_terms.s": t.seconds("analysis.characteristic_terms"),
    }
    return {
        **{name: (value, "count") for name, value in counts.items()},
        **{name: (value, "s") for name, value in seconds.items()},
        "lm.arpa_bytes": (sum(p.stat().st_size for p in work.glob("*.arpa")), "bytes"),
        "quality.oov_type_share": (len(t.oov_types) / oov_tokens if oov_tokens else 0.0, "ratio"),
        "quality.levenshtein.per_oov": (spell_lev / oov_tokens if oov_tokens else 0.0, "ratio"),
        "metrics.levenshtein_char.cells": (cells, "cells"),
        "metrics.levenshtein_char.ns_per_cell": (seconds["metrics.levenshtein_char.s"] * 1e9 / cells if cells else 0.0, "ns/cell"),
    }


if __name__ == "__main__":
    main()
