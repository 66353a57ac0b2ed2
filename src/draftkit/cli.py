"""Command line entry point.

One binary, two-level subcommands, reproducible by construction: every
subcommand takes ``--seed`` (fixed default, never time-based), accepts a
``key = value`` config file that command line flags override, can print
its fully resolved configuration with ``--dump-config``, and writes a
run manifest next to its primary output.  Exit codes: 0 success, 1 usage
or validation error, 2 data error (the message names the offending file
and line where one exists).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from . import DEFAULT_SEED, __version__
from .analysis import characteristic_terms, dataset_stats, linguistic_profile
from .corpus import (
    CorpusFilterConfig,
    DraftPair,
    RecordError,
    Sentence,
    atomic_writer,
    iter_checked_lines,
    load_pairs,
    nonblank_lines,
    pair_line,
    passes_final_filter,
    passes_training_filter,
    write_pairs,
)
from .lm import KNESER_NEY, SMOOTHINGS, load_arpa, save_arpa, sidecar_path, train
from .metrics import evaluate
from .noising import NoiseConfig, ReplacementVocab, noise_corpus
from .quality import FilterConfig, filter_pairs, load_submissions, score_workers, spell_check_all
from .resources import load_wordlist, read_counts, read_words

SCHEMA_VERSION = 1

_NOISE_DEFAULTS = NoiseConfig()
_CORPUS_DEFAULTS = CorpusFilterConfig()


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this artifact
    reserves 2 for data errors, so usage errors exit 1 instead."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# Every path flag has one of these two as its type; the manifest lists the
# flags by which of them it is (see _run_files).
def _input(text: str) -> Path:
    return Path(text)


def _output(text: str) -> Path:
    return Path(text)


def _write_json(path: Path | str, payload: dict) -> None:
    with atomic_writer(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_lines(path: Path | str, lines: Iterable[str]) -> None:
    with atomic_writer(path) as handle:
        for line in lines:
            handle.write(line + "\n")


def _record_args(args: argparse.Namespace, defaults: tuple) -> dict[str, object]:
    # The parsed value of each field of the record that a flag sets.
    given = vars(args)
    return {name: given[name] for name in defaults._fields if name in given}


# --------------------------------------------------------------------------
# subcommand handlers; dispatch knows their files from the parser, and a
# handler returns any file it writes beside those its flags name


def _cmd_corpus_extract(args) -> None:
    excluded: frozenset[str] = frozenset()
    if args.exclude is not None:
        if args.profile != "training":
            raise ValueError("--exclude applies only to --profile training")
        excluded = frozenset(t for _, t in nonblank_lines(args.exclude))
    cfg = CorpusFilterConfig(**_record_args(args, _CORPUS_DEFAULTS), excluded=excluded)
    keep = passes_final_filter if args.profile == "final" else passes_training_filter
    sentences = (Sentence.from_text(text) for _, text in iter_checked_lines(args.input))
    _write_lines(args.out, (s.text for s in sentences if keep(s, cfg)))


def _cmd_lm_train(args) -> list[Path]:
    lines = nonblank_lines(args.input, "no non-blank lines to train on")
    model = train(
        [Sentence.from_text(text) for _, text in lines],
        order=args.order,
        smoothing=args.smoothing,
        k=args.k,
        unk_floor=args.unk_floor,
    )
    save_arpa(model, args.out)
    return [sidecar_path(args.out)]


def _cmd_lm_ppl(args) -> None:
    model = load_arpa(args.model)
    rows = []
    logprob_total = 0.0
    event_total = 0
    for line_no, text in nonblank_lines(args.input, "no non-blank lines to score"):
        s = Sentence.from_text(text)
        logprob = model.sentence_logprob(s.tokens)
        events = len(s.tokens) + 1
        rows.append(
            {
                "line": line_no,
                "tokens": len(s.tokens),
                "logprob10": logprob,
                "ppl": 10.0 ** (-logprob / events),
            }
        )
        logprob_total += logprob
        event_total += events
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": str(args.model),
        "sentence_count": len(rows),
        "corpus_ppl": 10.0 ** (-logprob_total / event_total),
        "sentences": rows,
    }
    _write_json(args.report, report)


def _references(path: Path) -> Iterator[Sentence]:
    # Lazy: a bad line raises inside write_pairs, whose atomic_writer then
    # removes the partial output.
    for line_no, text in nonblank_lines(path):
        s = Sentence.from_text(text)
        if s.has_mask:
            raise RecordError(path, line_no, "reference sentence contains the mask token")
        yield s


def _cmd_noise_run(args) -> None:
    cfg = NoiseConfig(**_record_args(args, _NOISE_DEFAULTS))
    counts = load_wordlist() if args.vocab_counts is None else read_counts(args.vocab_counts)
    vocab = ReplacementVocab(
        counts, min_count=cfg.replace_vocab_min_count, weighted=args.weighted_vocab
    )
    # Checked here, so that no output is opened for a run that cannot
    # replace.  The flag's value empties the vocabulary, whatever its source.
    if cfg.replace_p > 0 and not vocab:
        raise ValueError(
            f"no token has a count above --replace-vocab-min-count {cfg.replace_vocab_min_count}"
            f" in {args.vocab_counts or 'the bundled word list'}"
        )
    write_pairs(args.out, noise_corpus(_references(args.input), cfg, vocab))


def _cmd_quality_score_workers(args) -> None:
    subs = load_submissions(args.input)
    _write_lines(
        args.out,
        (
            json.dumps({"worker_id": sub.worker_id, **verdict.to_json_dict()}, sort_keys=True)
            for sub, verdict in zip(subs, score_workers(subs))
        ),
    )


def _cmd_quality_filter_pairs(args) -> None:
    pairs = load_pairs(args.input)
    if args.stopwords is not None:
        cfg = FilterConfig(alpha=args.alpha, stopwords=read_words(args.stopwords))
    else:
        cfg = FilterConfig(alpha=args.alpha)
    kept, removed = filter_pairs(pairs, cfg)
    # Both outputs are opened before either is written, so a path that
    # cannot be written leaves the other output as it was.
    with atomic_writer(args.kept) as kept_out, atomic_writer(args.removed) as removed_out:
        kept_out.writelines(map(pair_line, kept))
        removed_out.writelines(pair_line(p, reason) for p, reason in removed)


def _cmd_eval_run(args) -> None:
    paths = (args.src, args.hyp, args.ref)
    texts = [[text for _, text in iter_checked_lines(path)] for path in paths]
    shortest = min(map(len, texts))
    for path, lines in zip(paths, texts):
        if len(lines) != shortest:
            raise RecordError(path, shortest + 1, "line counts differ across src/hyp/ref")
    if not shortest:
        raise RecordError(args.src, 1, "no lines to evaluate")
    sources, hypotheses, references = ([Sentence.from_text(t) for t in lines] for lines in texts)
    if args.spellcheck_hyp:
        hypotheses = spell_check_all(hypotheses)
    model = None if args.lm is None else load_arpa(args.lm)
    report = evaluate(sources, hypotheses, references, lm=model)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spellcheck_hyp": args.spellcheck_hyp,
        "lm": str(args.lm) if args.lm is not None else None,
        **report.to_json_dict(),
    }
    _write_json(args.report, payload)


def _some_pairs(path: Path) -> list[DraftPair]:
    pairs = load_pairs(path)
    if not pairs:
        raise RecordError(path, 1, "need at least one pair")
    return pairs


def _cmd_stats_dataset(args) -> None:
    pairs = _some_pairs(args.input)
    stats = dataset_stats(pairs)
    payload = {"schema_version": SCHEMA_VERSION, **stats._asdict()}
    if args.lm is not None:
        model = load_arpa(args.lm)
        try:
            profile = linguistic_profile(pairs, model)
        except ValueError as err:
            # pairs is not empty, so only a side with no scoreable sentence gets here.
            raise RecordError(args.input, len(pairs) + 1, str(err)) from err
        payload["draft_profile"] = profile.draft._asdict()
        payload["reference_profile"] = profile.reference._asdict()
    _write_json(args.report, payload)


def _cmd_analysis_terms(args) -> None:
    pairs = _some_pairs(args.input)
    terms = characteristic_terms(pairs, top_k=args.top_k, epsilon=args.epsilon)
    lines = ["term\tdraft_per10k\tref_per10k\tlog_ratio"]
    lines.extend(
        f"{t.term}\t{t.draft_freq!r}\t{t.reference_freq!r}\t{t.log_ratio!r}" for t in terms
    )
    _write_lines(args.out, lines)


# --------------------------------------------------------------------------
# parser assembly


def _record_flags(p: _Parser, defaults: tuple) -> None:
    # One flag per field of a config record, named after the field and
    # typed and defaulted by its value there; --exclude and the common
    # --seed set the two fields left out.
    for name, default in zip(defaults._fields, defaults):
        if name not in ("excluded", "seed"):
            p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="global random seed (default %(default)s)"
    )
    common.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility (at least 1) and ignored; every run is in-process",
    )
    common.add_argument(
        "--config", type=Path, default=None, help="key = value file; explicit flags win"
    )
    common.add_argument(
        "--dump-config", action="store_true", help="print the resolved configuration and exit"
    )

    parser = _Parser(prog="draftkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"draftkit {__version__}")
    groups = parser.add_subparsers(dest="group", required=True, metavar="group")
    registry: dict[str, _Parser] = {}

    def group(group_name: str, help_text: str) -> Callable[[str, Callable, str], _Parser]:
        g = groups.add_parser(group_name, help=help_text)
        commands = g.add_subparsers(dest="command", required=True, metavar="command")

        def leaf(name: str, run: Callable, help_text: str) -> _Parser:
            sub = commands.add_parser(name, parents=[common], help=help_text)
            label = f"{group_name} {name}"
            # The handler is kept by name and looked up when a call runs, so
            # the shared tree never pins a function that was rebound on the module.
            sub.set_defaults(_run=run.__name__, _leaf=label)
            registry[label] = sub
            return sub

        return leaf

    corpus = group("corpus", "sentence selection and pair file utilities")
    p = corpus("extract", _cmd_corpus_extract, "filter a sentence-per-line file")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--profile", choices=("final", "training"), default="final",
                   help="final: char-length and character-class rules; training: token rules")
    _record_flags(p, _CORPUS_DEFAULTS)
    p.add_argument("--exclude", type=_input, default=None,
                   help="sentences that must not appear in training output")

    lm = group("lm", "n-gram language models")
    p = lm("train", _cmd_lm_train, "train a backoff model and save it as ARPA")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--smoothing", choices=sorted(SMOOTHINGS), default=KNESER_NEY)
    p.add_argument("--k", type=float, default=1.0, help="additive constant for add-k smoothing")
    p.add_argument("--unk-floor", type=float, default=None,
                   help="minimum unigram probability for the unknown token")
    p = lm("ppl", _cmd_lm_ppl, "score a sentence-per-line file under a saved model")
    p.add_argument("--model", type=_input, required=True)
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--report", type=_output, required=True)

    noise = group("noise", "synthetic draft generation")
    p = noise("run", _cmd_noise_run, "noise a sentence-per-line file into a pair TSV")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    _record_flags(p, _NOISE_DEFAULTS)
    p.add_argument("--vocab-counts", type=_input, default=None,
                   help="token<TAB>count file for the replacement vocabulary")
    p.add_argument("--weighted-vocab", action="store_true",
                   help="sample replacements proportionally to counts")

    quality = group("quality", "crowdwork scoring and pair filtering")
    p = quality("score-workers", _cmd_quality_score_workers,
                "emit one verdict JSON per submission")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    p = quality("filter-pairs", _cmd_quality_filter_pairs,
                "split a pair TSV by content overlap")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--kept", type=_output, required=True)
    p.add_argument("--removed", type=_output, required=True)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--stopwords", type=_input, default=None,
                   help="replacement stopword list, one lowercase token per line")

    evaluation = group("eval", "system output scoring")
    p = evaluation("run", _cmd_eval_run, "score hypotheses against references")
    p.add_argument("--src", type=_input, required=True)
    p.add_argument("--hyp", type=_input, required=True)
    p.add_argument("--ref", type=_input, required=True)
    p.add_argument("--lm", type=_input, default=None, help="ARPA model for perplexity columns")
    p.add_argument("--report", type=_output, required=True)
    p.add_argument("--spellcheck-hyp", action="store_true",
                   help="spell-check hypotheses before scoring")

    stats = group("stats", "dataset statistics")
    p = stats("dataset", _cmd_stats_dataset, "headline pair statistics as JSON")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--lm", type=_input, default=None,
                   help="add per-side linguistic profiles under this ARPA model")
    p.add_argument("--report", type=_output, required=True)

    analysis = group("analysis", "contrastive dataset analysis")
    p = analysis("terms", _cmd_analysis_terms, "characteristic terms per side as TSV")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--epsilon", type=float, default=1.0)

    return parser, registry


_CONFIG_SKIP = {"help", "config", "dump_config", "_run", "_leaf"}


def _read_config(path: Path, sub: _Parser) -> dict[str, object]:
    # argparse keeps the registered actions on the parser; their dest, type
    # and choices are exactly what a config file key needs.
    actions = {
        action.dest: action
        for action in sub._actions
        if action.dest not in _CONFIG_SKIP and action.dest != argparse.SUPPRESS
    }
    overrides: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for line_no, raw in iter_checked_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise RecordError(path, line_no, "expected key = value")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise RecordError(path, line_no, f"unknown configuration key {key!r}")
        if key in first_line:
            raise RecordError(
                path, line_no, f"repeated key {key!r}, first on line {first_line[key]}"
            )
        first_line[key] = line_no
        action = actions[key]
        parse = _parse_bool if isinstance(action.const, bool) else action.type or str
        try:
            value = parse(text.strip())
        except (TypeError, ValueError) as err:
            raise RecordError(path, line_no, f"bad value for {key}: {err}") from err
        # argparse checks only command line values against choices, never defaults.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            reason = f"bad value for {key}: {value!r} (choose from {choices})"
            raise RecordError(path, line_no, reason)
        overrides[key] = value
    return overrides


def _resolved_config(args: argparse.Namespace) -> dict[str, object]:
    resolved = {}
    for key, value in vars(args).items():
        if key in _CONFIG_SKIP or key in ("group", "command"):
            continue
        resolved[key] = str(value) if isinstance(value, Path) else value
    return dict(sorted(resolved.items()))


# (flag, path) of each path flag that is set, by its type (_input or _output).
_Files = dict[Callable, list[tuple[str, str]]]


def _run_files(args: argparse.Namespace, leaf: _Parser) -> _Files:
    # The leaf's path flags, in declaration order, are the run's files.
    files: _Files = {_input: [], _output: []}
    for action in leaf._actions:
        value = getattr(args, action.dest, None)
        if action.type in files and value is not None:
            files[action.type].append((action.option_strings[0], str(value)))
    return files


def _shared_output(outputs: Iterable[tuple[str, str]]) -> str | None:
    # Path arithmetic only, so no file is touched: two outputs on one file
    # would leave only the one renamed last.
    seen: dict[str, str] = {}
    for name, path in outputs:
        key = os.path.normpath(os.path.abspath(path))
        if key in seen:
            return f"{seen[key]} and {name} name the same file: {path}"
        seen[key] = name
    return None


def _long_manifest(flag: str, manifest: str) -> str | None:
    # A manifest that cannot be named would leave the outputs without one.
    try:
        limit = os.pathconf(os.path.dirname(manifest) or ".", "PC_NAME_MAX")
    except (AttributeError, OSError):  # no os.pathconf, or no such directory
        limit = 255
    size = len(os.fsencode(os.path.basename(manifest)))
    if 0 < limit < size:
        return f"{flag} is too long for its run manifest, a name of {size} bytes (limit {limit})"
    return None


def _write_manifest(
    args: argparse.Namespace, files: _Files, path: str, duration: float, written: Iterable[Path]
) -> None:
    # The outputs the handler wrote follow those its flags name.
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args._leaf,
        "config": _resolved_config(args),
        "inputs": [file for _, file in files[_input]],
        "outputs": [*(file for _, file in files[_output]), *map(str, written)],
        "seed": args.seed,
        "version": __version__,
        "duration_seconds": round(duration, 6),
    }
    _write_json(path, manifest)


_tree: tuple[_Parser, dict[str, _Parser]] | None = None


def _shared_tree() -> tuple[_Parser, dict[str, _Parser]]:
    # Built on the first call, not at import, and reused by every later
    # call in the process; nothing a call does may change it.
    global _tree
    if _tree is None:
        _tree = _build_parser()
    return _tree


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run one command line in-process and return its exit code.

    Any number of calls may share a process: each writes and prints what
    a fresh ``python -m draftkit.cli`` process would.
    """
    parser, registry = _shared_tree()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        leaf = registry[args._leaf]
        if args.config is not None:
            overrides = _read_config(args.config, leaf)
            # The leaf re-parses its own flags (argv[0:2] name the group and
            # command) into the file's values; argparse fills in only the
            # defaults still missing, so explicitly passed flags win.
            args = leaf.parse_args(argv[2:], argparse.Namespace(**overrides))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RecordError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 1
    files = _run_files(args, leaf)
    flag, first = files[_output][0]
    manifest = f"{first}.manifest.json"
    problem = _shared_output([*files[_output], ("the run manifest", manifest)])
    problem = problem or _long_manifest(flag, manifest)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    if args.dump_config:
        print(json.dumps(_resolved_config(args), indent=2, sort_keys=True))
        return 0
    start = time.perf_counter()
    try:
        # Outputs sit beside their own run's manifest or beside none: a run
        # killed after renaming an output must not leave an earlier run's.
        if os.path.isfile(manifest):
            os.remove(manifest)
        written = globals()[args._run](args) or ()
        _write_manifest(args, files, manifest, time.perf_counter() - start, written)
    except (RecordError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
