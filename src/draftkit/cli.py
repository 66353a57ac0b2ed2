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
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from . import DEFAULT_SEED, __version__
from .analysis import characteristic_terms, dataset_stats, linguistic_profile
from .corpus import (
    CorpusFilterConfig,
    RecordError,
    Sentence,
    atomic_writer,
    filter_final_sentences,
    filter_training_sentences,
    iter_checked_lines,
    load_pairs,
    tsv_field,
    write_pairs,
)
from .lm import SMOOTHINGS, load_arpa, save_arpa, train
from .metrics import evaluate
from .noising import NoiseConfig, ReplacementVocab, noise_corpus
from .quality import FilterConfig, filter_pairs, load_submissions, score_workers, spell_check_all
from .resources import read_counts, read_words

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
# flags by which of them it is (see _write_manifest).
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


# --------------------------------------------------------------------------
# subcommand handlers; dispatch knows their files from the parser


def _cmd_corpus_extract(args) -> None:
    excluded: frozenset[str] = frozenset()
    if args.exclude is not None:
        if args.profile != "training":
            raise ValueError("--exclude applies only to --profile training")
        excluded = frozenset(t for _, t in iter_checked_lines(args.exclude) if t.strip())
    cfg = CorpusFilterConfig(
        min_chars=args.min_chars,
        max_chars=args.max_chars,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        min_alpha_ratio=args.min_alpha_ratio,
        excluded=excluded,
    )
    keep = filter_final_sentences if args.profile == "final" else filter_training_sentences
    sentences = (
        Sentence.from_text(text) for _, text in iter_checked_lines(args.input)
    )
    _write_lines(args.out, (s.text for s in keep(sentences, cfg)))


def _cmd_lm_train(args) -> None:
    sentences = []
    line_no = 0
    for line_no, text in iter_checked_lines(args.input):
        if text.strip():
            sentences.append(Sentence.from_text(text))
    if not sentences:
        raise RecordError(args.input, line_no + 1, "no non-blank lines to train on")
    model = train(
        sentences,
        order=args.order,
        smoothing=args.smoothing,
        k=args.k,
        unk_floor=args.unk_floor,
    )
    save_arpa(model, args.out)


def _cmd_lm_ppl(args) -> None:
    model = load_arpa(args.model)
    rows = []
    logprob_total = 0.0
    event_total = 0
    line_no = 0
    for line_no, text in iter_checked_lines(args.input):
        if not text.strip():
            continue
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
    if not rows:
        raise RecordError(args.input, line_no + 1, "no non-blank lines to score")
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
    for line_no, text in iter_checked_lines(path):
        if text.strip():
            s = Sentence.from_text(text)
            if s.has_mask:
                raise RecordError(path, line_no, "reference sentence contains the mask token")
            yield s


def _cmd_noise_run(args) -> None:
    cfg = NoiseConfig(
        delete_p=args.delete_p,
        replace_p=args.replace_p,
        replace_vocab_min_count=args.replace_vocab_min_count,
        shuffle_k=args.shuffle_k,
        mask_fraction_max=args.mask_fraction_max,
        seed=args.seed,
    )
    vocab: ReplacementVocab | None = None
    # Checked here, so that no output is opened for a run that cannot replace.
    empty = f"no token has a count above --replace-vocab-min-count {cfg.replace_vocab_min_count}"
    if args.vocab_counts is not None:
        counts, n_lines = read_counts(args.vocab_counts)
        vocab = ReplacementVocab(
            counts, min_count=cfg.replace_vocab_min_count, weighted=args.weighted_vocab
        )
        if cfg.replace_p > 0 and not vocab:
            raise RecordError(args.vocab_counts, n_lines + 1, empty)
    elif cfg.replace_p > 0:
        vocab = ReplacementVocab.from_wordlist(
            min_count=cfg.replace_vocab_min_count, weighted=args.weighted_vocab
        )
        if not vocab:
            raise ValueError(f"{empty} in the bundled word list")
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
    write_pairs(args.kept, kept)
    _write_lines(
        args.removed,
        (
            f"{tsv_field(p.draft.text)}\t{tsv_field(p.reference.text)}\t{reason}"
            for p, reason in removed
        ),
    )


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


def _cmd_stats_dataset(args) -> None:
    pairs = load_pairs(args.input)
    if not pairs:
        raise RecordError(args.input, 1, "need at least one pair")
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
    pairs = load_pairs(args.input)
    if not pairs:
        raise RecordError(args.input, 1, "need at least one pair")
    terms = characteristic_terms(pairs, top_k=args.top_k, epsilon=args.epsilon)
    lines = ["term\tdraft_per10k\tref_per10k\tlog_ratio"]
    lines.extend(
        f"{t.term}\t{t.draft_freq!r}\t{t.reference_freq!r}\t{t.log_ratio!r}" for t in terms
    )
    _write_lines(args.out, lines)


# --------------------------------------------------------------------------
# parser assembly


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
    p.add_argument("--min-chars", type=int, default=_CORPUS_DEFAULTS.min_chars)
    p.add_argument("--max-chars", type=int, default=_CORPUS_DEFAULTS.max_chars)
    p.add_argument("--min-tokens", type=int, default=_CORPUS_DEFAULTS.min_tokens)
    p.add_argument("--max-tokens", type=int, default=_CORPUS_DEFAULTS.max_tokens)
    p.add_argument("--min-alpha-ratio", type=float, default=_CORPUS_DEFAULTS.min_alpha_ratio)
    p.add_argument("--exclude", type=_input, default=None,
                   help="sentences that must not appear in training output")

    lm = group("lm", "n-gram language models")
    p = lm("train", _cmd_lm_train, "train a backoff model and save it as ARPA")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--smoothing", choices=sorted(SMOOTHINGS), default="interpolated-kneser-ney")
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
    p.add_argument("--delete-p", type=float, default=_NOISE_DEFAULTS.delete_p)
    p.add_argument("--replace-p", type=float, default=_NOISE_DEFAULTS.replace_p)
    p.add_argument("--shuffle-k", type=int, default=_NOISE_DEFAULTS.shuffle_k)
    p.add_argument("--mask-fraction-max", type=float, default=_NOISE_DEFAULTS.mask_fraction_max)
    p.add_argument("--replace-vocab-min-count", type=int,
                   default=_NOISE_DEFAULTS.replace_vocab_min_count)
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


def _write_manifest(args: argparse.Namespace, leaf: _Parser, duration: float) -> None:
    # The leaf's path flags, in declaration order, are the run's files.
    paths: dict[Callable, list[str]] = {_input: [], _output: []}
    for action in leaf._actions:
        value = getattr(args, action.dest, None)
        if action.type in paths and value is not None:
            paths[action.type].append(str(value))
    outputs = paths[_output]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args._leaf,
        "config": _resolved_config(args),
        "inputs": paths[_input],
        "outputs": outputs,
        "seed": args.seed,
        "version": __version__,
        "duration_seconds": round(duration, 6),
    }
    _write_json(Path(f"{outputs[0]}.manifest.json"), manifest)


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
    if args.dump_config:
        print(json.dumps(_resolved_config(args), indent=2, sort_keys=True))
        return 0
    start = time.perf_counter()
    try:
        globals()[args._run](args)
    except (RecordError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_manifest(args, leaf, time.perf_counter() - start)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
