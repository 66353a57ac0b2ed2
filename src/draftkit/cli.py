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
from .config import SMOOTHINGS, FilterConfig, NoiseConfig, TermsConfig, TrainConfig
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
from .resources import load_wordlist, read_counts, read_words

SCHEMA_VERSION = 1


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


def _record(record: type, args: argparse.Namespace, **fields: object) -> tuple:
    # A leaf's config record: each field as given here, or else parsed from
    # the flag named after it.
    given = {**vars(args), **fields}
    return record(**{name: given[name] for name in record._fields})


# --------------------------------------------------------------------------
# subcommand handlers; dispatch knows their files from the parser, and a
# handler returns any file it writes beside those its flags name.  Each
# imports the library code it runs when it first runs it, so that a command
# loads only the modules it uses.


def _cmd_corpus_extract(args) -> None:
    excluded: list[str] = []
    if args.exclude is not None:
        if args.profile != "training":
            raise ValueError("--exclude applies only to --profile training")
        excluded = [t for _, t in nonblank_lines(args.exclude)]
    cfg = _record(CorpusFilterConfig, args, excluded=excluded)
    keep = passes_final_filter if args.profile == "final" else passes_training_filter
    sentences = (Sentence.from_text(text) for _, text in iter_checked_lines(args.input))
    _write_lines(args.out, (s.text for s in sentences if keep(s, cfg)))


def _cmd_lm_train(args) -> list[Path]:
    from .lm import save_arpa, sidecar_path, train

    cfg = _record(TrainConfig, args)
    lines = nonblank_lines(args.input, "no non-blank lines to train on")
    model = train([Sentence.from_text(text) for _, text in lines], cfg)
    save_arpa(model, args.out)
    return [sidecar_path(args.out)]


def _cmd_lm_ppl(args) -> None:
    from .lm import load_arpa

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
    from .noising import ReplacementVocab, noise_corpus

    cfg = _record(NoiseConfig, args)
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
    from .quality import load_submissions, score_workers

    subs = load_submissions(args.input)
    _write_lines(
        args.out,
        (
            json.dumps({"worker_id": sub.worker_id, **verdict.to_json_dict()}, sort_keys=True)
            for sub, verdict in zip(subs, score_workers(subs))
        ),
    )


def _cmd_quality_filter_pairs(args) -> None:
    from .quality import filter_pairs

    stopwords = None if args.stopwords is None else read_words(args.stopwords)
    cfg = _record(FilterConfig, args, stopwords=stopwords)
    kept, removed = filter_pairs(load_pairs(args.input), cfg)
    # Both outputs are opened before either is written, so a path that
    # cannot be written leaves the other output as it was.
    with atomic_writer(args.kept) as kept_out, atomic_writer(args.removed) as removed_out:
        kept_out.writelines(map(pair_line, kept))
        removed_out.writelines(pair_line(p, reason) for p, reason in removed)


def _cmd_eval_run(args) -> None:
    from .metrics import evaluate

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
        from .quality import spell_check_all

        hypotheses = spell_check_all(hypotheses)
    model = None
    if args.lm is not None:
        from .lm import load_arpa

        model = load_arpa(args.lm)
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
    from .analysis import dataset_stats, linguistic_profile

    pairs = _some_pairs(args.input)
    stats = dataset_stats(pairs)
    payload = {"schema_version": SCHEMA_VERSION, **stats._asdict()}
    if args.lm is not None:
        from .lm import load_arpa

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
    from .analysis import characteristic_terms

    cfg = _record(TermsConfig, args)
    terms = characteristic_terms(_some_pairs(args.input), cfg)
    lines = ["term\tdraft_per10k\tref_per10k\tlog_ratio"]
    lines.extend(
        f"{t.term}\t{t.draft_freq!r}\t{t.reference_freq!r}\t{t.log_ratio!r}" for t in terms
    )
    _write_lines(args.out, lines)


# --------------------------------------------------------------------------
# parser assembly


def _record_flags(p: _Parser, record: type, **per_field: dict | None) -> None:
    # One flag per field of a config record, named after the field and typed
    # and defaulted by its default there.  per_field adds to a field's flag
    # keywords, or is None for a field that a flag declared elsewhere sets.
    for name, default in record._field_defaults.items():
        extra = per_field.get(name, {})
        if extra is not None:
            kwargs = {"type": type(default), "default": default, **extra}
            p.add_argument(f"--{name.replace('_', '-')}", **kwargs)


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
    _record_flags(p, CorpusFilterConfig, excluded=None)
    p.add_argument("--exclude", type=_input, default=None,
                   help="sentences that must not appear in training output")

    lm = group("lm", "n-gram language models")
    p = lm("train", _cmd_lm_train, "train a backoff model and save it as ARPA")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    _record_flags(p, TrainConfig, smoothing={"choices": sorted(SMOOTHINGS)},
                  k={"help": "additive constant for add-k smoothing"},
                  unk_floor={"type": float,
                             "help": "minimum unigram probability for the unknown token"})
    p = lm("ppl", _cmd_lm_ppl, "score a sentence-per-line file under a saved model")
    p.add_argument("--model", type=_input, required=True)
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--report", type=_output, required=True)

    noise = group("noise", "synthetic draft generation")
    p = noise("run", _cmd_noise_run, "noise a sentence-per-line file into a pair TSV")
    p.add_argument("--input", type=_input, required=True)
    p.add_argument("--out", type=_output, required=True)
    _record_flags(p, NoiseConfig, seed=None)
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
    _record_flags(p, FilterConfig, stopwords={
        "type": _input, "help": "replacement stopword list, one lowercase token per line"})

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
    _record_flags(p, TermsConfig)

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
        action = actions[key]
        if action.required:
            # argparse counts only the command line toward a required flag.
            flag = action.option_strings[0]
            raise RecordError(path, line_no, f"{key} is required on the command line ({flag})")
        if key in first_line:
            raise RecordError(
                path, line_no, f"repeated key {key!r}, first on line {first_line[key]}"
            )
        first_line[key] = line_no
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


_probe: argparse.ArgumentParser | None = None


def _config_file(leaf_argv: Sequence[str]) -> Path | None:
    # The --config of a leaf's command line, found before the leaf parses
    # it: argparse checks the required flags as it parses, and a file that
    # names one of them must fail at its line.  Help, and a --config with
    # no value, are left to the leaf's parse.  The probe parser is built on
    # the first call and reused, as the tree is.
    global _probe
    if _probe is None:
        _probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        _probe.add_argument("-h", "--help", action="store_true")
        _probe.add_argument("--config", type=Path)
    try:
        found = _probe.parse_known_args(leaf_argv)[0]
    except argparse.ArgumentError:
        return None
    return None if found.help else found.config


def _resolved_config(args: argparse.Namespace) -> dict[str, object]:
    resolved = {}
    for key, value in vars(args).items():
        if key in _CONFIG_SKIP:
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
        leaf = registry.get(" ".join(argv[:2])) if len(argv) > 1 else None
        if leaf is None:
            # Naming no leaf, this exits with help, the version or a usage error.
            parser.parse_args(argv)
        # The leaf parses its own flags (argv[0:2] name the group and command)
        # into the config file's values, if any; argparse fills in only the
        # defaults still missing, so explicitly passed flags win.
        config = _config_file(argv[2:])
        overrides = {} if config is None else _read_config(config, leaf)
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
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader of stdout is gone, as under "| head": exit quietly with
        # the code Python gives EPIPE, and send what is still buffered to
        # devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
