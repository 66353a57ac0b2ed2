"""The library is what a subcommand reaches, and a config record's knobs are
what its subcommand's flags set.

Every public function and method that a ``src/draftkit`` module defines
must be called by some command line, or be named in ``ALLOWED`` with the
reason it stays.  The command lines below cover the nine subcommands and
the flags that reach code of their own.  They run in-process under
``sys.setprofile``, which sees every Python function call, and a public
function whose code never ran fails the check.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path
from types import CodeType

import pytest

import draftkit
from draftkit import cli
from draftkit.corpus import CorpusFilterConfig
from draftkit.noising import NoiseConfig
from synth import academic_sentences

#: Public names that no subcommand calls, each with the caller it stays for.
ALLOWED = {
    "metrics.levenshtein_char": (
        "the single-pair distance: test_03 sweeps it exhaustively and"
        " perfbench's oracle checks call it"
    ),
    "quality.spell_check": "perfbench's spell-check oracle check calls it",
    "lm.NGramModel.logprob": (
        "one event's log probability: the normalisation tests sum it, and"
        " test_equals_sum_of_event_logprobs pins its sum to sentence_logprob"
    ),
}

# Passive sentences (a regular and an irregular participle) and typos,
# so the detectors and the spell check run.
EXTRA_SENTENCES = [
    "The model was trained on the data .",
    "The results were written by hand .",
    "We propose a simpel model for the coupus .",
]

ANSWERS = [
    "We propose a simple model for the task .",
    "The results show a clear gain over the <*> baseline .",
    "This method is easy to train on small data ?",
]


def public_code() -> dict[str, CodeType]:
    """The code of each public function of each package module, and of each
    public method, class method or property of its public classes, by
    ``module.name`` or ``module.Class.name``.  A cached function counts
    by the function it wraps."""
    found = {}
    for info in pkgutil.iter_modules(draftkit.__path__):
        module = importlib.import_module(f"draftkit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(member)
                if inspect.isfunction(member):
                    found[".".join(filter(None, (info.name, name, attr)))] = member.__code__
    return found


def command_lines(tmp: Path) -> tuple[list[list[str]], list[list[str]]]:
    """Command lines covering every subcommand, both smoothings, models
    loaded from the sidecar and from the ARPA text, and the flags that
    reach code of their own: those that write the models and the pair
    file, then those that read them."""
    texts = [s.text for s in academic_sentences(30, seed=1)] + EXTRA_SENTENCES
    (tmp / "sentences.txt").write_text("\n".join(texts) + "\n", encoding="utf-8")
    (tmp / "exclude.txt").write_text(texts[0] + "\n", encoding="utf-8")
    (tmp / "counts.tsv").write_text("model\t5\nmethod\t3\n", encoding="utf-8")
    (tmp / "stopwords.txt").write_text("the\na\nof\n", encoding="utf-8")
    (tmp / "config.txt").write_text("order = 2\n", encoding="utf-8")
    far = ["Nothing here resembles the answer at all, not even slightly ."] * 3
    subs = [{"worker_id": f"w{i}", "answers": ANSWERS, "seconds": 300, "mt_references": refs}
            for i, refs in enumerate([far, [ANSWERS[0], *far[1:]]])]
    (tmp / "subs.jsonl").write_text("".join(json.dumps(s) + "\n" for s in subs), encoding="utf-8")
    s, t = str(tmp / "sentences.txt"), str(tmp)
    pairs, kn, addk = f"{t}/pairs.tsv", f"{t}/kn.arpa", f"{t}/addk.arpa"
    build = [
        ["corpus", "extract", "--input", s, "--out", f"{t}/final.txt"],
        ["corpus", "extract", "--input", s, "--out", f"{t}/train.txt", "--profile", "training",
         "--exclude", f"{t}/exclude.txt"],
        ["lm", "train", "--input", s, "--out", kn, "--order", "3"],
        ["lm", "train", "--input", s, "--out", addk, "--smoothing", "add-k",
         "--config", f"{t}/config.txt"],
        ["lm", "train", "--input", s, "--out", addk, "--dump-config"],
        ["noise", "run", "--input", s, "--out", pairs],
        ["noise", "run", "--input", s, "--out", f"{t}/weighted.tsv", "--replace-p", "0.5",
         "--vocab-counts", f"{t}/counts.tsv", "--weighted-vocab", "--replace-vocab-min-count", "0"],
    ]
    use = [
        ["lm", "ppl", "--model", kn, "--input", s, "--report", f"{t}/ppl.json"],
        ["lm", "ppl", "--model", addk, "--input", s, "--report", f"{t}/ppl-parsed.json"],
        ["quality", "score-workers", "--input", f"{t}/subs.jsonl", "--out", f"{t}/verdicts.jsonl"],
        ["quality", "filter-pairs", "--input", pairs, "--kept", f"{t}/kept.tsv",
         "--removed", f"{t}/removed.tsv"],
        ["quality", "filter-pairs", "--input", pairs, "--kept", f"{t}/kept2.tsv",
         "--removed", f"{t}/removed2.tsv", "--stopwords", f"{t}/stopwords.txt"],
        ["eval", "run", "--src", s, "--hyp", s, "--ref", s, "--lm", kn,
         "--report", f"{t}/eval.json", "--spellcheck-hyp"],
        ["stats", "dataset", "--input", pairs, "--lm", addk, "--report", f"{t}/stats.json"],
        ["analysis", "terms", "--input", pairs, "--out", f"{t}/terms.tsv"],
    ]
    return build, use


def reached_code(tmp: Path, monkeypatch) -> set[CodeType]:
    """The code objects called while every command line runs, the first
    through ``main`` as the console script would run it.  The add-k
    model's sidecar is deleted before the models are read, so that its
    loads parse the ARPA text."""
    # A cached loader's body runs only on its first call in a process.
    for obj in vars(importlib.import_module("draftkit.resources")).values():
        getattr(obj, "cache_clear", lambda: None)()
    build, use = command_lines(tmp)
    called: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        monkeypatch.setattr(sys, "argv", ["draftkit", *build[0]])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        codes = [exc.value.code, *map(cli.dispatch, build[1:])]
        (tmp / "addk.arpa.compiled").unlink()
        codes += map(cli.dispatch, use)
    finally:
        sys.setprofile(previous)
    assert codes == [0] * (len(build) + len(use))
    return called


def test_every_public_function_is_reached_or_allowed(tmp_path, monkeypatch):
    public = public_code()
    reached = reached_code(tmp_path, monkeypatch)
    unreached = {name for name, code in public.items() if code not in reached}
    assert sorted(unreached - ALLOWED.keys()) == [], "called by no subcommand"
    # An entry that is reached or gone no longer needs its place.
    assert sorted(ALLOWED.keys() - unreached) == [], "allowed but reached or gone"


#: Fields of a subcommand's config record that no flag named after them
#: declares, by the flag that sets each instead.
SET_BY = {
    ("corpus extract", "excluded"): "--exclude",  # the sentences of a file, normalized
    ("noise run", "seed"): "--seed",  # the flag every subcommand takes
}


@pytest.mark.parametrize(
    "leaf, record", [("corpus extract", CorpusFilterConfig), ("noise run", NoiseConfig)]
)
def test_every_config_field_is_set_by_a_flag(tmp_path, monkeypatch, leaf, record):
    """Each field of the record is set by the flag named after it, typed and
    defaulted as the record's default, or by the flag ``SET_BY`` names;
    changing every such flag changes the record the subcommand builds."""
    flags = cli._shared_tree()[1][leaf]._option_string_actions
    argv, expected = [], {}
    for name, default in record()._asdict().items():
        flag = SET_BY.get((leaf, name), f"--{name.replace('_', '-')}")
        action = flags.get(flag)
        assert action is not None, f"no flag of {leaf} sets {record.__name__}.{name}"
        if action.dest == name:
            assert (action.type, action.default) == (type(default), default)
            value = default + 1 if isinstance(default, int) else default / 2
            argv += [flag, str(value)]
            expected[name] = value
    assert {field for where, field in SET_BY if where == leaf} <= set(record._fields)
    built = []
    monkeypatch.setattr(
        cli, record.__name__, lambda **fields: built.append(record(**fields)) or built[-1]
    )
    texts = [s.text for s in academic_sentences(10, seed=4)]
    (tmp_path / "s.txt").write_text("\n".join(texts) + "\n", encoding="utf-8")
    line = [*leaf.split(), "--input", str(tmp_path / "s.txt"), "--out", str(tmp_path / "o")]
    assert cli.dispatch([*line, *argv]) == 0
    assert [{name: getattr(cfg, name) for name in expected} for cfg in built] == [expected]
