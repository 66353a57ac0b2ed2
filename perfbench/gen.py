"""Seeded input generators for the three benchmark workloads.

Standard library only, apart from the test suite's template corpus for
``build``.  Every generator takes a ``random.Random`` built
from the workload seed, so one seed always gives the same files.  The
sentences are drawn from the package's bundled frequency wordlist, read
straight from the source tree, so the spell checker's dictionary covers
every clean token and only deliberate typos are out of vocabulary.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

MASK = "<*>"


def load_vocab(root: Path) -> tuple[list[str], list[int]]:
    """Wordlist tokens and counts, in file order."""
    words, counts = [], []
    path = root / "src" / "draftkit" / "data" / "wordlist.tsv"
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        word, count = line.split("\t")
        words.append(word)
        counts.append(int(count))
    return words, counts


class SentenceSource:
    """Random sentences over the wordlist, weighted by word frequency."""

    def __init__(self, root: Path, rng: random.Random) -> None:
        self.rng = rng
        self.words, counts = load_vocab(root)
        # Flatten the head of the distribution so content words show up
        # often enough for the overlap filter to see shared tokens.
        self.weights = [c ** 0.5 for c in counts]

    def tokens(self, min_chars: int, max_chars: int) -> list[str]:
        out: list[str] = []
        length = -1
        target = self.rng.randint(min_chars, max_chars)
        while length < target - 2:
            word = self.rng.choices(self.words, self.weights)[0]
            out.append(word)
            length += len(word) + 1
        out[0] = out[0].capitalize()
        return out

    def sentence(self, min_chars: int = 60, max_chars: int = 100) -> str:
        return " ".join(self.tokens(min_chars, max_chars)) + " ."


def typo(word: str, rng: random.Random) -> str:
    """One or two random character edits: insert, delete, substitute, swap."""
    letters = string.ascii_lowercase
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(word))
        kind = rng.randrange(4)
        if kind == 0:
            word = word[:i] + rng.choice(letters) + word[i:]
        elif kind == 1 and len(word) > 3:
            word = word[:i] + word[i + 1 :]
        elif kind == 2:
            word = word[:i] + rng.choice(letters.replace(word[i].lower(), "")) + word[i + 1 :]
        elif i + 1 < len(word):
            word = word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    return word


def char_edits(text: str, n: int, rng: random.Random) -> str:
    """``text`` after ``n`` random single-character substitutions."""
    chars = list(text)
    for i in rng.sample(range(len(chars)), min(n, len(chars))):
        chars[i] = rng.choice(string.ascii_lowercase)
    return "".join(chars)


# --------------------------------------------------------------------------
# build: raw text for the corpus-building pipeline


def _junk_line(rng: random.Random) -> str:
    """A line the training-profile extract filter must drop."""
    kind = rng.randrange(3)
    if kind == 0:  # too few tokens
        return rng.choice(("Results .", "See above", "Table 3 :", "Thanks !"))
    if kind == 1:  # too many tokens
        return " ".join(rng.choice(("the", "model", "data", "and", "of")) for _ in range(40)) + " ."
    # enough tokens, but mostly digits and symbols
    return " ".join(str(rng.randrange(10_000)) for _ in range(8)) + " ; 3.14 , 2.71 ."


def build_inputs(root: Path, out: Path, rng: random.Random, clean: list[str], name: str) -> dict:
    """``<name>``: the clean lines mixed with lines the extract filter
    drops.  Returns the expected extract output."""
    raw: list[str] = []
    for text in clean:
        raw.append(text)
        if rng.random() < 0.1:
            raw.append(_junk_line(rng))
    (out / name).write_text("\n".join(raw) + "\n", encoding="utf-8")
    return {"raw_lines": len(raw), "clean": clean}


def academic_corpus(records: int) -> list[str]:
    """The ``academic_sentences(records, seed=3)`` template corpus of the
    test suite (``tests/synth.py``, which must be importable), the corpus
    the ROADMAP baseline figures were taken on."""
    from synth import academic_sentences

    return [s.text for s in academic_sentences(records, seed=3)]


# --------------------------------------------------------------------------
# eval: dev splits with a simulated system output, plus an LM corpus


def _draft(tokens: list[str], words: SentenceSource, rng: random.Random) -> list[str]:
    out: list[str] = []
    for token in tokens:
        roll = rng.random()
        if roll < 0.08:
            continue
        if roll < 0.16:
            out.append(words.rng.choices(words.words, words.weights)[0])
        elif roll < 0.22 and token.isalpha() and len(token) > 3:
            out.append(typo(token, rng))
        elif roll < 0.26:
            out.append(MASK)
        else:
            out.append(token)
    if rng.random() < 0.3 and len(out) > 3:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    return out or tokens[:1]


def _hypothesis(draft: list[str], ref: list[str], rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.3:
        return list(ref)
    unmasked = [t for t in draft if t != MASK] or ref[:1]
    if roll < 0.6:
        return unmasked
    # token-level mix: walk the reference, keep a draft token now and then
    return [d if rng.random() < 0.3 else r for d, r in zip(unmasked, ref)] + ref[len(unmasked) :]


def eval_inputs(
    root: Path, out: Path, rng: random.Random, splits: int, lm_sentences: int
) -> dict:
    """``split_<k>.{src,hyp,ref}.txt`` with 45..55 pairs each, and
    ``lm_corpus.txt`` for the model scored against them."""
    words = SentenceSource(root, rng)
    sizes = []
    for k in range(splits):
        src, hyp, ref = [], [], []
        for _ in range(rng.randint(45, 55)):
            r = words.tokens(60, 100) + ["."]
            d = _draft(r, words, rng)
            src.append(" ".join(d))
            hyp.append(" ".join(_hypothesis(d, r, rng)))
            ref.append(" ".join(r))
        for name, lines in (("src", src), ("hyp", hyp), ("ref", ref)):
            (out / f"split_{k}.{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        sizes.append(len(ref))
    corpus = [words.sentence() for _ in range(lm_sentences)]
    (out / "lm_corpus.txt").write_text("\n".join(corpus) + "\n", encoding="utf-8")
    return {"split_sizes": sizes}


# --------------------------------------------------------------------------
# crowd-qc: worker submissions and crowdsourced pairs


def _submission(index: int, words: SentenceSource, rng: random.Random) -> dict:
    answers, references = [], []
    for _ in range(3):
        answer = words.sentence(90, 110)
        if rng.random() < 0.15:
            answer = answer[:-2]  # no terminal punctuation
        # Distance to the displayed translation spans every scoring band.
        band = rng.choice((4, 15, 25, 45))
        reference = char_edits(answer, band, rng) if rng.random() < 0.8 else words.sentence(90, 110)
        answers.append(answer)
        references.append(reference)
    if rng.random() < 0.05:
        answers[1] = answers[0]
    return {
        "worker_id": f"w{index:05d}",
        "answers": answers,
        "seconds": rng.randint(60, 900),
        "mt_references": references,
    }


def _crowd_pair(words: SentenceSource, rng: random.Random, off_topic: bool) -> tuple[str, str]:
    """A reference and its draft with two typos; an off-topic draft is
    written against another sentence.  Fixed counts keep the spell-check
    work per batch steady from seed to seed."""
    ref = words.tokens(60, 100) + ["."]
    draft = words.tokens(60, 100) + ["."] if off_topic else list(ref)
    eligible = [i for i, t in enumerate(draft) if t.isalpha() and len(t) > 3]
    for i in rng.sample(eligible, min(2, len(eligible))):
        draft[i] = typo(draft[i], rng)
    return " ".join(draft), " ".join(ref)


def crowd_inputs(
    root: Path, out: Path, rng: random.Random, submissions: int, pairs: int, suffix: str
) -> dict:
    """``submissions<suffix>.jsonl`` and ``crowd_pairs<suffix>.tsv``."""
    words = SentenceSource(root, rng)
    subs = [_submission(i, words, rng) for i in range(submissions)]
    (out / f"submissions{suffix}.jsonl").write_text(
        "".join(json.dumps(s, sort_keys=True) + "\n" for s in subs), encoding="utf-8"
    )
    off_topic = set(rng.sample(range(pairs), pairs // 10))
    lines = ["\t".join(_crowd_pair(words, rng, i in off_topic)) for i in range(pairs)]
    (out / f"crowd_pairs{suffix}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"worker_ids": [s["worker_id"] for s in subs], "pairs": pairs}
