"""Quality control for crowdsourced drafts.

Three layers, applied in pipeline order:

1. :func:`spell_check` repairs misspelled tokens against the bundled
   frequency list before any text is compared or filtered.
2. :func:`score_workers` turns each worker submission (three rewritten
   answers plus the machine translations shown alongside them) into a
   :class:`WorkerVerdict` with per-criterion score deltas and rejections.
   It takes every answer's distance to its translation in one
   lane-packed pass (:func:`~draftkit.metrics.levenshtein_pairs`).
3. :func:`filter_pairs` drops draft/reference pairs whose content-word
   overlap falls below a threshold after spell checking the draft.

Spell check matches a word against every dictionary entry at once with
the k-differences recurrences of Wu and Manber (CACM 1992): each entry
is one lane of a wide Python int, one bit per character plus a guard
bit, and each character of the word updates one such int per edit
distance up to two, so the entries within distance one and two fall out
of a single pass with no candidate to verify.  The packing is built on
first use and kept for the process.  A call also keeps each lowercased
out-of-dictionary type's correction, so :func:`filter_pairs` and
:func:`spell_check_all` look each type up once per call; drafts repeat
their misspellings.

Criterion identifiers are stable strings (``worker.time`` and friends) so
downstream reports can key on them.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import FilterConfig
from .corpus import (
    MASK_TOKEN, DraftPair, RecordError, Sentence, _Checked, nonblank_lines, tokenize,
)
from .resources import load_wordlist

#: Marker used in a verdict instead of a numeric delta.
REJECT = "reject"

CRITERION_SHORT = "worker.short_answer"
CRITERION_FEW_TYPES = "worker.few_types"
CRITERION_LD_CLOSE = "worker.ld_le_10"
CRITERION_LD_NEAR = "worker.ld_10_20"
CRITERION_LD_FAR = "worker.ld_20_30"
CRITERION_TERMINAL = "worker.terminal_punct"
CRITERION_MASK = "worker.mask_used"
CRITERION_ENGLISH = "worker.english"
CRITERION_TIME = "worker.time"
CRITERION_ALL_SHORT = "worker.all_short"
CRITERION_NO_TERMINAL = "worker.no_terminal"
CRITERION_IDENTICAL = "worker.identical_answers"
CRITERION_JAPANESE = "worker.japanese"
CRITERION_NOT_ENGLISH = "worker.not_english"

_MIN_WORDS = 4
_MIN_TYPES = 4
_MIN_SECONDS = 120
#: Share of a text's alphabetic tokens that must be dictionary words for
#: the text to count as English.
_ENGLISH_SHARE = 0.5

# Hiragana, katakana, and the unified CJK ideographs.
_JAPANESE_RANGES = ((0x3040, 0x309F), (0x30A0, 0x30FF), (0x4E00, 0x9FFF))
# One character class over those ranges.  It is compiled on first use, by
# the re module's cache: compiling it takes about 3 ms, which an import
# would add to the start of every command.
_JAPANESE = "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _JAPANESE_RANGES) + "]"

#: Largest edit distance at which spell check still proposes a correction.
_MAX_EDITS = 2


class SpellCheckResult(NamedTuple):
    """Corrected text plus the substitutions applied, in token order."""

    corrected_text: str
    corrections: tuple[tuple[str, str], ...]


def _bits(positions: list[int]) -> int:
    """The int whose set bits are ``positions`` (ascending), built in one
    pass: OR-ing each bit into a growing int would take quadratic time."""
    if not positions:
        return 0
    buf = bytearray(positions[-1] // 8 + 1)
    for pos in positions:
        buf[pos >> 3] |= 1 << (pos & 7)
    return int.from_bytes(buf, "little")


class _PackedWords:
    """The entries of a dictionary, none of them empty, as lanes of one
    wide int, matched against a word all at once.

    An entry of length m owns m lane bits, bit i standing for its prefix
    of length i + 1, and a guard bit above them that keeps a shift from
    carrying into the next lane.  ``masks[ch]`` has the lane bits where an
    entry has ``ch``; ``full`` has every lane bit, ``low`` the lowest of
    each lane and ``top`` the highest.  ``entries`` maps the position of a
    lane's top bit to its entry.  A mask reaches up to the last entry with
    its character, so the masks together take at most (distinct
    characters) x (lane bits) bits.
    """

    __slots__ = ("masks", "full", "low", "top", "start", "entries", "min_len", "max_len")

    def __init__(self, dictionary: Mapping[str, int]) -> None:
        positions: dict[str, list[int]] = {}
        self.entries: dict[int, str] = {}
        guards = []
        pos = 0
        for entry in dictionary:
            for ch in entry:
                positions.setdefault(ch, []).append(pos)
                pos += 1
            self.entries[pos - 1] = entry
            guards.append(pos)
            pos += 1
        self.masks = {ch: _bits(bits) for ch, bits in positions.items()}
        guard = _bits(guards)
        self.full = full = ((1 << pos) - 1) ^ guard
        self.low = low = (guard << 1 | 1) & full
        self.top = guard >> 1
        # Before any character of the word, a prefix of length i is
        # within distance d when i <= d: row d has the low d bits of a lane.
        rows = [0]
        for _ in range(_MAX_EDITS):
            rows.append((rows[-1] << 1 | low) & full)
        self.start = tuple(rows)
        self.min_len = min(map(len, dictionary))
        self.max_len = max(map(len, dictionary))

    def rows(self, word: str) -> list[int]:
        """``rows[d]`` has the top bit of each lane whose entry is within
        edit distance d of ``word``, for d up to ``_MAX_EDITS``.

        The anchored k-differences recurrences of Wu and Manber (CACM
        1992), one per distance, stepped over the characters of ``word``:
        after j characters, bit i of a lane is set in row d when the
        entry's prefix of length i + 1 is within distance d of the word's
        first j characters.  A lane's empty prefix is within distance d
        while j <= d; that bit lies below the lane, so it is injected at
        ``low``.
        """
        masks, full, low = self.masks, self.full, self.low
        rows = list(self.start)
        for j, ch in enumerate(word, 1):
            eq = masks.get(ch, 0)
            below_old = below = 0  # row -1: nothing is within distance -1
            for d, here in enumerate(rows):
                rows[d] = below = (
                    (here << 1 | (low if j <= d + 1 else 0)) & eq  # match
                    | below_old  # the word's character inserted
                    # substituted, or an entry character deleted
                    | ((below_old | below) << 1 | (low if j <= d else 0)) & full
                )
                below_old = here
        top = self.top
        return [row & top for row in rows]


@lru_cache(maxsize=None)
def _bundled_packed() -> _PackedWords:
    return _PackedWords(load_wordlist())


def _best_correction(word: str, dictionary: Mapping[str, int], packed: _PackedWords) -> str | None:
    """Nearest dictionary entry to ``word``, which is not one: smallest
    edit distance up to two, then highest frequency, then lexicographic
    order."""
    # A word this much longer or shorter than every entry is out of reach;
    # rejecting it here also keeps a very long token from being stepped.
    if not packed.min_len - _MAX_EDITS <= len(word) <= packed.max_len + _MAX_EDITS:
        return None
    rows = packed.rows(word)
    for distance in range(1, _MAX_EDITS + 1):
        # No entry is nearer, so the row holds those at this distance.
        lanes = rows[distance]
        near = []
        while lanes:
            bit = lanes & -lanes
            near.append(packed.entries[bit.bit_length() - 1])
            lanes ^= bit
        if near:
            return min(near, key=lambda entry: (-dictionary[entry], entry))
    return None


class _Speller:
    """Spell check against the bundled word list, looking each
    out-of-dictionary type up once: each lowercased type's correction (or
    ``None``) is kept for the speller's life."""

    __slots__ = ("dictionary", "found")

    def __init__(self) -> None:
        self.dictionary = load_wordlist()
        self.found: dict[str, str | None] = {}

    def correct(self, tokens: Iterable[str]) -> list[str]:
        """The tokens with each correction applied.  Every bundled entry is
        one alphanumeric token, title-cased or not, so the list is what
        :func:`~draftkit.corpus.tokenize` gives for its join."""
        dictionary = self.dictionary
        corrected = []
        for token in tokens:
            if token.isalpha() and not token.isupper():
                lowered = token.lower()
                if lowered not in dictionary:
                    try:
                        found = self.found[lowered]
                    except KeyError:
                        found = _best_correction(lowered, dictionary, _bundled_packed())
                        self.found[lowered] = found
                    if found is not None:
                        token = found.capitalize() if token.istitle() else found
            corrected.append(token)
        return corrected


def spell_check(s: Sentence) -> SpellCheckResult:
    """Correct the tokens of ``s`` that are not in the bundled word list.

    Only purely alphabetic tokens are eligible; numbers, punctuation, the
    mask token, and all-uppercase tokens (acronyms) pass through.  Title
    case is restored on the replacement.  The token count never changes.

    The word list (835 entries) is packed once per process, in about
    1.5 ms, on the first out-of-dictionary token.
    """
    corrected = _Speller().correct(s.tokens)
    corrections = tuple((old, new) for old, new in zip(s.tokens, corrected) if old != new)
    return SpellCheckResult(" ".join(corrected), corrections)


def spell_check_all(sentences: Iterable[Sentence]) -> list[Sentence]:
    """Each sentence spell-checked against the bundled word list.

    For a sentence made by ``Sentence.from_text`` this is
    ``Sentence.from_text(spell_check(s).corrected_text)``.  The whole call
    looks each out-of-dictionary type up once.
    """
    speller = _Speller()
    return [Sentence.from_tokens(speller.correct(s.tokens)) for s in sentences]


def contains_japanese(text: str) -> bool:
    return re.search(_JAPANESE, text) is not None


def _mostly_listed(text: str) -> bool:
    """At least ``_ENGLISH_SHARE`` of the alphabetic tokens of ``text``
    appear in the bundled word list; a text counts as English when this
    holds and it has no Japanese script."""
    alphabetic = [t for t in tokenize(text) if t.isalpha()]
    if not alphabetic:
        return False
    dictionary = load_wordlist()
    hits = sum(t.lower() in dictionary for t in alphabetic)
    return hits / len(alphabetic) >= _ENGLISH_SHARE


def _content_tokens(tokens: Iterable[str], cfg: FilterConfig) -> set[str]:
    return {t.lower() for t in tokens} - cfg.stopwords - {MASK_TOKEN}


def _overlap(x: Iterable[str], y: Iterable[str], cfg: FilterConfig) -> float | None:
    """Fraction of the smaller content-token set shared with the other.

    Content tokens are lowercased types minus stopwords and the mask
    token.  None when either side has none, since the ratio has no
    meaningful value there.
    """
    ux = _content_tokens(x, cfg)
    uy = _content_tokens(y, cfg)
    if not ux or not uy:
        return None
    return len(ux & uy) / min(len(ux), len(uy))


def filter_pairs(
    pairs: Iterable[DraftPair], cfg: FilterConfig | None = None
) -> tuple[list[DraftPair], list[tuple[DraftPair, str]]]:
    """Partition pairs by content overlap between draft and reference.

    The draft is spell checked first so that typos do not mask genuine
    overlap; the reference is trusted as written.  Pairs whose overlap is
    undefined or strictly below ``cfg.alpha`` land in the removed list
    with a human-readable reason.

    The call looks each out-of-dictionary type up once and takes the
    overlap on the corrected tokens.
    """
    cfg = FilterConfig() if cfg is None else cfg
    speller = _Speller()
    kept: list[DraftPair] = []
    removed: list[tuple[DraftPair, str]] = []
    for pair in pairs:
        score = _overlap(speller.correct(pair.draft.tokens), pair.reference.tokens, cfg)
        if score is None:
            removed.append((pair, "overlap with reference undefined (no content tokens)"))
        elif score < cfg.alpha:
            removed.append((pair, f"overlap {score:.4f} below alpha {cfg.alpha}"))
        else:
            kept.append(pair)
    return kept, removed


class _WorkerSubmission(NamedTuple):
    worker_id: str
    answers: tuple[str, str, str]
    seconds_worked: int
    mt_references: tuple[str, str, str]


class WorkerSubmission(_Checked, _WorkerSubmission):
    """One crowdworker's task: three answers with the machine translations
    that were displayed next to the inputs, each any sequence and stored as
    a tuple."""

    __slots__ = ()

    def _checked(self) -> tuple:
        answers, mt_references = tuple(self.answers), tuple(self.mt_references)
        if len(answers) != 3:
            raise ValueError(f"expected 3 answers, got {len(answers)}")
        if len(mt_references) != 3:
            raise ValueError(f"expected 3 machine references, got {len(mt_references)}")
        if self.seconds_worked < 0:
            raise ValueError(f"seconds_worked must be nonnegative, got {self.seconds_worked}")
        return self.worker_id, answers, self.seconds_worked, mt_references


class WorkerVerdict(NamedTuple):
    """Score, accept decision, and every criterion that fired.

    ``triggered`` pairs a criterion identifier with either a numeric score
    delta or the string :data:`REJECT`.  A submission is accepted exactly
    when nothing rejected it and the total score is nonnegative.
    """

    score: float
    accepted: bool
    triggered: tuple[tuple[str, float | str], ...]

    def to_json_dict(self) -> dict:
        return {
            "score": self.score,
            "accepted": self.accepted,
            "triggered": [[cid, delta] for cid, delta in self.triggered],
        }


def score_workers(subs: Sequence[WorkerSubmission]) -> list[WorkerVerdict]:
    """Apply every scoring and rejection criterion to each submission.

    Deltas come first in ``triggered`` (length and type penalties, the
    per-answer distance bands in answer order, then the bonuses), followed
    by rejections.  The score is always the sum of the numeric deltas,
    even when a rejection makes it moot.  The distances of every answer
    to its machine translation are taken in one
    :func:`~draftkit.metrics.levenshtein_pairs` pass.
    """
    from .metrics import levenshtein_pairs  # here, so that filter-pairs never loads metrics

    distances = levenshtein_pairs(
        pair for sub in subs for pair in zip(sub.answers, sub.mt_references)
    )
    return [_verdict(sub, distances[3 * i : 3 * i + 3]) for i, sub in enumerate(subs)]


def _verdict(sub: WorkerSubmission, distances: Sequence[int]) -> WorkerVerdict:
    triggered: list[tuple[str, float | str]] = []
    words = [answer.split() for answer in sub.answers]

    if any(len(w) < _MIN_WORDS for w in words):
        triggered.append((CRITERION_SHORT, -2.0))
    if any(len({t.lower() for t in w}) < _MIN_TYPES for w in words):
        triggered.append((CRITERION_FEW_TYPES, -2.0))

    # Answers too close to the displayed machine translation were likely
    # copied rather than rewritten; the bands grade how close.
    for distance in distances:
        if distance <= 10:
            triggered.append((CRITERION_LD_CLOSE, REJECT))
        elif distance < 20:
            triggered.append((CRITERION_LD_NEAR, -1.5))
        elif distance <= 30:
            triggered.append((CRITERION_LD_FAR, -0.5))

    terminal = [answer.rstrip().endswith((".", "?")) for answer in sub.answers]
    if all(terminal):
        triggered.append((CRITERION_TERMINAL, 1.0))
    if any(MASK_TOKEN in answer for answer in sub.answers):
        triggered.append((CRITERION_MASK, 1.0))
    japanese = [contains_japanese(answer) for answer in sub.answers]
    english = [not j and _mostly_listed(a) for j, a in zip(japanese, sub.answers)]
    if all(english):
        triggered.append((CRITERION_ENGLISH, 1.0))

    if sub.seconds_worked < _MIN_SECONDS:
        triggered.append((CRITERION_TIME, REJECT))
    if all(len(w) < _MIN_WORDS for w in words):
        triggered.append((CRITERION_ALL_SHORT, REJECT))
    if not any(terminal):
        triggered.append((CRITERION_NO_TERMINAL, REJECT))
    if len({" ".join(w) for w in words}) < len(sub.answers):
        triggered.append((CRITERION_IDENTICAL, REJECT))
    if any(japanese):
        triggered.append((CRITERION_JAPANESE, REJECT))
    if not any(english):
        triggered.append((CRITERION_NOT_ENGLISH, REJECT))

    score = sum(delta for _, delta in triggered if not isinstance(delta, str))
    rejected = any(delta == REJECT for _, delta in triggered)
    return WorkerVerdict(score=float(score), accepted=not rejected and score >= 0, triggered=tuple(triggered))


def _texts(record: dict, key: str) -> tuple[str, ...]:
    value = record[key]
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"{key} must be an array of strings")
    return tuple(value)


def load_submissions(path: Path | str) -> list[WorkerSubmission]:
    """Read worker submissions from a JSONL file.

    Each line holds an object with ``worker_id``, ``answers`` (three
    strings), ``seconds`` (an integer), and ``mt_references`` (three
    strings).  Malformed lines raise :class:`draftkit.corpus.RecordError`.
    """
    submissions = []
    for line_no, line in nonblank_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise RecordError(path, line_no, f"invalid JSON: {err}") from err
        if not isinstance(record, dict):
            raise RecordError(path, line_no, "expected a JSON object per line")
        try:
            answers = _texts(record, "answers")
            references = _texts(record, "mt_references")
            seconds = record["seconds"]
            # bool is a subclass of int, but true is not a duration.
            if not isinstance(seconds, int) or isinstance(seconds, bool):
                raise ValueError(f"seconds must be an integer, got {seconds!r}")
            worker_id = record["worker_id"]
            if not isinstance(worker_id, str):
                raise ValueError(f"worker_id must be a string, got {worker_id!r}")
            submission = WorkerSubmission(
                worker_id=worker_id,
                answers=answers,
                seconds_worked=seconds,
                mt_references=references,
            )
        except (KeyError, TypeError, ValueError) as err:
            raise RecordError(path, line_no, f"bad submission record: {err}") from err
        submissions.append(submission)
    return submissions
