"""Quality control for crowdsourced drafts.

Three layers, applied in pipeline order:

1. :func:`spell_check` repairs misspelled tokens against a frequency
   dictionary before any text is compared or filtered.
2. :func:`score_worker` turns one worker submission (three rewritten
   answers plus the machine translations shown alongside them) into a
   :class:`WorkerVerdict` with per-criterion score deltas and rejections.
3. :func:`filter_pairs` drops draft/reference pairs whose content-word
   overlap falls below a threshold after spell checking the draft.

Spell check finds candidates with a symmetric-delete index (SymSpell,
Garbe 2012): every string made by deleting at most two characters of a
dictionary entry is a key, so an out-of-dictionary word looks up its own
deletes and gets every entry within distance two, plus the odd hash
collision, and each candidate is verified exactly.  The keys are the
crc32 of the delete packed with the entry id into one sorted
``array('q')``, searched with :mod:`bisect`.  The index is built on
first use; the bundled word list's is kept, any other dictionary's lives
for one call.  A call also keeps each lowercased out-of-dictionary type's
correction, so :func:`filter_pairs` and :func:`spell_check_all` look
each type up once per call and treat the dictionary as fixed while they
run; drafts repeat their misspellings.

Criterion identifiers are stable strings (``worker.time`` and friends) so
downstream reports can key on them.
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping
from zlib import crc32

from .corpus import MASK_TOKEN, DraftPair, RecordError, Sentence, iter_checked_lines, tokenize
from .metrics import levenshtein_char
from .resources import load_stopwords, load_wordlist

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


class UndefinedOverlapError(ValueError):
    """Raised when a sentence has no content tokens to compare."""


@dataclass(frozen=True, slots=True)
class SpellCheckResult:
    """Corrected text plus the substitutions applied, in token order."""

    corrected_text: str
    corrections: tuple[tuple[str, str], ...]


def _deletes(word: str) -> set[str]:
    """Every string made by deleting at most ``_MAX_EDITS`` characters of
    ``word``, ``word`` itself included."""
    found = frontier = {word}
    for _ in range(_MAX_EDITS):
        frontier = {w[:i] + w[i + 1 :] for w in frontier for i in range(len(w))}
        found = found | frontier
    return found


def _key(delete: str) -> int:
    return crc32(delete.encode("utf-8", "surrogatepass"))


class _DeleteIndex:
    """Symmetric-delete candidate index over the entries of a dictionary.

    Two strings within edit distance ``_MAX_EDITS`` share a string that
    each reaches by at most ``_MAX_EDITS`` deletes (delete a substituted
    character from both, an inserted one from the string that has it), so
    the entries sharing a delete with a word are a superset of those
    within reach.  Each entry id is packed below the crc32 of each of its
    deletes, in a field as wide as the entry count needs (a signed 64-bit
    key leaves room for 2**31 entries); a crc32 collision only adds a
    candidate, and the candidates of a word depend on nothing but the
    word and the dictionary.
    """

    __slots__ = ("entries", "keys", "shift", "min_len", "max_len")

    def __init__(self, dictionary: Mapping[str, int]) -> None:
        self.entries = list(dictionary)
        self.shift = len(self.entries).bit_length()
        # Sorting one sixteenth of the 32-bit crc range at a time keeps the
        # list of Python ints that sorting needs (32 bytes per key) small.
        parts = [array("q") for _ in range(16)]
        for entry_id, entry in enumerate(self.entries):
            for delete in _deletes(entry):
                key = _key(delete)
                parts[key >> 28].append(key << self.shift | entry_id)
        self.keys = array("q")
        for part in parts:
            self.keys.extend(sorted(part))
        self.min_len = min(map(len, self.entries))
        self.max_len = max(map(len, self.entries))

    def candidates(self, word: str) -> set[int]:
        """Ids of the entries that share a delete (or its crc32) with ``word``."""
        keys, shift = self.keys, self.shift
        mask = (1 << shift) - 1
        found = set()
        for delete in _deletes(word):
            key = _key(delete)
            i = bisect_left(keys, key << shift)
            while i < len(keys) and keys[i] >> shift == key:
                found.add(keys[i] & mask)
                i += 1
        return found


@lru_cache(maxsize=None)
def _bundled_index() -> _DeleteIndex:
    return _DeleteIndex(load_wordlist())


def _index_for(dictionary: Mapping[str, int]) -> _DeleteIndex:
    # The bundled word list is read-only, so its index is kept; a caller's
    # dictionary may change between calls and gets a fresh one.
    if dictionary is load_wordlist():
        return _bundled_index()
    return _DeleteIndex(dictionary)


def _best_correction(word: str, dictionary: Mapping[str, int], index: _DeleteIndex) -> str | None:
    """Nearest dictionary entry: smallest edit distance up to two, then
    highest frequency, then lexicographic order."""
    # A word this much longer or shorter than every entry is out of reach;
    # rejecting it here also keeps a very long token from generating its
    # quadratic number of deletes.
    if not index.min_len - _MAX_EDITS <= len(word) <= index.max_len + _MAX_EDITS:
        return None
    best = None
    for entry_id in index.candidates(word):
        entry = index.entries[entry_id]
        if abs(len(entry) - len(word)) > _MAX_EDITS:
            continue  # a crc32 collision
        distance = levenshtein_char(word, entry)
        if 0 < distance <= _MAX_EDITS:
            key = (distance, -dictionary[entry], entry)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


class _Speller:
    """Spell check against one dictionary, looking each out-of-dictionary
    type up once.

    The candidate index is built on the first out-of-dictionary token and
    each lowercased type's correction (or ``None``) is kept, so the
    dictionary is treated as fixed for the speller's life.
    """

    __slots__ = ("dictionary", "index", "found")

    def __init__(self, dictionary: Mapping[str, int] | None) -> None:
        self.dictionary = load_wordlist() if dictionary is None else dictionary
        self.index: _DeleteIndex | None = None
        self.found: dict[str, str | None] = {}

    def correct(self, tokens: Iterable[str]) -> tuple[list[str], bool]:
        """The tokens with each correction applied, and whether every
        replacement is alphanumeric.  When it is, the list is what
        :func:`~draftkit.corpus.tokenize` gives for its join, so it need
        not be tokenized again."""
        dictionary = self.dictionary
        if not dictionary:
            raise ValueError("spell check needs a non-empty dictionary")
        corrected = []
        normal = True
        for token in tokens:
            if token.isalpha() and not token.isupper() and token != MASK_TOKEN:
                lowered = token.lower()
                if lowered not in dictionary:
                    try:
                        found = self.found[lowered]
                    except KeyError:
                        if self.index is None:
                            self.index = _index_for(dictionary)
                        found = self.found[lowered] = _best_correction(lowered, dictionary, self.index)
                    if found is not None:
                        token = found.capitalize() if token.istitle() else found
                        normal = normal and token.isalnum()
            corrected.append(token)
        return corrected, normal


def spell_check(s: Sentence, dictionary: Mapping[str, int] | None = None) -> SpellCheckResult:
    """Correct out-of-dictionary tokens in ``s``.

    Only purely alphabetic tokens are eligible; numbers, punctuation, the
    mask token, and all-uppercase tokens (acronyms) pass through.  Title
    case is restored on the replacement.  The token count never changes.

    The candidate index of the bundled word list is built once per
    process.  Any other ``dictionary`` gets a fresh index on each call
    that meets an out-of-dictionary token, which at the bundled list's
    size (835 entries) costs about 40 ms.
    """
    corrected, _ = _Speller(dictionary).correct(s.tokens)
    corrections = tuple((old, new) for old, new in zip(s.tokens, corrected) if old != new)
    return SpellCheckResult(" ".join(corrected), corrections)


def spell_check_all(sentences: Iterable[Sentence]) -> list[Sentence]:
    """Each sentence spell-checked against the bundled word list.

    For a sentence made by ``Sentence.from_text`` this is
    ``Sentence.from_text(spell_check(s).corrected_text)``: every bundled
    entry is alphanumeric, so the corrected tokens are what tokenizing
    their join gives.  The whole call looks each out-of-dictionary type
    up once.
    """
    speller = _Speller(None)
    return [Sentence.from_tokens(speller.correct(s.tokens)[0]) for s in sentences]


def contains_japanese(text: str) -> bool:
    return re.search(_JAPANESE, text) is not None


def is_english(text: str, dictionary: Mapping[str, int] | None = None) -> bool:
    """Heuristic language check: no Japanese script, and at least
    ``_ENGLISH_SHARE`` of the alphabetic tokens appear in the dictionary."""
    if dictionary is None:
        dictionary = load_wordlist()
    if contains_japanese(text):
        return False
    alphabetic = [t for t in tokenize(text) if t.isalpha()]
    if not alphabetic:
        return False
    hits = sum(t.lower() in dictionary for t in alphabetic)
    return hits / len(alphabetic) >= _ENGLISH_SHARE


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for the overlap filter."""

    alpha: float = 0.4
    stopwords: frozenset[str] = field(default_factory=load_stopwords)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if MASK_TOKEN in self.stopwords:
            raise ValueError("the mask token cannot also be a stopword")


def _content_tokens(tokens: Iterable[str], cfg: FilterConfig) -> set[str]:
    return {t.lower() for t in tokens} - cfg.stopwords - {MASK_TOKEN}


def _overlap(x: Iterable[str], y: Iterable[str], cfg: FilterConfig) -> float:
    ux = _content_tokens(x, cfg)
    uy = _content_tokens(y, cfg)
    if not ux or not uy:
        raise UndefinedOverlapError("a sentence has no content tokens")
    return len(ux & uy) / min(len(ux), len(uy))


def overlap_coefficient(x: Sentence, y: Sentence, cfg: FilterConfig | None = None) -> float:
    """Fraction of the smaller content-token set shared with the other.

    Content tokens are lowercased types minus stopwords and the mask
    token.  Raises :class:`UndefinedOverlapError` when either side has
    none, since the ratio has no meaningful value there.
    """
    return _overlap(x.tokens, y.tokens, FilterConfig() if cfg is None else cfg)


def filter_pairs(
    pairs: Iterable[DraftPair],
    cfg: FilterConfig | None = None,
    dictionary: Mapping[str, int] | None = None,
) -> tuple[list[DraftPair], list[tuple[DraftPair, str]]]:
    """Partition pairs by content overlap between draft and reference.

    The draft is spell checked first so that typos do not mask genuine
    overlap; the reference is trusted as written.  Pairs whose overlap is
    undefined or strictly below ``cfg.alpha`` land in the removed list
    with a human-readable reason.

    The call shares one spell-check index and looks each
    out-of-dictionary type up once, so ``dictionary`` must not change
    during the call.  The overlap is taken on the corrected tokens; they
    are tokenized again only when a replacement is not alphanumeric,
    which only a caller's dictionary can cause.
    """
    cfg = FilterConfig() if cfg is None else cfg
    speller = _Speller(dictionary)
    kept: list[DraftPair] = []
    removed: list[tuple[DraftPair, str]] = []
    for pair in pairs:
        draft, normal = speller.correct(pair.draft.tokens)
        if not normal:
            draft = tokenize(" ".join(draft))
        try:
            score = _overlap(draft, pair.reference.tokens, cfg)
        except UndefinedOverlapError:
            removed.append((pair, "overlap with reference undefined (no content tokens)"))
            continue
        if score < cfg.alpha:
            removed.append((pair, f"overlap {score:.4f} below alpha {cfg.alpha}"))
        else:
            kept.append(pair)
    return kept, removed


@dataclass(frozen=True, slots=True)
class WorkerSubmission:
    """One crowdworker's task: three answers with the machine translations
    that were displayed next to the inputs."""

    worker_id: str
    answers: tuple[str, str, str]
    seconds_worked: int
    mt_references: tuple[str, str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", tuple(self.answers))
        object.__setattr__(self, "mt_references", tuple(self.mt_references))
        if len(self.answers) != 3:
            raise ValueError(f"expected 3 answers, got {len(self.answers)}")
        if len(self.mt_references) != 3:
            raise ValueError(f"expected 3 machine references, got {len(self.mt_references)}")
        if self.seconds_worked < 0:
            raise ValueError(f"seconds_worked must be nonnegative, got {self.seconds_worked}")


@dataclass(frozen=True, slots=True)
class WorkerVerdict:
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


def score_worker(
    sub: WorkerSubmission, dictionary: Mapping[str, int] | None = None
) -> WorkerVerdict:
    """Apply every scoring and rejection criterion to one submission.

    Deltas come first in ``triggered`` (length and type penalties, the
    per-answer distance bands in answer order, then the bonuses), followed
    by rejections.  The score is always the sum of the numeric deltas,
    even when a rejection makes it moot.
    """
    triggered: list[tuple[str, float | str]] = []
    words = [answer.split() for answer in sub.answers]

    if any(len(w) < _MIN_WORDS for w in words):
        triggered.append((CRITERION_SHORT, -2.0))
    if any(len({t.lower() for t in w}) < _MIN_TYPES for w in words):
        triggered.append((CRITERION_FEW_TYPES, -2.0))

    # Answers too close to the displayed machine translation were likely
    # copied rather than rewritten; the bands grade how close.
    for answer, reference in zip(sub.answers, sub.mt_references):
        distance = levenshtein_char(answer, reference)
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
    english = [is_english(answer, dictionary) for answer in sub.answers]
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
    if any(contains_japanese(answer) for answer in sub.answers):
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
    for line_no, line in iter_checked_lines(path):
        if not line.strip():
            continue
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
