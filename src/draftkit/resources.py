"""The word lists bundled with the package, and the one checked reader of
each list format, which also reads the ``--stopwords`` and
``--vocab-counts`` files.  Both readers skip blank lines and lines whose
first non-blank character is ``#``.  The loaders cache their result;
treat the returned containers as read-only.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .corpus import MASK_TOKEN, RecordError, iter_checked_lines, tokenize

_DATA = Path(__file__).with_name("data")


def read_words(path: Path | str) -> frozenset[str]:
    """One lowercase entry per line, without its surrounding whitespace.
    Both consumers compare lowercased tokens of :func:`tokenize`, so an
    entry that is not one such token could never match and is a data
    error."""
    words = set()
    for line_no, line in iter_checked_lines(path):
        word = line.strip()
        if word[:1] in ("", "#"):
            continue
        if tokenize(word) != [word]:
            raise RecordError(path, line_no, f"not a single token: {word!r}")
        if word == MASK_TOKEN:
            raise RecordError(path, line_no, "the mask token cannot also be a stopword")
        if word != word.lower():
            raise RecordError(path, line_no, f"not lowercase: {word!r}")
        words.add(word)
    return frozenset(words)


def read_counts(path: Path | str) -> dict[str, int]:
    """``token<TAB>count`` rows, as the counts by token.  A token is one
    token of :func:`tokenize`, never the mask token, and appears once; a
    count is a non-negative integer."""
    counts: dict[str, int] = {}
    first_line: dict[str, int] = {}
    for line_no, line in iter_checked_lines(path):
        if line.lstrip()[:1] in ("", "#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise RecordError(path, line_no, f"expected token<TAB>count, got {len(fields)} fields")
        token, text = fields
        # A replacement is spliced into a draft as one token.
        if tokenize(token) != [token]:
            raise RecordError(path, line_no, f"not a single token: {token!r}")
        if token == MASK_TOKEN:
            raise RecordError(path, line_no, "the mask token cannot also be a replacement")
        try:
            count = int(text)
        except ValueError as err:
            raise RecordError(path, line_no, f"bad count: {text!r}") from err
        if count < 0:
            raise RecordError(path, line_no, f"negative count: {text!r}")
        if token in first_line:
            raise RecordError(
                path, line_no, f"repeated token {token!r}, first on line {first_line[token]}"
            )
        first_line[token] = line_no
        counts[token] = count
    return counts


@lru_cache(maxsize=None)
def load_stopwords() -> frozenset[str]:
    """Lowercase English stopwords, used by repetition and overlap checks."""
    return read_words(_DATA / "stopwords.txt")


@lru_cache(maxsize=None)
def load_wordlist() -> dict[str, int]:
    """Frequency dictionary mapping lowercase token to count: the word
    list of spell check and the English check, and the default of
    ``--vocab-counts``."""
    return read_counts(_DATA / "wordlist.tsv")


@lru_cache(maxsize=None)
def load_participles() -> frozenset[str]:
    """Irregular past participles that the -ed/-en suffix rule misses."""
    return read_words(_DATA / "irregular_participles.txt")
