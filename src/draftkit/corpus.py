"""Sentence corpus handling: tokenization, filtering, and pair I/O.

Two filtering passes are exposed.  The *final* filter selects presentable
sentences by character length and rejects characters that rarely survive
copy-editing (formula symbols, Greek letters, URL fragments, citation
markers).  The *training* filter selects material for language models and
noising vocabularies by token count and alphabetic-character ratio, minus an
explicit exclusion set so evaluation sentences can be held out.

Draft/reference pairs travel as two-column TSV (``draft<TAB>reference``).
The literal token ``<*>`` marks a masked span in a draft and is never split
by the tokenizer.
"""

from __future__ import annotations

import itertools
import operator
import os
import re
import unicodedata
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Generator, Iterable, Iterator, NamedTuple, Sequence

MASK_TOKEN = "<*>"

#: Named character classes the final filter rejects.  Values are searched,
#: not matched, so any hit anywhere in the sentence disqualifies it.
CHARACTER_CLASSES: dict[str, re.Pattern[str]] = {
    "math": re.compile(
        r"[=+<>^_|~\\{}$"
        r"±²³¹×÷′″"
        r"←-⇿∀-⋿⟀-⟯⦀-⧿⨀-⫿]"
    ),
    "greek": re.compile(r"[Ͱ-Ͽἀ-῿]"),
    "url": re.compile(r"https?://|www\.|\S\.(?:com|org|net|edu|gov|io)\b"),
    "citation": re.compile(r"\[\d+(?:\s*[,;-]\s*\d+)*\]|\bet al\.|\(\s*\d{4}[a-z]?\s*\)"),
}


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Split on whitespace, then detach leading/trailing punctuation.

    Inner punctuation (hyphens, apostrophes, abbreviation periods) stays
    attached; ``<*>`` always comes through as a single token, as ``<``
    and ``>`` are not punctuation (category Sm).  The output is
    in normal form: joining with single spaces and re-tokenizing yields the
    same list.

    A chunk that starts and ends with a letter or digit is kept whole
    without looking up any character category: no code point is both
    ``str.isalnum`` and punctuation.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk[0].isalnum() and chunk[-1].isalnum():
            tokens.append(chunk)
            continue
        leading: list[str] = []
        trailing: list[str] = []
        while chunk and _is_punct(chunk[0]):
            leading.append(chunk[0])
            chunk = chunk[1:]
        while chunk and _is_punct(chunk[-1]):
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def normalize_sentence(text: str) -> str:
    """Lowercase and collapse whitespace runs; the exclusion-set key form."""
    return " ".join(text.lower().split())


class Sentence(NamedTuple):
    """A sentence with its token sequence and character length."""

    text: str
    tokens: tuple[str, ...]
    char_len: int

    @classmethod
    def from_text(cls, text: str) -> "Sentence":
        return cls(text=text, tokens=tuple(tokenize(text)), char_len=len(text))

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Sentence":
        text = " ".join(tokens)
        return cls(text=text, tokens=tuple(tokens), char_len=len(text))

    @property
    def has_mask(self) -> bool:
        return MASK_TOKEN in self.tokens


class _DraftPair(NamedTuple):
    draft: Sentence
    reference: Sentence
    has_mask: bool


class DraftPair(_DraftPair):
    """A rough draft aligned with its clean reference.

    References are the ground truth a revision system aims for, so a mask
    token in one is a data error and is rejected at construction time.
    ``has_mask`` is derived from the draft, not passed.
    """

    __slots__ = ()

    def __new__(cls, draft: Sentence, reference: Sentence) -> "DraftPair":
        if MASK_TOKEN in reference.tokens:
            raise ValueError("reference sentence contains the mask token")
        return super().__new__(cls, draft, reference, draft.has_mask)

    def __getnewargs__(self) -> tuple[Sentence, Sentence]:
        # pickle and copy rebuild through __new__, which derives has_mask.
        return self.draft, self.reference

    @classmethod
    def _make(cls, values: Iterable) -> "DraftPair":
        # _replace builds its copy here: check it and derive has_mask again.
        draft, reference, _ = values
        return cls(draft, reference)

    @classmethod
    def from_texts(cls, draft: str, reference: str) -> "DraftPair":
        return cls(Sentence.from_text(draft), Sentence.from_text(reference))


class _Checked:
    """Base of a record listed before the NamedTuple base that declares its
    fields and defaults.  Every construction, ``_replace`` and unpickling
    included, builds through that base and calls ``_checked``, which raises
    :class:`ValueError` or returns the fields as stored; the record is built
    again only if one of them is not the value given."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        stored = self._checked()
        if all(map(operator.is_, stored, self)):
            return self
        return super().__new__(cls, *stored)

    _make = classmethod(lambda cls, values: cls(*values))


class _CorpusFilterConfig(NamedTuple):
    min_chars: int = 70
    max_chars: int = 120
    min_tokens: int = 5
    max_tokens: int = 35
    min_alpha_ratio: float = 0.5
    excluded: frozenset[str] = frozenset()


class CorpusFilterConfig(_Checked, _CorpusFilterConfig):
    """Bounds for both filtering passes.  All bounds are inclusive.
    ``excluded`` may be any iterable of sentences; it is stored normalized."""

    __slots__ = ()

    def _checked(self) -> tuple:
        min_chars, max_chars, min_tokens, max_tokens, min_alpha_ratio, excluded = self
        if not 0 < min_chars <= max_chars:
            raise ValueError(f"need 0 < min_chars <= max_chars, got {min_chars}..{max_chars}")
        if not 0 < min_tokens <= max_tokens:
            raise ValueError(f"need 0 < min_tokens <= max_tokens, got {min_tokens}..{max_tokens}")
        if not 0.0 <= min_alpha_ratio <= 1.0:
            raise ValueError(f"min_alpha_ratio must be in [0, 1], got {min_alpha_ratio}")
        return *self[:-1], frozenset(normalize_sentence(s) for s in excluded)


def passes_final_filter(sentence: Sentence, cfg: CorpusFilterConfig) -> bool:
    if not cfg.min_chars <= sentence.char_len <= cfg.max_chars:
        return False
    return not any(pattern.search(sentence.text) for pattern in CHARACTER_CLASSES.values())


def passes_training_filter(sentence: Sentence, cfg: CorpusFilterConfig) -> bool:
    if not cfg.min_tokens <= len(sentence.tokens) <= cfg.max_tokens:
        return False
    if sentence.char_len == 0:
        return False
    alpha = sum(ch.isalpha() for ch in sentence.text)
    if alpha / sentence.char_len < cfg.min_alpha_ratio:
        return False
    return normalize_sentence(sentence.text) not in cfg.excluded


class RecordError(ValueError):
    """A malformed record in a line-oriented data file."""

    def __init__(self, path: Path | str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


#: Bytes :func:`iter_checked_lines` reads at a time.  Loading a 220 KB ARPA
#: model peaked at 1.27 MB traced with 16 KiB blocks, 1.36 with 32 and 1.41
#: with 64, against 1.32 when the whole file was decoded at once.
_BLOCK = 16 * 1024


def _decoded_lines(path: Path | str, data: bytes, line_no: int) -> Generator[list[str], None, int]:
    """Yield the whole lines in ``data``, from line ``line_no`` on, as one
    list, and return their number.  ``\\n`` never occurs inside a
    multi-byte UTF-8 sequence, so a bad byte fails for the same reason as
    it would in its line alone."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data.rfind(b"\n", 0, exc.start) + 1
        line_no += yield from _decoded_lines(path, data[:good], line_no)
        raise RecordError(path, line_no, f"not valid UTF-8 ({exc.reason})") from exc
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty tail after a final newline is not a line
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    if line_no == 1 and lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]  # a byte-order mark, not text (RFC 3629, section 6)
    yield lines
    return len(lines)


def _line_blocks(path: Path | str) -> Iterator[list[str]]:
    """Yield the lines of the file, one list per block read; each block
    is cut after its last ``\\n`` and decoded once."""
    line_no = 1
    rest: list[bytes] = []  # the pieces of a line that no block so far has ended
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK):
            cut = block.rfind(b"\n") + 1
            if cut:
                data = b"".join([*rest, block[:cut]])
                rest = []
                line_no += yield from _decoded_lines(path, data, line_no)
            rest.append(block[cut:])
    if tail := b"".join(rest):
        yield from _decoded_lines(path, tail, line_no)


def iter_checked_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, text)`` for each line of a UTF-8 file, reading
    ``_BLOCK`` bytes at a time.  Lines end at ``\\n`` and lose the
    ``\\r`` characters that end them; a U+FEFF that opens the file is a
    byte-order mark and is dropped.  An undecodable byte raises
    :class:`RecordError` after every line before its own is yielded."""
    return enumerate(itertools.chain.from_iterable(_line_blocks(path)), 1)


def nonblank_lines(path: Path | str, empty: str | None = None) -> Iterator[tuple[int, str]]:
    """The ``(line_no, text)`` pairs of :func:`iter_checked_lines` whose text is
    not all whitespace (by :meth:`str.strip`).  Given ``empty``, a file with no
    such line raises :class:`RecordError` for the line after its last."""
    line_no = 0
    kept = False
    for line_no, text in iter_checked_lines(path):
        if text.strip():
            kept = True
            yield line_no, text
    if empty is not None and not kept:
        raise RecordError(path, line_no + 1, empty)


def load_pairs(path: Path | str) -> list[DraftPair]:
    """Load draft/reference pairs, raising :class:`RecordError` with the
    offending line number on the first malformed record."""
    pairs = []
    for line_no, line in iter_checked_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise RecordError(path, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
        try:
            pairs.append(DraftPair.from_texts(fields[0], fields[1]))
        except ValueError as exc:
            raise RecordError(path, line_no, str(exc)) from exc
    return pairs


_TEMP_SERIAL = itertools.count()


@contextmanager
def atomic_writer(path: Path | str, *, binary: bool = False) -> Iterator[IO]:
    """Yield a UTF-8 text handle (a bytes handle if ``binary``) whose
    content replaces ``path`` only when the block completes.

    What is written goes to a temporary file in the same directory, renamed
    over the target with :func:`os.replace`; if the block raises, the target
    is left as it was and the temporary file is removed.  The temporary
    name does not grow with the target's, so any name the directory allows
    can be written.
    """
    path = Path(path)
    temp = path.with_name(f".draftkit.{os.getpid()}.{next(_TEMP_SERIAL)}.tmp")
    try:
        handle = open(temp, "xb") if binary else open(temp, "x", encoding="utf-8")
    except OSError as err:
        err.filename = str(path)  # name the output the caller asked for
        raise
    try:
        with handle:
            yield handle
        try:
            os.replace(temp, path)
        except OSError as err:
            # Name the output alone: the temporary file's name holds the pid.
            raise OSError(err.errno, err.strerror, str(path)) from err
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


_FIELD_BREAKERS = re.compile(r"[\t\r\n]")


def tsv_field(text: str) -> str:
    """``text`` with each tab, CR and LF turned into a space, so that it
    fills exactly one field of one TSV line."""
    return _FIELD_BREAKERS.sub(" ", text)


def pair_line(pair: DraftPair, *extra: str) -> str:
    """The TSV line ``draft<TAB>reference``, each text through
    :func:`tsv_field`, then each of ``extra`` as written after a tab."""
    return "\t".join((tsv_field(pair.draft.text), tsv_field(pair.reference.text), *extra)) + "\n"


def write_pairs(path: Path | str, pairs: Iterable[DraftPair]) -> None:
    """Write pairs one :func:`pair_line` each, atomically (see
    :func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.writelines(map(pair_line, pairs))
