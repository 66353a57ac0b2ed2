"""Backoff n-gram language model with ARPA-format serialization.

Probabilities and backoff weights are stored and reported as log10 values.
Scoring walks the usual backoff chain: use the longest stored n-gram,
otherwise multiply in the context's backoff weight and drop to the next
shorter context.  Out-of-vocabulary tokens, those with no stored 1-gram,
are mapped to the unknown symbol before lookup, and every sentence is
scored including its end-of-sentence event.

:func:`save_arpa` also writes a compiled sidecar beside the ARPA file, which
:func:`load_arpa` reads in place of parsing the text when it matches; the
ARPA file stays the one source of truth.
"""

from __future__ import annotations

import hashlib
import itertools
import marshal
import math
import re
import sys
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from pathlib import Path

# The smoothings and the record of train() are declared in config and
# still importable from here.
from .config import ADD_K, KNESER_NEY, SMOOTHINGS, TrainConfig  # noqa: F401
from .corpus import RecordError, Sentence, atomic_writer, iter_checked_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# Conventional placeholder for the start marker, which is never predicted.
_BOS_PLACEHOLDER = -99.0

_COUNT_LINE = re.compile(r"ngram\s+(\d+)=(\d+)")
_SECTION_LINE = re.compile(r"\\(\d+)-grams:")
_NO_COUNTS = "no n-gram counts declared in \\data\\ section"
_MISSING_END = "missing \\end\\ marker"

# A word the ARPA text keeps as written, so that it reads back the same.
_WORD = re.compile(r"\S+")

_SIDECAR_MAGIC = "draftkit compiled ARPA 1"
_HASH_BLOCK = 64 * 1024


class ArpaFormatError(RecordError):
    """Raised when an ARPA file cannot be parsed; names the file and line."""


class NGramModel:
    """Log10 conditional probability table with backoff weights."""

    def __init__(
        self,
        order: int,
        logprob_table: dict[tuple[str, ...], float],
        backoff_table: dict[tuple[str, ...], float],
    ) -> None:
        if order < 1:
            raise ValueError("order must be at least 1")
        for word in (EOS, UNK):  # scoring ends each sentence and maps OOV tokens to these
            if (word,) not in logprob_table:
                raise ValueError(f"model has no unigram entry for {word!r}")
        self.order = order
        # The model owns the tables it is given: its callers build them for it.
        self._logprob = logprob_table
        self._backoff = backoff_table

    def __repr__(self) -> str:
        return f"NGramModel(order={self.order}, ngrams={len(self._logprob)})"

    def logprob(self, word: str, history: Sequence[str] = ()) -> float:
        """Log10 P(word | history), history trimmed to the model order."""
        context = tuple(history)[max(0, len(history) - self.order + 1) :]
        return self._walk((*context, word), len(context))

    def sentence_logprob(self, tokens: Sequence[str]) -> float:
        """Log10 probability of the token sequence plus its end event."""
        return self._walk((BOS, *tokens, EOS), 1)

    def _walk(self, tokens: Sequence[str], first: int) -> float:
        """Sum of log10 P(tokens[i] | the tokens before it) for each i from
        ``first`` on, after mapping tokens with no stored 1-gram to the
        unknown symbol: the longest stored n-gram, plus the backoff weights
        of the contexts dropped to reach it."""
        logp, bows, width = self._logprob, self._backoff, self.order - 1
        known = tuple([t if (t,) in logp else UNK for t in tokens])
        total = 0.0
        for i in range(first, len(known)):
            context = known[i - width : i] if i > width else known[:i]
            word = known[i : i + 1]
            acc = 0.0
            while (stored := logp.get(context + word)) is None:
                acc += bows.get(context, 0.0)
                context = context[1:]
            total += acc + stored
        return total

    def perplexity(self, tokens: Sequence[str]) -> float:
        tokens = tuple(tokens)
        events = len(tokens) + 1
        return 10.0 ** (-self.sentence_logprob(tokens) / events)


def train(corpus: Iterable[Sentence], cfg: TrainConfig = TrainConfig()) -> NGramModel:
    """Count padded n-grams and build a smoothed backoff model."""
    sentences = [tuple(s.tokens) for s in corpus]
    if not sentences:
        raise ValueError("cannot train on an empty corpus")

    order = cfg.order
    raw: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(order + 1)]
    words: Counter[str] = Counter()
    for tokens in sentences:
        words.update(tokens)
        seq = (BOS, *tokens, EOS)
        # No n-gram is longer than the padded sentence.
        shifted = [seq[i:] for i in range(min(order, len(seq)))]
        for n in range(1, len(shifted) + 1):
            raw[n].update(zip(*shifted[:n]))

    vpred = sorted((set(words) | {EOS, UNK}) - {BOS})
    if cfg.smoothing == ADD_K:
        logp, bows = _build_add_k(raw, words, vpred, order, cfg.k, cfg.unk_floor)
    else:
        logp, bows = _build_kneser_ney(raw, words, vpred, order, cfg.unk_floor)
    return NGramModel(order, logp, bows)


def _discount(counts: Iterable[int]) -> float:
    """Absolute discount n1/(n1 + 2 n2), falling back to 0.5."""
    n1 = n2 = 0
    for c in counts:
        if c == 1:
            n1 += 1
        elif c == 2:
            n2 += 1
    if n1 == 0 or n2 == 0:
        return 0.5
    return n1 / (n1 + 2 * n2)


def _floored(unigram: dict[str, float], unk_floor: float | None) -> dict[str, float]:
    if unk_floor is None or unigram[UNK] >= unk_floor:
        return unigram
    scale = (1.0 - unk_floor) / (1.0 - unigram[UNK])
    out = {w: p * scale for w, p in unigram.items()}
    out[UNK] = unk_floor
    return out


def _group_by_context(
    table: dict[tuple[str, ...], int] | Counter[tuple[str, ...]],
) -> dict[tuple[str, ...], dict[str, int]]:
    contexts: dict[tuple[str, ...], dict[str, int]] = defaultdict(dict)
    for gram, count in table.items():
        contexts[gram[:-1]][gram[-1]] = count
    return contexts


def _build_add_k(
    raw: list[Counter[tuple[str, ...]]],
    words: Counter[str],
    vpred: list[str],
    order: int,
    k: float,
    unk_floor: float | None,
) -> tuple[dict[tuple[str, ...], float], dict[tuple[str, ...], float]]:
    # Unigram events are word tokens only; the end marker and the unknown
    # symbol draw just the additive share k / (N + k|V|).
    v_size = len(vpred)
    n_events = sum(words.values())
    unigram = {w: (words.get(w, 0) + k) / (n_events + k * v_size) for w in vpred}
    unigram = _floored(unigram, unk_floor)
    logp = {(w,): math.log10(p) for w, p in unigram.items()}
    logp[(BOS,)] = _BOS_PLACEHOLDER
    bows: dict[tuple[str, ...], float] = {}
    # The suffix of a counted n-gram is counted one order down and every
    # predicted word has a unigram, so each lower-order estimate read here
    # (and in _build_kneser_ney) is already in ``logp``.
    for n in range(2, order + 1):
        for history, seen in _group_by_context(raw[n]).items():
            total = sum(seen.values())
            denominator = total + k * v_size
            covered = 0.0
            # Sorted accumulation keeps float sums independent of corpus order.
            for word in sorted(seen):
                logp[history + (word,)] = math.log10((seen[word] + k) / denominator)
                covered += 10.0 ** logp[history[1:] + (word,)]
            leftover = k * (v_size - len(seen)) / denominator
            if leftover > 0.0:
                bows[history] = math.log10(leftover / (1.0 - covered))
            else:
                bows[history] = -math.inf
    return logp, bows


def _kn_unigram_dist(counts: dict[str, int], v_size: int) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {w: 1.0 / v_size for w in counts}
    positive = [c for c in counts.values() if c > 0]
    discount = _discount(positive)
    share = discount * len(positive) / total / v_size
    return {w: max(c - discount, 0.0) / total + share for w, c in counts.items()}


def _build_kneser_ney(
    raw: list[Counter[tuple[str, ...]]],
    words: Counter[str],
    vpred: list[str],
    order: int,
    unk_floor: float | None,
) -> tuple[dict[tuple[str, ...], float], dict[tuple[str, ...], float]]:
    # Lower orders count distinct left extensions instead of raw occurrences;
    # n-grams anchored at the start marker keep raw counts since nothing can
    # ever precede them.
    adjusted: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order + 1)]
    adjusted[order] = dict(raw[order])
    for n in range(order - 1, 0, -1):
        continuations = Counter(gram[1:] for gram in raw[n + 1])
        adjusted[n] = {
            gram: (count if gram[0] == BOS else continuations.get(gram, 0))
            for gram, count in raw[n].items()
        }

    if order == 1:
        uni_counts = {w: words.get(w, 0) for w in vpred}
    else:
        uni_counts = {w: adjusted[1].get((w,), 0) for w in vpred}
    unigram = _floored(_kn_unigram_dist(uni_counts, len(vpred)), unk_floor)
    logp = {(w,): math.log10(p) for w, p in unigram.items()}
    logp[(BOS,)] = _BOS_PLACEHOLDER
    bows: dict[tuple[str, ...], float] = {}
    for n in range(2, order + 1):
        discount = _discount(adjusted[n].values())
        for history, seen in _group_by_context(adjusted[n]).items():
            total = sum(seen.values())
            interp = discount * len(seen) / total
            for word, count in seen.items():
                lower = 10.0 ** logp[history[1:] + (word,)]
                p = max(count - discount, 0.0) / total + interp * lower
                logp[history + (word,)] = math.log10(p)
            bows[history] = math.log10(interp)
    return logp, bows


def sidecar_path(path: str | Path) -> Path:
    """Where :func:`save_arpa` writes the compiled sidecar of the ARPA file
    at ``path``: the same name with ``.compiled`` appended."""
    return Path(f"{path}.compiled")


def _sidecar_header(arpa_sha256: str, arpa_size: int, payload: bytes) -> bytes:
    """The lines that open a sidecar: the ARPA file it was compiled from,
    the marshal format of its payload, and the payload's sha256.  Its length
    does not depend on the payload."""
    return (
        f"{_SIDECAR_MAGIC}\narpa {arpa_sha256} {arpa_size}\n"
        f"marshal {marshal.version} {sys.implementation.cache_tag}\n"
        f"payload {hashlib.sha256(payload).hexdigest()}\n"
    ).encode()


def save_arpa(model: NGramModel, path: str | Path) -> None:
    """Write the model as UTF-8 ARPA text with sorted, stable sections,
    then its sidecar (see :func:`sidecar_path`): a header naming the ARPA
    file by sha256 and size, then the marshalled tables.  Each file
    replaces its target atomically, the ARPA file first, so a run killed
    between the two leaves an old sidecar whose header no longer matches.

    A model whose ARPA text would not read back as its tables raises
    :class:`ValueError` naming the fault, and neither file is written.
    """
    # The text loses a word with white space in it or a backoff weight with no entry.
    logp, bows = model._logprob, model._backoff
    bad = sorted(w for w in set(itertools.chain.from_iterable(logp)) if not _WORD.fullmatch(w))
    if bad:
        raise ValueError(f"cannot write a word that is empty or holds white space: {bad[0]!r}")
    if not bows.keys() <= logp.keys():
        raise ValueError(f"backoff weight without an entry: {min(bows.keys() - logp.keys())!r}")
    sections: dict[int, list[tuple[str, ...]]] = {n: [] for n in range(1, model.order + 1)}
    for gram in model._logprob:
        sections[len(gram)].append(gram)
    lines = ["\\data\\"]
    lines.extend(f"ngram {n}={len(grams)}" for n, grams in sections.items())
    for n, grams in sections.items():
        lines.extend(("", f"\\{n}-grams:"))
        grams.sort()
        for gram in grams:
            value = model._logprob[gram]
            line = f"{'-99' if value == _BOS_PLACEHOLDER else repr(value)}\t{' '.join(gram)}"
            bow = model._backoff.get(gram)
            if bow is not None:
                line += f"\t{'-99' if bow == _BOS_PLACEHOLDER else repr(bow)}"
            lines.append(line)
    lines.extend(("", "\\end\\", ""))
    data = "\n".join(lines).encode("utf-8")
    with atomic_writer(path, binary=True) as handle:
        handle.write(data)
    arpa_sha256, arpa_size = hashlib.sha256(data).hexdigest(), len(data)
    # Freed before marshal copies the tables, so that saving peaks no higher
    # in memory than writing the text alone did.
    del lines, data
    payload = marshal.dumps((model.order, logp, bows))
    with atomic_writer(sidecar_path(path), binary=True) as handle:
        handle.write(_sidecar_header(arpa_sha256, arpa_size, payload))
        handle.write(payload)


def _load_compiled(path: str | Path) -> NGramModel | None:
    """The model in the sidecar of the ARPA file at ``path``, or None unless
    every header field matches: the ARPA file's sha256 and size, this
    interpreter's marshal format and the payload's sha256.  Only then is the
    payload passed to :mod:`marshal`, whose result must also be an
    ``(order, logprob table, backoff table)`` tuple that :class:`NGramModel`
    accepts."""
    try:
        data = sidecar_path(path).read_bytes()
    except OSError:
        return None
    arpa = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while block := handle.read(_HASH_BLOCK):
            arpa.update(block)
            size += len(block)
    start = len(_sidecar_header(arpa.hexdigest(), size, b""))
    payload = memoryview(data)[start:]
    if data[:start] != _sidecar_header(arpa.hexdigest(), size, payload):
        return None
    try:
        loaded = marshal.loads(payload)
        if type(loaded) is tuple and tuple(map(type, loaded)) == (int, dict, dict):
            return NGramModel(*loaded)  # a ValueError if it refuses the tables
    except (EOFError, ValueError, TypeError):
        pass
    return None


def load_arpa(path: str | Path) -> NGramModel:
    """Load an ARPA file: from its sidecar when that matches it (see
    :func:`save_arpa`), else by :func:`_parse_arpa`.  Either way gives the
    same tables; loading from the sidecar costs one sha256 of the ARPA file
    and saves the parse."""
    model = _load_compiled(path)
    return model if model is not None else _parse_arpa(path)


def _parse_arpa(path: str | Path) -> NGramModel:
    """Parse an ARPA file in one pass over its lines (see
    :func:`iter_checked_lines`), validating section structure and entry
    counts.

    A fault raises :class:`ArpaFormatError` naming the first line, in file
    order, where one is found; one found at the end of the file names the
    line after the last.  A repeated count line, section or entry is a
    fault; a repeated entry is found at the line that ends its section.
    """
    lines = iter_checked_lines(path)
    line_no = 0
    for line_no, line in lines:
        if text := line.strip():
            break
    else:
        line_no, text = line_no + 1, None
    if text != "\\data\\":
        raise ArpaFormatError(path, line_no, "expected \\data\\ header")
    declared: dict[int, int] = {}
    for line_no, line in lines:
        if not (text := line.strip()):
            break
        match = _COUNT_LINE.fullmatch(text)
        if match is None:
            raise ArpaFormatError(path, line_no, f"bad count line in \\data\\ section: {line!r}")
        n = int(match[1])
        if n in declared:
            raise ArpaFormatError(path, line_no, f"repeated count line for {n}-grams")
        declared[n] = int(match[2])
    else:
        raise ArpaFormatError(path, line_no + 1, _MISSING_END if declared else _NO_COUNTS)
    if not declared:
        raise ArpaFormatError(path, line_no, _NO_COUNTS)
    seen_sections: set[int] = set()
    logp: dict[tuple[str, ...], float] = {}
    bows: dict[tuple[str, ...], float] = {}
    # Backoff weights take few distinct values (under 7% of a section's on
    # models of real text), so each string is parsed once; probabilities are
    # mostly distinct, and a memo of them cost more than it saved.
    bow_values: dict[str, float] = {}
    for line_no, line in lines:
        # A section ends at a blank line or a \-led one (the next header).
        # Neither parses as an entry, as ``float`` rejects a first field that
        # is blank or starts with \, so one is looked for only at a fault.
        while (text := line.strip()) and text != "\\end\\":
            match = _SECTION_LINE.fullmatch(text)
            if match is None:
                raise ArpaFormatError(path, line_no, f"unexpected line {text!r}")
            n = int(match[1])
            if n not in declared:
                raise ArpaFormatError(path, line_no, f"section {n}-grams not declared in header")
            if n in seen_sections:
                raise ArpaFormatError(path, line_no, f"repeated {n}-grams section")
            header = line_no
            stored = len(logp)
            for line_no, line in lines:
                fields = line.split("\t")
                if len(fields) == 2:
                    value, words = fields
                    bow = None
                elif len(fields) == 3:
                    value, words, bow = fields
                else:
                    fault = "malformed entry"
                    break
                gram = tuple(words.split(" "))
                if len(gram) != n or "" in gram:
                    fault = "entry arity mismatch"
                    break
                try:
                    logp[gram] = float(value)
                    if bow is not None:
                        weight = bow_values.get(bow)
                        if weight is None:
                            weight = bow_values[bow] = float(bow)
                        bows[gram] = weight
                except ValueError:
                    fault = "malformed entry"
                    break
            else:  # the fault is the missing \end\, whatever the count
                raise ArpaFormatError(path, line_no + 1, _MISSING_END)
            if line.strip() and not line.startswith("\\"):
                raise ArpaFormatError(path, line_no, f"{fault} in {n}-grams section: {line!r}")
            entries = line_no - header - 1
            if entries != declared[n]:
                reason = f"{n}-grams section lists {entries} entries, header promises {declared[n]}"
                raise ArpaFormatError(path, line_no, reason)
            # A repeated entry overwrote its first; found here, at the
            # section's end, as a test per entry would slow every load.
            if (distinct := len(logp) - stored) != entries:
                reason = f"{n}-grams section lists {entries} entries, {distinct} of them distinct"
                raise ArpaFormatError(path, line_no, reason)
            seen_sections.add(n)
        if text:
            break
    else:
        raise ArpaFormatError(path, line_no + 1, _MISSING_END)
    missing = [k for k in sorted(declared) if k not in seen_sections and declared[k] > 0]
    if missing:
        raise ArpaFormatError(path, line_no, f"missing {missing[0]}-grams section")
    if max(declared) < 1:
        raise ArpaFormatError(path, line_no, "no n-gram order of 1 or more declared")
    try:
        model = NGramModel(max(declared), logp, bows)
    except ValueError as err:  # a table the model refuses is a fault found at \end\
        raise ArpaFormatError(path, line_no, str(err)) from err
    for _ in lines:  # lines after \end\ are ignored, but must still decode
        pass
    return model
