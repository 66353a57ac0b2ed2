"""Independent reference implementations used to pin expected test values.

Everything here is written from the defining recurrences, not from the
package code, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import functools
import math
import re
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")


def levenshtein_recursive(a: str, b: str) -> int:
    """Edit distance straight from the textbook recurrence, memoized."""

    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
            go(i + 1, j + 1) + (a[i] != b[j]),
        )

    return go(0, 0)


def all_strings(alphabet: str, max_len: int) -> list[str]:
    """Every string over `alphabet` of length 0..max_len.

    Ordered by length, then by base-K value with the first character as
    the most significant digit.  levenshtein_table uses the same order.
    """
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + ch for s in frontier for ch in alphabet]
        out.extend(frontier)
    return out


def levenshtein_table(alphabet: str, max_len: int) -> np.ndarray:
    """Pairwise edit distances for all_strings(alphabet, max_len).

    Evaluates the recursive definition bottom-up over blocks indexed by
    (len_a, len_b).  A string of length l is addressed by its base-K
    value v; its first character is v // K**(l-1) and its tail is
    v % K**(l-1), which lets every block be filled with whole-array ops.
    """
    import numpy as np  # only this oracle needs it; the benchmark imports the others

    k = len(alphabet)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for la in range(max_len + 1):
        for lb in range(max_len + 1):
            if la == 0:
                blocks[la, lb] = np.full((1, k**lb), lb, dtype=np.uint8)
            elif lb == 0:
                blocks[la, lb] = np.full((k**la, 1), la, dtype=np.uint8)
            else:
                first_a = np.repeat(np.arange(k), k ** (la - 1))
                first_b = np.repeat(np.arange(k), k ** (lb - 1))
                tail_a = np.tile(np.arange(k ** (la - 1)), k)
                tail_b = np.tile(np.arange(k ** (lb - 1)), k)
                drop_a = blocks[la - 1, lb][tail_a, :] + 1
                drop_b = blocks[la, lb - 1][:, tail_b] + 1
                keep = blocks[la - 1, lb - 1][np.ix_(tail_a, tail_b)] + (
                    first_a[:, None] != first_b[None, :]
                )
                blocks[la, lb] = np.minimum(np.minimum(drop_a, drop_b), keep)
    offsets = np.concatenate(([0], np.cumsum([k**l for l in range(max_len + 1)])))
    table = np.empty((offsets[-1], offsets[-1]), dtype=np.uint8)
    for (la, lb), block in blocks.items():
        table[offsets[la] : offsets[la + 1], offsets[lb] : offsets[lb + 1]] = block
    return table


def lcs_length_recursive(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length from the defining recurrence."""

    @functools.lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def align_reference(src: Sequence[str], tgt: Sequence[str]) -> tuple[str, ...]:
    """Unit-cost token alignment over the full DP table; ties prefer
    substitution, then deletion."""
    n, m = len(src), len(tgt)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    dist[0] = list(range(m + 1))
    for i in range(1, n + 1):
        row, above = dist[i], dist[i - 1]
        token = src[i - 1]
        for j in range(1, m + 1):
            row[j] = min(above[j] + 1, row[j - 1] + 1, above[j - 1] + (token != tgt[j - 1]))
    ops: list[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        if (
            i > 0
            and j > 0
            and dist[i][j] == dist[i - 1][j - 1] + (src[i - 1] != tgt[j - 1])
        ):
            ops.append("match" if src[i - 1] == tgt[j - 1] else "sub")
            i -= 1
            j -= 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append("del")
            i -= 1
        else:
            ops.append("ins")
            j -= 1
    ops.reverse()
    return tuple(ops)


def edit_runs_reference(
    src: Sequence[str], tgt: Sequence[str]
) -> list[tuple[int, int, tuple[str, ...]]]:
    """The maximal runs of non-matching ``align_reference`` ops, each as
    (start, end, replacement): source tokens [start, end) become the
    target tokens ``replacement``."""
    ops = align_reference(src, tgt)
    runs = []
    i = j = k = 0
    while k < len(ops):
        if ops[k] == "match":
            i, j, k = i + 1, j + 1, k + 1
            continue
        first_i, first_j = i, j
        while k < len(ops) and ops[k] != "match":
            i += ops[k] in ("sub", "del")
            j += ops[k] in ("sub", "ins")
            k += 1
        runs.append((first_i, i, tuple(tgt[first_j:j])))
    return runs


def bleu_stats_reference(hyp: Sequence[str], ref: Sequence[str]) -> list[int]:
    """BLEU's per-pair statistics from one n-gram count per order and
    side: both lengths, then each order's clipped matches (the count
    intersection) and hypothesis n-gram total, orders 1 to 4."""
    stats = [len(hyp), len(ref)]
    for order in range(1, 5):
        h_counts = Counter(tuple(hyp[i : i + order]) for i in range(len(hyp) - order + 1))
        r_counts = Counter(tuple(ref[i : i + order]) for i in range(len(ref) - order + 1))
        stats += (sum((h_counts & r_counts).values()), sum(h_counts.values()))
    return stats


def bleu_reference(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Corpus BLEU of (hypothesis, reference) token lists from the summed
    :func:`bleu_stats_reference` rows: the brevity penalty times the
    geometric mean of each order's matched/total precision, over the orders
    with any hypothesis n-gram, a zero match count standing at 1e-4; 0.0
    when every hypothesis is empty.  Logs are added left to right, so the
    result can be compared exactly."""
    rows = [bleu_stats_reference(hyp, ref) for hyp, ref in pairs]
    hyp_len, ref_len, *counts = (sum(column) for column in zip(*rows))
    if hyp_len == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for matched, total in zip(counts[::2], counts[1::2]):
        if total:
            log_sum += math.log((matched or 1e-4) / total)
            orders += 1
    return min(1.0, math.exp(1.0 - ref_len / hyp_len)) * math.exp(log_sum / orders)


def sentence_logprob_reference(model, tokens: Sequence[str]) -> float:
    """Log10 probability of ``tokens`` plus the end event under a backoff
    model, read from its tables (``order``, ``_logprob``, ``_backoff``).

    A token without a unigram entry becomes ``<unk>``.  Each event looks
    up its longest n-gram first and, while none is stored, adds the
    context's backoff weight (0.0 when absent) and drops the context's
    first token; the event adds the weights' sum plus the stored value.
    """
    logp, bows = model._logprob, model._backoff
    known = [t if (t,) in logp else "<unk>" for t in ("<s>", *tokens, "</s>")]
    total = 0.0
    for i in range(1, len(known)):
        context = tuple(known[max(0, i - model.order + 1) : i])
        weight = 0.0
        while (*context, known[i]) not in logp:
            if not context:
                raise ValueError(f"no unigram entry for {known[i]!r}")
            weight += bows.get(context, 0.0)
            context = context[1:]
        total += weight + logp[(*context, known[i])]
    return total


def tokenize_reference(text: str) -> list[str]:
    """Whitespace split, then peel punctuation (Unicode category P*) off
    each chunk's ends one character at a time; ``<*>`` is never peeled."""
    tokens: list[str] = []
    for chunk in text.split():
        leading: list[str] = []
        trailing: list[str] = []
        while chunk and chunk != "<*>" and unicodedata.category(chunk[0]).startswith("P"):
            leading.append(chunk[0])
            chunk = chunk[1:]
        while chunk and chunk != "<*>" and unicodedata.category(chunk[-1]).startswith("P"):
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(leading)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trailing))
    return tokens


def nearest_entry_scan(word: str, dictionary: Mapping[str, int]) -> str | None:
    """Spell-check pick by scanning every entry: edit distance 1 or 2,
    then higher frequency, then lexicographic order; None if no entry is
    that close."""
    pools: dict[int, list[tuple[int, str]]] = {1: [], 2: []}
    for entry, frequency in dictionary.items():
        if abs(len(entry) - len(word)) > 2:
            continue
        distance = levenshtein_recursive(word, entry)
        if distance in pools:
            pools[distance].append((frequency, entry))
    for distance in (1, 2):
        if pools[distance]:
            return min(pools[distance], key=lambda fc: (-fc[0], fc[1]))[1]
    return None


def left_fold_mean(values: Sequence[float]) -> float:
    """The mean with one rounding per addition, taken left to right from
    0.0: what built-in ``sum`` of floats gives before Python 3.12."""
    return functools.reduce(lambda total, value: total + value, values, 0.0) / len(values)


def read_lines_reference(
    path: str | Path,
) -> tuple[list[tuple[int, str]], tuple[int, str] | None]:
    """Each line of a file decoded on its own.

    Returns the ``(line_no, text)`` pairs before the first line that is
    not valid UTF-8, and that line's number and the decoder's reason (or
    None when every line decodes).  Lines end at b"\n" and lose their
    trailing "\r" and "\n"; a U+FEFF that opens line 1 is a byte-order
    mark and is dropped (RFC 3629, section 6).
    """
    lines = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                return lines, (line_no, exc.reason)
            if line_no == 1 and text.startswith("\ufeff"):
                text = text[1:]
            lines.append((line_no, text))
    return lines, None


def read_arpa_reference(
    path: str | Path,
) -> tuple[int, dict[tuple[str, ...], float], dict[tuple[str, ...], float]]:
    """ARPA reader that decodes the whole file, then walks line indices.

    Returns the order and the log10 probability and backoff tables;
    raises ValueError on a malformed file, bad UTF-8 anywhere and a
    repeated count line, section or entry included.
    Lines split at "\n" only and lose their trailing "\r", and a
    byte-order mark that opens the file is dropped, as in
    `read_lines_reference`.
    """
    count_line = re.compile(r"ngram\s+(\d+)=(\d+)")
    section_line = re.compile(r"\\(\d+)-grams:")
    text = Path(path).read_bytes().decode("utf-8-sig")
    lines = [line.rstrip("\r") for line in text.split("\n")]
    n_lines = len(lines)

    def skip_blanks(i: int) -> int:
        while i < n_lines and not lines[i].strip():
            i += 1
        return i

    i = skip_blanks(0)
    if i >= n_lines or lines[i].strip() != "\\data\\":
        raise ValueError("expected \\data\\ header")
    i += 1
    declared: dict[int, int] = {}
    while i < n_lines and lines[i].strip():
        match = count_line.fullmatch(lines[i].strip())
        if match is None:
            raise ValueError(f"bad count line: {lines[i]!r}")
        if int(match[1]) in declared:
            raise ValueError(f"repeated count line: {lines[i]!r}")
        declared[int(match[1])] = int(match[2])
        i += 1
    if not declared:
        raise ValueError("no n-gram counts declared")

    logp: dict[tuple[str, ...], float] = {}
    bows: dict[tuple[str, ...], float] = {}
    seen_sections: set[int] = set()
    ended = False
    i = skip_blanks(i)
    while i < n_lines:
        header = lines[i].strip()
        if header == "\\end\\":
            ended = True
            break
        match = section_line.fullmatch(header)
        if match is None:
            raise ValueError(f"unexpected line {header!r}")
        n = int(match[1])
        if n not in declared:
            raise ValueError(f"section {n}-grams not declared")
        if n in seen_sections:
            raise ValueError(f"repeated {n}-grams section")
        i += 1
        count = 0
        while i < n_lines and lines[i].strip() and not lines[i].startswith("\\"):
            fields = lines[i].split("\t")
            if len(fields) not in (2, 3):
                raise ValueError(f"malformed entry: {lines[i]!r}")
            value = float(fields[0])
            bow = float(fields[2]) if len(fields) == 3 else None
            gram = tuple(fields[1].split(" "))
            if len(gram) != n or not all(gram):
                raise ValueError(f"entry arity mismatch: {lines[i]!r}")
            if gram in logp:
                raise ValueError(f"repeated entry: {lines[i]!r}")
            logp[gram] = value
            if bow is not None:
                bows[gram] = bow
            count += 1
            i += 1
        if count != declared[n]:
            raise ValueError(f"{n}-grams section lists {count} entries, header promises {declared[n]}")
        seen_sections.add(n)
        i = skip_blanks(i)
    if not ended:
        raise ValueError("missing \\end\\ marker")
    missing = [n for n in sorted(declared) if n not in seen_sections and declared[n] > 0]
    if missing:
        raise ValueError(f"missing {missing[0]}-grams section")
    order = max(declared)
    if order < 1:
        raise ValueError("order must be at least 1")
    for word in ("</s>", "<unk>"):
        if (word,) not in logp:
            raise ValueError(f"no unigram entry for {word!r}")
    return order, logp, bows


def load_parsed(load: Callable[[Path], T], arpa: Path) -> T:
    """``load(arpa)`` with the compiled sidecar beside ``arpa`` (its name
    plus ``.compiled``) moved aside for the call, so that the load must
    parse the ARPA text: the reference that a load from a sidecar must
    equal, in what it returns and in what it raises."""
    sidecar = Path(f"{arpa}.compiled")
    aside = sidecar.with_name(f"{sidecar.name}.aside")
    moved = sidecar.exists()
    if moved:
        sidecar.rename(aside)
    try:
        return load(arpa)
    finally:
        if moved:
            aside.rename(sidecar)


def stored_ngrams(model, order: int) -> list[tuple[str, ...]]:
    """The n-grams of one order among the keys of a model's ``_logprob``
    table, sorted."""
    return sorted(gram for gram in model._logprob if len(gram) == order)


def arpa_text_reference(model) -> str:
    """ARPA text of a model, one section per order through
    :func:`stored_ngrams`.

    Every value, backoff weights included, is written as its ``repr``,
    except that one equal to -99.0 (the ``<s>`` placeholder) is written
    ``-99``.  A section lists its n-grams in sorted order, and an n-gram's
    backoff weight follows it only when one is stored.
    """

    def value_text(value: float) -> str:
        return "-99" if value == -99.0 else repr(value)

    sections = [stored_ngrams(model, n) for n in range(1, model.order + 1)]
    lines = ["\\data\\"]
    for n, grams in enumerate(sections, start=1):
        lines.append(f"ngram {n}={len(grams)}")
    for n, grams in enumerate(sections, start=1):
        lines.append("")
        lines.append(f"\\{n}-grams:")
        for gram in grams:
            fields = [value_text(model._logprob[gram]), " ".join(gram)]
            if gram in model._backoff:
                fields.append(value_text(model._backoff[gram]))
            lines.append("\t".join(fields))
    return "\n".join([*lines, "", "\\end\\", ""])
