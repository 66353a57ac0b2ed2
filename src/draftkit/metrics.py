"""Sentence- and corpus-level measures for judging revised drafts.

Surface metrics (character edit distance, BLEU, ROUGE-L) sit next to
token edit runs, a rule-based grammaticality score, Flesch reading
ease, and boolean style flags for passive voice and close word
repetition.  ``evaluate`` runs everything over aligned sentence lists
and returns one report with per-pair records plus corpus aggregates,
edit precision/recall/F0.5 among them: an edit is a maximal run of
unmatched ops in a token alignment with the source, and a hypothesis
edit counts when the reference has the same run.  It scores each pair
once, the corpus BLEU from the sums of the pairs' n-gram statistics.

Every result depends on the arguments alone.  Character edit distance,
the LCS behind ROUGE-L and token alignment are bit-parallel kernels; the
alignment keeps each DP column's bits and backtracks from them.  BLEU
counts the n-grams of each side once, all orders together.
``levenshtein_pairs`` takes many distances in one pass, each pair one
lane of a wide int, and is what ``evaluate``, ``analysis.dataset_stats``
and ``quality.score_workers`` use.  ``levenshtein_char`` takes one by
walking a small bounded automaton kept for its first argument, so
comparing one string against many reuses work between calls.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import chain, islice, repeat, zip_longest
from typing import Iterable, NamedTuple, Sequence

from .corpus import Sentence
from .resources import load_participles, load_stopwords

#: Bound on the transitions kept for one first argument, and so on the
#: columns they lead to.
_MAX_MOVES = 4096

#: Most pairs one lane-packed pass of ``levenshtein_pairs`` steps at once,
#: which bounds the width of its ints and the iterators it holds.
_PACK_LANES = 128

#: BLEU's highest n-gram order and its stand-in for a zero match count;
#: ROUGE-L's recall weight (the common summarization setting).
_BLEU_ORDER = 4
_BLEU_EPSILON = 1e-4
_ROUGE_BETA = 1.2


def _match_masks(seq: Sequence) -> tuple[dict, int]:
    """Bit i of ``masks[x]`` is set where ``seq[i] == x``; ``full`` has
    one bit per item of ``seq``."""
    masks: dict = {}
    bit = 1
    for item in seq:
        masks[item] = masks.get(item, 0) | bit
        bit <<= 1
    return masks, bit - 1


def _advance(
    eqs: Iterable[int], full: int, bottom: int, pv: int, mv: int, columns: list | None = None
) -> tuple[int, int]:
    """Step DP columns over ``eqs``, one bit-parallel update per match mask.

    Myers (JACM 1999) in the edit-distance form of Hyyrö (2001): bit i - 1
    of ``pv`` (``mv``) is set where D[i][j] - D[i-1][j] is +1 (-1), for the
    pattern whose bits are ``full``; each ``eq`` has the pattern bits that
    match the next character of the text.  ``x ^ full`` stands for ``~x``:
    bits outside ``full`` are never read, and non-negative ints stay small.

    ``full`` may hold several patterns, each a lane with at least one
    unused guard bit above it, and ``bottom`` has the lowest bit of each
    lane (1 for a single pattern), where D[0][j] - D[0][j-1] = +1 enters.
    No lane reaches the next: the addition's carry stops at the first
    guard bit, which ``pv`` and ``eq`` leave clear; the shift in ``hp``
    moves that bit at most onto the next lane's bottom bit, which
    ``| bottom`` sets anyway; and ``pv`` and ``mv`` are masked by ``full``.

    Given a list ``columns``, each step appends its ``(d0, pv)``: bit
    i - 1 of ``d0`` is set where D[i][j] = D[i-1][j-1].
    """
    for eq in eqs:
        d0 = (((eq & pv) + pv) ^ pv) | eq | mv
        hp = (mv | (d0 | pv) ^ full) << 1 | bottom
        mv = hp & d0 & full
        pv = ((d0 & pv) << 1 | (d0 | hp) ^ full) & full
        if columns is not None:
            columns.append((d0, pv))
    return pv, mv


class _Pattern:
    """State kept for the last first argument of levenshtein_char.

    Bit i of ``masks[ch]`` is set where ``text[i] == ch``.  A column is a
    tuple (pv, mv, next, rise): D[0][j] = j, so D[i][j] is j plus the pv
    bits minus the mv bits below bit i, and ``rise`` is that sum over all
    of ``text``, D[len(text)][j] - j.  ``next`` maps a character of the
    compared text to the column it leads to.  ``columns`` holds each
    distinct column reached from ``root`` (the empty text) once: together
    they form a deterministic automaton, built only as far as earlier
    texts have walked it and never past ``_MAX_MOVES`` transitions, the
    count kept in ``moves``.
    """

    __slots__ = ("text", "masks", "full", "root", "columns", "moves")

    def __init__(self, text: str) -> None:
        self.text = text
        self.masks, self.full = _match_masks(text)
        self.root = (self.full, 0, {}, len(text))
        self.columns = {(self.full, 0): self.root}
        self.moves = 0

    def follow(self, col: tuple, ch: str) -> tuple:
        """The column after ``col`` and ``ch``, kept while within bound."""
        key = pv, mv = _advance((self.masks.get(ch, 0),), self.full, 1, col[0], col[1])
        nxt = self.columns.get(key)
        if nxt is None:
            nxt = (pv, mv, {}, pv.bit_count() - mv.bit_count())
        if self.moves < _MAX_MOVES:
            self.columns[key] = col[2][ch] = nxt
            self.moves += 1
        return nxt


# A call takes the kept state out of this list and puts it back when done,
# so concurrent threads never share one; a thread that finds the list
# empty starts from a fresh state.
_kept_patterns = [_Pattern("")]


def _unshared(a: str, b: str) -> tuple[int, int, int]:
    """(lo, m, n) such that ``a[lo:m]`` and ``b[lo:n]`` are what is left of
    ``a`` and ``b`` once their shared prefix and suffix, which never change
    the optimum, are cut off."""
    m, n = len(a), len(b)
    while m and n and a[m - 1] == b[n - 1]:
        m -= 1
        n -= 1
    lo = 0
    end = min(m, n)
    while lo < end and a[lo] == b[lo]:
        lo += 1
    return lo, m, n


def levenshtein_char(a: str, b: str) -> int:
    """Minimal number of character insertions, deletions, substitutions.

    Every call walks the automaton kept for ``a`` (``_Pattern``), built
    afresh for a new first argument: ``b`` follows the columns and
    transitions kept from earlier calls, stepping the bit-parallel kernel
    (``_advance``) with ``a`` as the pattern only where no earlier text
    has been; so comparing one string against many costs little more
    than a dictionary lookup per character.  Results never depend on
    earlier calls.
    """
    try:
        pat = _kept_patterns.pop()
    except IndexError:
        pat = None
    if pat is None or pat.text != a:
        pat = _Pattern(a)
    col = pat.root
    for ch in b:
        col = col[2].get(ch) or pat.follow(col, ch)
    _kept_patterns.append(pat)
    return len(b) + col[3]


def _pack_distances(lanes: Sequence[tuple[str, str, int]]) -> list[int]:
    """Distances of (text, pattern, index) lanes, both strings non-empty
    and listed by descending text length, from one ``_advance`` over all
    of them.

    Each pattern is a lane of whole bytes with at least one guard bit, the
    first lane lowest, and each step's match mask is the join of every
    lane's byte mask for its text's next character.  The texts end in
    reverse lane order: when the top lanes' texts end, their distances are
    read from their bits and they are cut off, so the ints shrink as the
    pass goes on.
    """
    columns = []
    fulls = []
    bottoms = []
    offsets = []
    width = 0
    for text, pattern, _ in lanes:
        masks, full = _match_masks(pattern)
        size = len(pattern) // 8 + 1
        lane_masks = {ch: mask.to_bytes(size, "little") for ch, mask in masks.items()}
        columns.append(map(lane_masks.get, text, repeat(bytes(size))))
        fulls.append(full.to_bytes(size, "little"))
        bottoms.append(b"\1".ljust(size, b"\0"))
        offsets.append(width)
        width += 8 * size
    full = int.from_bytes(b"".join(fulls), "little")
    bottom = int.from_bytes(b"".join(bottoms), "little")
    # An ended text's lane is the top one and gives b"", so it adds no bits.
    eqs = (
        int.from_bytes(b"".join(column), "little")
        for column in zip_longest(*columns, fillvalue=b"")
    )
    pv, mv = full, 0
    stepped = 0
    distances = [0] * len(lanes)
    for k in reversed(range(len(lanes))):
        n = len(lanes[k][0])
        pv, mv = _advance(islice(eqs, n - stepped), full, bottom, pv, mv)
        stepped = n
        offset = offsets[k]
        distances[k] = n + (pv >> offset).bit_count() - (mv >> offset).bit_count()
        below = (1 << offset) - 1
        pv &= below
        mv &= below
        full &= below
        bottom &= below
    return distances


def levenshtein_pairs(pairs: Iterable[tuple[str, str]]) -> list[int]:
    """``levenshtein_char(a, b)`` for each pair, in one lane-packed pass.

    Each pair is trimmed of its shared prefix and suffix; a pair left with
    an empty side is settled there.  Otherwise the shorter side becomes
    one lane of a wide int and the longer one the text stepped over it.
    The pairs are sorted by text length and cut into packs of at most
    ``_PACK_LANES`` lanes, and one ``_advance`` steps every lane of a pack
    at once, reading each lane's distance after its own text's last
    character.  No state is kept between calls.
    """
    distances = []
    lanes = []
    for i, (a, b) in enumerate(pairs):
        lo, m, n = _unshared(a, b)
        a, b = a[lo:m], b[lo:n]
        if not a or not b:
            distances.append(len(a) + len(b))
            continue
        distances.append(0)
        lanes.append((b, a, i) if len(a) <= len(b) else (a, b, i))
    lanes.sort(key=lambda lane: len(lane[0]), reverse=True)
    for start in range(0, len(lanes), _PACK_LANES):
        pack = lanes[start : start + _PACK_LANES]
        for (_, _, i), distance in zip(pack, _pack_distances(pack)):
            distances[i] = distance
    return distances


def _ngram_counts(tokens: Sequence[str]) -> Counter:
    """Counts of the n-grams of every order 1.._BLEU_ORDER, each a tuple."""
    shifted = [tokens[i:] for i in range(_BLEU_ORDER)]
    return Counter(chain(*[zip(*shifted[:order]) for order in range(1, _BLEU_ORDER + 1)]))


def _bleu_stats(hyp: Sequence[str], ref: Sequence[str]) -> list[int]:
    """BLEU's sufficient statistics for one pair: both lengths, then the
    matched (clipped) and total hypothesis n-grams of each order."""
    ref_counts = _ngram_counts(ref)
    matched = [0] * (_BLEU_ORDER + 1)
    for gram, count in _ngram_counts(hyp).items():
        found = ref_counts.get(gram)
        if found:
            matched[len(gram)] += count if count < found else found
    stats = [len(hyp), len(ref)]
    for order in range(1, _BLEU_ORDER + 1):
        stats += (matched[order], max(0, len(hyp) - order + 1))
    return stats


def _bleu_score(*rows: Sequence[int]) -> float:
    """BLEU over n-gram orders 1..4 with brevity penalty, of the column
    sums of one or more ``_bleu_stats`` rows: one row scores a pair, the
    rows of every pair score the corpus.

    Smoothing: an order with candidate n-grams but zero matches scores
    ``_BLEU_EPSILON``/total; an order with no candidate n-grams at all (every
    hypothesis shorter than the order) is dropped from the geometric
    mean, so a perfect match of short sentences still scores 1.0.
    """
    hyp_len, ref_len, *counts = (sum(column) for column in zip(*rows))
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders_used = 0
    for matched, total in zip(counts[::2], counts[1::2]):
        if total == 0:
            continue
        log_sum += math.log((matched if matched else _BLEU_EPSILON) / total)
        orders_used += 1
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_sum / orders_used)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length, bit-parallel over ``a`` (Allison & Dix 1986; Hyyrö
    2004): after each token of ``b``, the zero bits of ``v`` count the
    LCS of ``a`` and the prefix of ``b`` read so far."""
    masks, full = _match_masks(a)
    v = full
    for token in b:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(h: Sentence, r: Sentence) -> float:
    """Sentence-level ROUGE-L: an LCS F-measure weighted toward recall
    by ``_ROUGE_BETA``.  An empty sentence on either side scores 0.0 by
    convention.
    """
    if not h.tokens or not r.tokens:
        return 0.0
    lcs = _lcs_len(h.tokens, r.tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(h.tokens)
    recall = lcs / len(r.tokens)
    return (1 + _ROUGE_BETA**2) * precision * recall / (recall + _ROUGE_BETA**2 * precision)


def _edit_runs(src: Sequence[str], tgt: Sequence[str]) -> list[tuple[int, int, tuple[str, ...]]]:
    """Maximal runs of unmatched steps of the unit-cost token alignment, as
    (start, end, replacement): source tokens [start, end) become the slice
    ``replacement`` of ``tgt``.  Ties prefer substitution, then deletion.

    ``_advance`` steps the DP columns with ``src`` as the pattern and
    keeps each one's bits, and the backtrace reads them (Hyyrö 2004, "A
    Note on Bit-Parallel Alignment Computation"), collecting the runs as
    it goes.  Under unit costs D[i][j] - D[i-1][j-1] is 0 or 1, so going
    back diagonally from D[i][j] is optimal when the tokens match, or when
    that difference is 1, which is where bit i - 1 of column j's ``d0`` is
    clear.  Otherwise the step is a deletion where the column's ``pv`` has
    bit i - 1 (D[i][j] = D[i-1][j] + 1), and an insertion elsewhere.

    The common suffix is matched without the DP: for unit costs, equal
    last tokens give D[n][m] = D[n-1][m-1], which the backtrace takes.  The
    common prefix is not trimmed, as that can move an edit: src ``a a``
    against tgt ``a`` aligns as (delete, match), not (match, delete).
    """
    n, m = len(src), len(tgt)
    while n and m and src[n - 1] == tgt[m - 1]:
        n -= 1
        m -= 1
    masks, full = _match_masks(src[:n])
    columns: list[tuple[int, int]] = []
    _advance(map(masks.get, tgt[:m], repeat(0)), full, 1, full, 0, columns)
    runs = []  # built backwards, reversed at the end
    end: tuple[int, int] | None = None  # where the run being read back ends
    i, j = n, m
    while i and j:
        if src[i - 1] == tgt[j - 1]:
            if end is not None:
                runs.append((i, end[0], tgt[j : end[1]]))
                end = None
            i -= 1
            j -= 1
            continue
        if end is None:
            end = (i, j)
        d0, pv = columns[j - 1]
        bit = 1 << (i - 1)
        if not d0 & bit:
            i -= 1
            j -= 1
        elif pv & bit:
            i -= 1
        else:
            j -= 1
    if end is None and (i or j):  # the rest of one side, deleted or inserted
        end = (i, j)
    if end is not None:
        runs.append((0, end[0], tgt[: end[1]]))
    runs.reverse()
    return runs


def _prf_from_counts(matched: int, proposed: int, gold: int) -> tuple[float, float, float]:
    # Conventions: proposing nothing is perfectly precise only when
    # nothing was required; an empty gold set counts as fully recalled.
    if proposed == 0:
        precision = 1.0 if gold == 0 else 0.0
    else:
        precision = matched / proposed
    recall = 1.0 if gold == 0 else matched / gold
    if precision + recall == 0.0:
        return 0.0, 0.0, 0.0
    f05 = 1.25 * precision * recall / (0.25 * precision + recall)
    return precision, recall, f05


def _edit_counts(src: Sentence, hyp: Sentence, ref: Sentence) -> tuple[int, int, int]:
    """(matched, proposed, gold) counts of hypothesis against reference edits."""
    proposed = set(_edit_runs(src.tokens, hyp.tokens))
    gold = set(_edit_runs(src.tokens, ref.tokens))
    return len(proposed & gold), len(proposed), len(gold)


_BRACKET_PAIRS = (("(", ")"), ("[", "]"), ("{", "}"))
_TERMINALS = frozenset({".", "!", "?"})
_VOWELS = frozenset("aeiou")


def _is_word(token: str) -> bool:
    """A word token holds at least one letter."""
    return token.isalpha() or any(ch.isalpha() for ch in token)


def _duplicate_word(tokens: tuple[str, ...]) -> int:
    return sum(
        1
        for prev, cur in zip(tokens, tokens[1:])
        if prev.lower() == cur.lower() and _is_word(cur)
    )


def _article_agreement(tokens: tuple[str, ...]) -> int:
    errors = 0
    for article, nxt in zip(tokens, tokens[1:]):
        low = article.lower()
        if low not in ("a", "an") or not nxt[:1].isalpha():
            continue
        if (low == "a") == (nxt[0].lower() in _VOWELS):
            errors += 1
    return errors


def _initial_capital(tokens: tuple[str, ...]) -> int:
    for token in tokens:
        for ch in token:
            if ch.isalpha():
                return int(ch.islower())
    return 0


def _unbalanced_pairs(tokens: tuple[str, ...]) -> int:
    text = " ".join(tokens)
    errors = sum(1 for left, right in _BRACKET_PAIRS if text.count(left) != text.count(right))
    return errors + (text.count('"') % 2)


def _terminal_punct(tokens: tuple[str, ...]) -> int:
    return int(tokens[-1] not in _TERMINALS) if tokens else 0


def _rule_errors(s: Sentence) -> int:
    """Surface errors counted by five rules: duplicate_word (adjacent
    case-equal words), article_agreement (a/an against the next word's
    onset letter), initial_capital, unbalanced_pairs (brackets and
    straight double quotes) and terminal_punct."""
    tokens = s.tokens
    return (
        _duplicate_word(tokens)
        + _article_agreement(tokens)
        + _initial_capital(tokens)
        + _unbalanced_pairs(tokens)
        + _terminal_punct(tokens)
    )


def grammaticality(s: Sentence) -> float:
    """One minus the rule errors per token, floored at zero."""
    if not s.tokens:
        raise ValueError("cannot score an empty sentence")
    return max(0.0, 1.0 - _rule_errors(s) / len(s.tokens))


_VOWEL_GROUPS = re.compile(r"[aeiouy]+")


def syllable_count(word: str) -> int:
    """Heuristic syllables: vowel groups, silent final e, minimum one."""
    lowered = word.lower()
    count = len(_VOWEL_GROUPS.findall(lowered))
    if count > 1 and lowered.endswith("e") and not lowered.endswith("le"):
        count -= 1
    return max(1, count)


def fre(s: Sentence) -> float:
    """Flesch reading ease of a single sentence.

    Words are tokens containing at least one letter.  With the sentence
    count fixed at one the formula is
    206.835 - 1.015 * words - 84.6 * (syllables / words).
    """
    words = [t for t in s.tokens if _is_word(t)]
    if not words:
        raise ValueError("no word tokens to score")
    syllables = sum(syllable_count(w) for w in words)
    return 206.835 - 1.015 * len(words) - 84.6 * (syllables / len(words))


_BE_FORMS = frozenset({"am", "is", "are", "was", "were", "be", "been", "being"})
_ADVERB_WORDS = frozenset(
    {"not", "never", "always", "often", "also", "very", "still", "just", "already", "well", "soon"}
)


def _is_adverb(token: str) -> bool:
    lowered = token.lower()
    return (lowered.endswith("ly") and len(lowered) >= 4) or lowered in _ADVERB_WORDS


def _is_participle(token: str) -> bool:
    lowered = token.lower()
    if not lowered.isalpha():
        return False
    if lowered in load_participles():
        return True
    return len(lowered) >= 4 and lowered.endswith(("ed", "en"))


def passive_voice(s: Sentence) -> bool:
    """True when a be-form is followed closely by a past participle: a
    bundled irregular one, or an alphabetic token of four or more letters
    ending in -ed or -en.

    At most two non-adverb tokens after the auxiliary are inspected, with
    adverbs skipped for free.
    """
    for i, token in enumerate(s.tokens):
        if token.lower() not in _BE_FORMS:
            continue
        budget = 2
        for nxt in s.tokens[i + 1 :]:
            if _is_adverb(nxt):
                continue
            if _is_participle(nxt):
                return True
            budget -= 1
            if budget == 0:
                break
    return False


#: Largest token distance at which a recurring content word counts as
#: close repetition.
_REPETITION_WINDOW = 5


def word_repetition(s: Sentence) -> bool:
    """True when a content word (not one of the bundled stopwords) recurs
    within ``_REPETITION_WINDOW`` token positions.

    Distance is measured over original token indices, so punctuation
    and stopwords in between still count toward the gap.
    """
    stopwords = load_stopwords()
    last_seen: dict[str, int] = {}
    for idx, token in enumerate(s.tokens):
        if not _is_word(token):
            continue
        lowered = token.lower()
        if lowered in stopwords:
            continue
        if lowered in last_seen and idx - last_seen[lowered] <= _REPETITION_WINDOW:
            return True
        last_seen[lowered] = idx
    return False


class PairEval(NamedTuple):
    """Metric record for one sentence pair; None marks an unscorable value."""

    bleu: float
    rouge_l: float
    levenshtein_char: int
    grammaticality: float
    fre: float | None
    ppl: float | None
    passive: bool
    repetition: bool
    edit_matches: int
    edit_proposed: int
    edit_gold: int


class EvalReport(NamedTuple):
    """Per-pair records plus corpus aggregates.

    Every aggregate except corpus_bleu (corpus-level by definition) is
    recomputable from the per-pair records.
    """

    per_pair: tuple[PairEval, ...]
    corpus_bleu: float
    mean_rouge_l: float
    edit_precision: float
    edit_recall: float
    edit_f05: float
    mean_grammaticality: float
    mean_fre: float | None
    mean_ppl: float | None
    passive_rate: float
    repetition_rate: float
    skipped_fre: int
    skipped_ppl: int

    def to_json_dict(self) -> dict:
        # Every field of a record is a number, a bool or None, so the
        # shallow ``_asdict`` of each is already JSON-ready.
        aggregates = self._asdict()
        del aggregates["per_pair"]
        return {"pairs": [record._asdict() for record in self.per_pair], "aggregates": aggregates}


def _mean(values: Sequence[float]) -> float:
    """The mean, summed strictly left to right.  Built-in ``sum`` of floats
    compensates its rounding since Python 3.12, which would change the
    last digits of a report between interpreters."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def evaluate(
    sources: Sequence[Sentence],
    hypotheses: Sequence[Sentence],
    references: Sequence[Sentence],
    *,
    lm=None,
) -> EvalReport:
    """Score revision hypotheses against references, edits against sources.

    `lm` is any object with a perplexity(tokens) method; without one the
    ppl fields stay None and count as skipped.  A hypothesis with no
    word tokens skips fre the same way.  Pairs are scored independently
    in input order and aggregated with running sums, so the result does
    not depend on evaluation scheduling.
    """
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValueError("sources, hypotheses, and references must align")
    if not sources:
        raise ValueError("nothing to evaluate")
    records = []
    bleu_rows = []
    distances = levenshtein_pairs((hyp.text, ref.text) for hyp, ref in zip(hypotheses, references))
    for src, hyp, ref, distance in zip(sources, hypotheses, references, distances):
        matched, proposed, gold = _edit_counts(src, hyp, ref)
        bleu_rows.append(_bleu_stats(hyp.tokens, ref.tokens))
        try:
            fre_value: float | None = fre(hyp)
        except ValueError:
            fre_value = None
        records.append(
            PairEval(
                bleu=_bleu_score(bleu_rows[-1]),
                rouge_l=rouge_l(hyp, ref),
                levenshtein_char=distance,
                grammaticality=grammaticality(hyp) if hyp.tokens else 0.0,
                fre=fre_value,
                ppl=float(lm.perplexity(hyp.tokens)) if lm is not None else None,
                passive=passive_voice(hyp),
                repetition=word_repetition(hyp),
                edit_matches=matched,
                edit_proposed=proposed,
                edit_gold=gold,
            )
        )
    n = len(records)
    precision, recall, f05 = _prf_from_counts(
        sum(r.edit_matches for r in records),
        sum(r.edit_proposed for r in records),
        sum(r.edit_gold for r in records),
    )
    fre_values = [r.fre for r in records if r.fre is not None]
    ppl_values = [r.ppl for r in records if r.ppl is not None]
    return EvalReport(
        per_pair=tuple(records),
        corpus_bleu=_bleu_score(*bleu_rows),
        mean_rouge_l=_mean([r.rouge_l for r in records]),
        edit_precision=precision,
        edit_recall=recall,
        edit_f05=f05,
        mean_grammaticality=_mean([r.grammaticality for r in records]),
        mean_fre=_mean(fre_values) if fre_values else None,
        mean_ppl=_mean(ppl_values) if ppl_values else None,
        passive_rate=sum(r.passive for r in records) / n,
        repetition_rate=sum(r.repetition for r in records) / n,
        skipped_fre=n - len(fre_values),
        skipped_ppl=n - len(ppl_values),
    )
