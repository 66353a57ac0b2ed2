"""Dataset profiling over draft/reference pairs.

Three views of a parallel dataset: headline statistics (size, mask rate,
change rate, mean character distance), per-side linguistic profiles under
a language model, and the terms most characteristic of one side versus
the other.
All computations are deterministic and order-independent where the
contract says so; nothing here draws randomness.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import DraftPair, Sentence
from .lm import NGramModel
from .metrics import fre, levenshtein_pairs, passive_voice, word_repetition


@dataclass(frozen=True, slots=True)
class DatasetStats:
    """Headline numbers for a paired dataset.  Percentages are 0..100."""

    pair_count: int
    pct_with_mask: float
    pct_changed: float
    mean_char_levenshtein: float


def dataset_stats(pairs: Sequence[DraftPair]) -> DatasetStats:
    """Count pairs, mask usage, changed pairs, and mean edit distance."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    n = len(pairs)
    masked = sum(p.has_mask for p in pairs)
    changed = sum(p.draft.text != p.reference.text for p in pairs)
    distance_total = sum(levenshtein_pairs((p.draft.text, p.reference.text) for p in pairs))
    return DatasetStats(
        pair_count=n,
        pct_with_mask=100.0 * masked / n,
        pct_changed=100.0 * changed / n,
        mean_char_levenshtein=distance_total / n,
    )


@dataclass(frozen=True, slots=True)
class SideProfile:
    """Per-sentence measures averaged over one side of the dataset.

    A sentence whose measures are undefined (for example, no word tokens
    to compute readability over) is dropped from every mean on its side
    and counted in ``skipped``.
    """

    fre_mean: float
    passive_pct: float
    repetition_pct: float
    ppl_mean: float
    skipped: int


@dataclass(frozen=True, slots=True)
class LinguisticProfile:
    draft: SideProfile
    reference: SideProfile


def _side_profile(side: str, sentences: Iterable[Sentence], lm: NGramModel) -> SideProfile:
    fre_values: list[float] = []
    ppl_values: list[float] = []
    passive_hits = 0
    repetition_hits = 0
    skipped = 0
    for s in sentences:
        try:
            fre_value = fre(s)
        except ValueError:
            skipped += 1
            continue
        fre_values.append(fre_value)
        ppl_values.append(lm.perplexity(s.tokens))
        passive_hits += passive_voice(s)
        repetition_hits += word_repetition(s)
    if not fre_values:
        raise ValueError(f"no scoreable sentences on the {side} side")
    n = len(fre_values)
    return SideProfile(
        fre_mean=sum(fre_values) / n,
        passive_pct=100.0 * passive_hits / n,
        repetition_pct=100.0 * repetition_hits / n,
        ppl_mean=sum(ppl_values) / n,
        skipped=skipped,
    )


def linguistic_profile(pairs: Sequence[DraftPair], lm: NGramModel) -> LinguisticProfile:
    """Readability, passive rate, repetition rate, and perplexity means
    for the draft side and the reference side independently."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    return LinguisticProfile(
        draft=_side_profile("draft", (p.draft for p in pairs), lm),
        reference=_side_profile("reference", (p.reference for p in pairs), lm),
    )


@dataclass(frozen=True, slots=True)
class TermContrast:
    """How lopsided one term's usage is between the two sides.

    Frequencies are occurrences per 10,000 tokens of that side; the
    contrast is log((draft + eps) / (reference + eps)), positive for
    draft-heavy terms.
    """

    term: str
    draft_freq: float
    reference_freq: float
    log_ratio: float


def _term_frequencies(sentences: Iterable[Sentence]) -> tuple[Counter, int]:
    counts: Counter[str] = Counter()
    token_total = 0
    for s in sentences:
        lowered = [t.lower() for t in s.tokens]
        token_total += len(lowered)
        counts.update(lowered)
        counts.update(f"{a} {b}" for a, b in zip(lowered, lowered[1:]))
    return counts, token_total


def _per_10k(count: int, total: int) -> float:
    return 10_000.0 * count / total if total else 0.0


def characteristic_terms(
    pairs: Sequence[DraftPair], top_k: int = 20, epsilon: float = 1.0
) -> list[TermContrast]:
    """Unigrams and bigrams most characteristic of each side.

    Tokens are lowercased; bigrams never cross sentence boundaries.  The
    result holds up to ``top_k`` draft-heavy terms (descending ratio)
    followed by up to ``top_k`` reference-heavy terms (ascending ratio),
    ties broken lexicographically.  Balanced terms belong to neither.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    draft_counts, draft_total = _term_frequencies(p.draft for p in pairs)
    ref_counts, ref_total = _term_frequencies(p.reference for p in pairs)
    contrasts = []
    for term in sorted(set(draft_counts) | set(ref_counts)):
        draft_freq = _per_10k(draft_counts[term], draft_total)
        ref_freq = _per_10k(ref_counts[term], ref_total)
        ratio = math.log((draft_freq + epsilon) / (ref_freq + epsilon))
        contrasts.append(TermContrast(term, draft_freq, ref_freq, ratio))
    draft_heavy = sorted(
        (c for c in contrasts if c.log_ratio > 0), key=lambda c: (-c.log_ratio, c.term)
    )
    ref_heavy = sorted(
        (c for c in contrasts if c.log_ratio < 0), key=lambda c: (c.log_ratio, c.term)
    )
    return draft_heavy[:top_k] + ref_heavy[:top_k]
