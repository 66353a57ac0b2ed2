"""Synthetic draft generation.

A clean sentence passes through four stages in fixed order: token
deletion, replacement with common terms, a bounded local shuffle, and
span masking.  Every record gets its own RNG stream derived from
(seed, record index), so output is a pure function of (sentence,
config, vocabulary) and is independent of scheduling or sharding.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import accumulate

from .config import NoiseConfig, _check_unit
from .corpus import MASK_TOKEN, DraftPair, Sentence


class ReplacementVocab:
    """Tokens frequent enough to serve as plausible substitutions.

    Keeps only tokens whose count strictly exceeds ``min_count``.
    Sampling is uniform by default; ``weighted=True`` draws
    proportionally to the stored counts, so a weighted vocabulary whose
    kept counts sum to 0 raises :class:`ValueError`.
    """

    def __init__(
        self, counts: Mapping[str, int], *, min_count: int, weighted: bool = False
    ) -> None:
        kept = {token: count for token, count in counts.items() if count > min_count}
        self.weighted = weighted
        self.tokens: tuple[str, ...] = tuple(sorted(kept))
        self.counts: tuple[int, ...] = tuple(kept[t] for t in self.tokens)
        self._cumulative = tuple(accumulate(self.counts))
        if weighted and self.tokens and not self._cumulative[-1]:
            raise ValueError(
                f"every token kept above min_count {min_count} has count 0,"
                " so none can be drawn in proportion to its count"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    def sample(self, rng: random.Random) -> str:
        if not self.tokens:
            raise ValueError("replacement vocabulary is empty")
        if self.weighted:
            point = rng.random() * self._cumulative[-1]
            return self.tokens[bisect.bisect_right(self._cumulative, point)]
        return self.tokens[rng.randrange(len(self.tokens))]


def record_rng(seed: int, index: int) -> random.Random:
    """Independent RNG stream for one record of one run."""
    digest = hashlib.sha256(f"{seed}:{index}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def delete_tokens(
    tokens: Sequence[str], p: float, rng: random.Random
) -> tuple[str, ...]:
    """Drop each token with probability p, always retaining at least one."""
    _check_unit("p", p)
    tokens = tuple(tokens)
    if not tokens:
        return ()
    kept = tuple(t for t in tokens if not rng.random() < p)
    if kept:
        return kept
    return (tokens[rng.randrange(len(tokens))],)


def replace_tokens(
    tokens: Sequence[str],
    p: float,
    vocab: ReplacementVocab | None,
    rng: random.Random,
) -> tuple[str, ...]:
    """Swap each token with probability p for a draw from ``vocab``."""
    _check_unit("p", p)
    if p > 0 and not vocab:
        raise ValueError("replacement requires a non-empty vocabulary when p > 0")
    return tuple(vocab.sample(rng) if rng.random() < p else t for t in tokens)


def permute_tokens(
    tokens: Sequence[str], k: int, rng: random.Random
) -> tuple[str, ...]:
    """Locally shuffle by sorting on keys i + Uniform[0, k).

    Keys stay within k of the index, so every token's displacement is
    strictly below k; k of 0 or 1 leaves the order untouched.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    tokens = tuple(tokens)
    keys = [i + rng.uniform(0.0, k) for i in range(len(tokens))]
    order = sorted(range(len(tokens)), key=keys.__getitem__)
    return tuple(tokens[i] for i in order)


def _unmasked_runs(masked: list[bool]) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i, flag in enumerate(masked):
        if not flag and start is None:
            start = i
        elif flag and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(masked) - start))
    return runs


def mask_spans(
    tokens: Sequence[str], mask_fraction_max: float, rng: random.Random
) -> tuple[str, ...]:
    """Replace random unmasked spans with single mask tokens.

    Draws r ~ Uniform(0, mask_fraction_max) and masks m = floor(len * r)
    original tokens: span lengths are uniform over what is still owed,
    clipped to the longest remaining unmasked run, and span starts are
    uniform over the valid positions.  Each span is spliced to exactly
    one mask token; spans are never merged, so two touching spans leave
    two adjacent mask tokens.
    """
    _check_unit("mask_fraction_max", mask_fraction_max)
    tokens = tuple(tokens)
    r = rng.uniform(0.0, mask_fraction_max)
    target = int(len(tokens) * r)
    masked = [False] * len(tokens)
    spans: list[tuple[int, int]] = []
    covered = 0
    while covered < target:
        n = rng.randint(1, target - covered)
        runs = _unmasked_runs(masked)
        longest = max(length for _, length in runs)
        if n > longest:
            n = longest
        starts = [s + off for s, length in runs for off in range(length - n + 1)]
        start = starts[rng.randrange(len(starts))]
        for i in range(start, start + n):
            masked[i] = True
        spans.append((start, n))
        covered += n
    if not spans:
        return tokens
    spans.sort()
    out: list[str] = []
    pos = 0
    for start, n in spans:
        out.extend(tokens[pos:start])
        out.append(MASK_TOKEN)
        pos = start + n
    out.extend(tokens[pos:])
    return tuple(out)


def noise_sentence(
    s: Sentence,
    cfg: NoiseConfig,
    vocab: ReplacementVocab | None,
    *,
    index: int = 0,
) -> DraftPair:
    """Run the full pipeline on one sentence with its per-record stream."""
    rng = record_rng(cfg.seed, index)
    draft = delete_tokens(s.tokens, cfg.delete_p, rng)
    draft = replace_tokens(draft, cfg.replace_p, vocab, rng)
    draft = permute_tokens(draft, cfg.shuffle_k, rng)
    draft = mask_spans(draft, cfg.mask_fraction_max, rng)
    return DraftPair(Sentence.from_tokens(draft), s)


def noise_corpus(
    sentences: Iterable[Sentence],
    cfg: NoiseConfig,
    vocab: ReplacementVocab | None,
) -> Iterator[DraftPair]:
    """Stream drafts for a sentence iterable, record ``i`` noised with
    ``index=i``; safe for huge corpora."""
    for index, s in enumerate(sentences):
        yield noise_sentence(s, cfg, vocab, index=index)
