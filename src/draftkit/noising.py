"""Synthetic draft generation.

A clean sentence passes through four stages in fixed order: token
deletion, replacement with common terms, a bounded local shuffle, and
span masking.  Every record gets its own RNG stream derived from
(seed, record index), so output is a pure function of (sentence,
config, vocabulary) and is independent of scheduling or sharding.

The module also provides a randomized beam search wrapper that adds a
fresh uniform bonus r * beta to each hypothesis score at selection time
while ranking the final output by unperturbed scores.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TypeVar

from . import DEFAULT_SEED
from .corpus import MASK_TOKEN, DraftPair, Sentence
from .resources import load_wordlist

H = TypeVar("H")


@dataclass(frozen=True, slots=True)
class NoiseConfig:
    delete_p: float = 0.1
    replace_p: float = 0.1
    replace_vocab_min_count: int = 10_000
    shuffle_k: int = 3
    mask_fraction_max: float = 0.5
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("delete_p", "replace_p", "mask_fraction_max"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.shuffle_k < 0:
            raise ValueError(f"shuffle_k must be non-negative, got {self.shuffle_k}")


@dataclass(frozen=True, slots=True)
class BeamNoiseConfig:
    beam_width: int = 5
    beta: float = 5.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be at least 1, got {self.beam_width}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


class ReplacementVocab:
    """Tokens frequent enough to serve as plausible substitutions.

    Keeps only tokens whose count strictly exceeds ``min_count``.
    Sampling is uniform by default; ``weighted=True`` draws
    proportionally to the stored counts.
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        *,
        min_count: int = 10_000,
        weighted: bool = False,
    ) -> None:
        kept = {token: count for token, count in counts.items() if count > min_count}
        self.weighted = weighted
        self.tokens: tuple[str, ...] = tuple(sorted(kept))
        self.counts: tuple[int, ...] = tuple(kept[t] for t in self.tokens)
        self._cumulative = tuple(accumulate(self.counts))

    @classmethod
    def from_wordlist(
        cls, *, min_count: int = 10_000, weighted: bool = False
    ) -> "ReplacementVocab":
        return cls(load_wordlist(), min_count=min_count, weighted=weighted)

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
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
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
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
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
    if not 0.0 <= mask_fraction_max <= 1.0:
        raise ValueError(
            f"mask_fraction_max must lie in [0, 1], got {mask_fraction_max}"
        )
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


class BeamSearchError(RuntimeError):
    """Search ended without a single finished hypothesis."""


def noisy_beam_search(
    scorer: Callable[[H], float],
    expand: Callable[[H], Iterable[H]],
    cfg: BeamNoiseConfig,
    *,
    initial: Iterable[H],
    is_final: Callable[[H], bool],
    max_steps: int | None = None,
) -> list[H]:
    """Beam search with per-hypothesis random score bonuses.

    At every selection step each candidate's score is bumped by a fresh
    r * beta, r ~ Uniform[0, 1]; selection ties fall back to enumeration
    order.  Finished hypotheses retire out of the beam, and the search
    stops once beam_width of them exist (or after max_steps expansion
    rounds).  The returned list is ordered by unperturbed score, ties
    broken by retirement order.  With beta = 0 the behaviour is exactly
    standard beam search.
    """
    rng = random.Random(cfg.seed)
    candidates = list(initial)
    finished: list[tuple[float, int, H]] = []
    retired = 0
    steps = 0
    while candidates:
        entries = []
        for i, hyp in enumerate(candidates):
            base = scorer(hyp)
            bonus = rng.random() * cfg.beta if cfg.beta > 0 else 0.0
            entries.append((base + bonus, -i, hyp, base))
        entries.sort(key=lambda e: (e[0], e[1]), reverse=True)
        beam = []
        for _, _, hyp, base in entries[: cfg.beam_width]:
            if is_final(hyp):
                finished.append((base, retired, hyp))
                retired += 1
            else:
                beam.append(hyp)
        if len(finished) >= cfg.beam_width:
            break
        if max_steps is not None and steps >= max_steps:
            break
        candidates = [succ for hyp in beam for succ in expand(hyp)]
        steps += 1
    if not finished:
        raise BeamSearchError("beam search produced no finished hypothesis")
    finished.sort(key=lambda t: (-t[0], t[1]))
    return [hyp for _, _, hyp in finished]
