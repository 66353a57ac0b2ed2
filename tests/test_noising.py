"""Noising pipeline: stage semantics, empirical rates, determinism."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftkit.corpus import MASK_TOKEN, Sentence
from draftkit.noising import (
    NoiseConfig,
    ReplacementVocab,
    delete_tokens,
    mask_spans,
    noise_corpus,
    noise_sentence,
    permute_tokens,
    record_rng,
    replace_tokens,
)
from draftkit.resources import load_wordlist


class ScriptedRng:
    """Replays predetermined draws, asserting they stay in range."""

    def __init__(self, uniforms=(), randints=(), randranges=()):
        self.uniforms = list(uniforms)
        self.randints = list(randints)
        self.randranges = list(randranges)

    def uniform(self, low, high):
        return self.uniforms.pop(0)

    def randint(self, low, high):
        value = self.randints.pop(0)
        assert low <= value <= high
        return value

    def randrange(self, n):
        value = self.randranges.pop(0)
        assert 0 <= value < n
        return value

    def exhausted(self):
        return not (self.uniforms or self.randints or self.randranges)


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]


class TestDeleteTokens:
    def test_p_zero_is_identity(self):
        tokens = ("a", "b", "c")
        assert delete_tokens(tokens, 0.0, random.Random(1)) == tokens

    def test_p_one_keeps_exactly_one(self):
        tokens = ("a", "b", "c", "d", "e")
        out = delete_tokens(tokens, 1.0, random.Random(2))
        assert len(out) == 1 and out[0] in tokens

    def test_single_token_always_survives(self):
        for seed in range(20):
            assert delete_tokens(("only",), 1.0, random.Random(seed)) == ("only",)

    def test_empty_input(self):
        assert delete_tokens((), 0.5, random.Random(3)) == ()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            delete_tokens(("a",), 1.5, random.Random(0))

    def test_empirical_rate(self):
        # Binomial(100000, 0.1) has sd ~ 95, so [0.09, 0.11] sits ~10 sd out.
        n = 100_000
        out = delete_tokens(("w",) * n, 0.1, random.Random(12345))
        rate = (n - len(out)) / n
        assert 0.09 <= rate <= 0.11

    @settings(max_examples=80, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(WORDS), max_size=25),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_grows_and_keeps_subsequence(self, tokens, p, seed):
        out = delete_tokens(tuple(tokens), p, random.Random(seed))
        assert len(out) <= max(len(tokens), 1)
        if tokens:
            assert len(out) >= 1
        it = iter(tokens)
        assert all(any(t == kept for t in it) for kept in out)


class TestReplacementVocab:
    def test_strict_count_threshold(self):
        vocab = ReplacementVocab(
            {"the": 20_000, "of": 10_001, "edge": 10_000, "rare": 3},
            min_count=10_000,
        )
        assert set(vocab.tokens) == {"the", "of"}
        assert len(vocab) == 2

    def test_sample_from_empty_vocab(self):
        vocab = ReplacementVocab({}, min_count=10)
        with pytest.raises(ValueError):
            vocab.sample(random.Random(0))

    def test_uniform_sampling_rate(self):
        vocab = ReplacementVocab({"a": 11, "b": 99}, min_count=10)
        rng = random.Random(6)
        draws = [vocab.sample(rng) for _ in range(20_000)]
        # Uniform ignores the counts: ~0.5 each, sd ~ 0.0035.
        assert abs(draws.count("b") / 20_000 - 0.5) < 0.02

    def test_weighted_sampling_rate(self):
        vocab = ReplacementVocab({"a": 100, "b": 900}, min_count=10, weighted=True)
        rng = random.Random(7)
        draws = [vocab.sample(rng) for _ in range(20_000)]
        assert abs(draws.count("b") / 20_000 - 0.9) < 0.02

    def test_weighted_counts_summing_to_zero_rejected(self):
        with pytest.raises(ValueError, match="has count 0"):
            ReplacementVocab({"a": 0, "b": 0}, min_count=-1, weighted=True)
        # Uniform draws ignore the counts, and nothing kept is nothing to weigh.
        uniform = ReplacementVocab({"a": 0, "b": 0}, min_count=-1)
        assert uniform.sample(random.Random(0)) in ("a", "b")
        assert len(ReplacementVocab({"a": 0}, min_count=0, weighted=True)) == 0

    def test_packaged_wordlist(self):
        vocab = ReplacementVocab(load_wordlist(), min_count=10_000)
        assert len(vocab) > 100
        assert all(c > 10_000 for c in vocab.counts)
        assert "the" in vocab.tokens


class TestReplaceTokens:
    def test_p_zero_is_identity_without_vocab(self):
        tokens = ("a", "b")
        assert replace_tokens(tokens, 0.0, None, random.Random(1)) == tokens

    def test_p_one_forces_sole_candidate(self):
        vocab = ReplacementVocab({"the": 11}, min_count=10)
        assert replace_tokens(("a", "b"), 1.0, vocab, random.Random(2)) == ("the", "the")

    def test_positive_p_requires_vocab(self):
        with pytest.raises(ValueError):
            replace_tokens(("a",), 0.5, ReplacementVocab({}, min_count=10), random.Random(0))
        with pytest.raises(ValueError):
            replace_tokens(("a",), 0.5, None, random.Random(0))

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_invalid_probability(self, p):
        vocab = ReplacementVocab({"the": 11}, min_count=10)
        with pytest.raises(ValueError, match="p must lie in"):
            replace_tokens(("a",), p, vocab, random.Random(0))

    def test_empirical_rate(self):
        n = 100_000
        vocab = ReplacementVocab({"the": 11}, min_count=10)
        out = replace_tokens(("w",) * n, 0.1, vocab, random.Random(54321))
        rate = out.count("the") / n
        assert 0.09 <= rate <= 0.11

    @settings(max_examples=60, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(WORDS), max_size=25),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_length_preserved(self, tokens, p, seed):
        vocab = ReplacementVocab({"the": 11, "of": 12}, min_count=10)
        out = replace_tokens(tuple(tokens), p, vocab, random.Random(seed))
        assert len(out) == len(tokens)


class TestPermuteTokens:
    @pytest.mark.parametrize("k", [0, 1])
    def test_small_k_is_identity(self, k):
        # Keys i + u with u < 1 can never swap neighbours.
        tokens = tuple(f"t{i}" for i in range(12))
        for seed in range(10):
            assert permute_tokens(tokens, k, random.Random(seed)) == tokens

    def test_negative_k(self):
        with pytest.raises(ValueError):
            permute_tokens(("a",), -1, random.Random(0))

    @settings(max_examples=80, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(WORDS), max_size=30),
        k=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_multiset_preserved(self, tokens, k, seed):
        out = permute_tokens(tuple(tokens), k, random.Random(seed))
        assert sorted(out) == sorted(tokens)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 30), k=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_displacement_bound(self, n, k, seed):
        tokens = tuple(f"t{i}" for i in range(n))
        out = permute_tokens(tokens, k, random.Random(seed))
        for new_pos, token in enumerate(out):
            assert abs(new_pos - int(token[1:])) < k

    def test_default_k_over_many_runs(self):
        tokens = tuple(f"t{i}" for i in range(20))
        rng = random.Random(99)
        moved = False
        for _ in range(10_000):
            out = permute_tokens(tokens, 3, rng)
            worst = max(abs(pos - int(tok[1:])) for pos, tok in enumerate(out))
            assert worst <= 2
            moved = moved or out != tokens
        assert moved


class TestMaskSpans:
    def test_zero_fraction_is_identity(self):
        tokens = ("a", "b", "c")
        rng = ScriptedRng(uniforms=[0.0])
        assert mask_spans(tokens, 0.0, rng) == tokens
        assert rng.exhausted()

    def test_empty_input(self):
        assert mask_spans((), 0.5, random.Random(0)) == ()

    def test_single_span_splice(self):
        # r = 0.5 on four tokens targets m = 2; one span of length 2 starting
        # at index 1 swallows "b c" and leaves one mask token.
        rng = ScriptedRng(uniforms=[0.5], randints=[2], randranges=[1])
        out = mask_spans(("a", "b", "c", "d"), 0.5, rng)
        assert out == ("a", MASK_TOKEN, "d")
        assert rng.exhausted()

    def test_adjacent_spans_stay_distinct(self):
        # Two length-1 spans land on b then c: each splice yields its own
        # mask token even though the spans touch.
        rng = ScriptedRng(uniforms=[0.5], randints=[1, 1], randranges=[1, 1])
        out = mask_spans(("a", "b", "c", "d"), 0.5, rng)
        assert out == ("a", MASK_TOKEN, MASK_TOKEN, "d")
        assert rng.exhausted()

    def test_oversized_draw_clips_to_longest_run(self):
        # Five tokens, m = 4.  Two singleton spans fragment the sentence
        # into runs of length 1, then a drawn n = 2 must clip down to 1.
        rng = ScriptedRng(
            uniforms=[0.8],
            randints=[1, 1, 2, 1],
            randranges=[1, 2, 0, 0],
        )
        out = mask_spans(("a", "b", "c", "d", "e"), 1.0, rng)
        assert out == (MASK_TOKEN, MASK_TOKEN, MASK_TOKEN, MASK_TOKEN, "e")
        assert rng.exhausted()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            mask_spans(("a",), 1.2, random.Random(0))

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_masked_count_bounded_and_order_kept(self, n, seed):
        tokens = tuple(f"t{i}" for i in range(n))
        out = mask_spans(tokens, 0.5, random.Random(seed))
        n_masks = sum(1 for t in out if t == MASK_TOKEN)
        survivors = [t for t in out if t != MASK_TOKEN]
        masked_total = n - len(survivors)
        assert masked_total <= math.floor(0.5 * n)
        # Surviving tokens keep their original relative order.
        positions = [int(t[1:]) for t in survivors]
        assert positions == sorted(positions)
        if masked_total == 0:
            assert n_masks == 0


def small_vocab() -> ReplacementVocab:
    return ReplacementVocab(
        {"the": 20_000, "of": 15_000, "and": 12_000, "to": 11_000},
        min_count=10_000,
    )


class TestNoiseConfig:
    def test_defaults(self):
        cfg = NoiseConfig()
        assert cfg.delete_p == 0.1
        assert cfg.replace_p == 0.1
        assert cfg.replace_vocab_min_count == 10_000
        assert cfg.shuffle_k == 3
        assert cfg.mask_fraction_max == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delete_p": -0.1},
            {"delete_p": 1.1},
            {"replace_p": 2.0},
            {"shuffle_k": -1},
            {"mask_fraction_max": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseConfig(**kwargs)


class TestNoiseSentence:
    def test_identity_config(self):
        cfg = NoiseConfig(
            delete_p=0.0, replace_p=0.0, shuffle_k=0, mask_fraction_max=0.0, seed=7
        )
        s = Sentence.from_text("the quick brown fox jumps over the lazy dog .")
        pair = noise_sentence(s, cfg, None)
        assert pair.draft == s
        assert pair.reference == s

    def test_deterministic_per_seed_and_index(self):
        cfg = NoiseConfig(seed=99)
        vocab = small_vocab()
        s = Sentence.from_tokens(tuple(f"w{i}" for i in range(40)))
        first = noise_sentence(s, cfg, vocab, index=3)
        again = noise_sentence(s, cfg, vocab, index=3)
        assert first == again
        others = [noise_sentence(s, cfg, vocab, index=i).draft for i in (0, 1, 2)]
        assert any(d != first.draft for d in others)

    def test_seed_changes_output(self):
        vocab = small_vocab()
        s = Sentence.from_tokens(tuple(f"w{i}" for i in range(40)))
        a = noise_sentence(s, NoiseConfig(seed=1), vocab, index=0)
        b = noise_sentence(s, NoiseConfig(seed=2), vocab, index=0)
        assert a.draft != b.draft

    def test_record_rng_is_stable(self):
        assert record_rng(5, 9).random() == record_rng(5, 9).random()
        assert record_rng(5, 9).random() != record_rng(5, 10).random()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 1000),
    )
    def test_draft_never_empty(self, n, seed, index):
        s = Sentence.from_tokens(tuple(f"w{i}" for i in range(n)))
        pair = noise_sentence(s, NoiseConfig(seed=seed), small_vocab(), index=index)
        assert len(pair.draft.tokens) >= 1
        assert pair.reference == s

    def test_mask_coverage_on_long_sentences(self):
        # With 30..60 tokens the masking stage stays idle only when
        # r < 1/len, about 2/len of the time, so well under 10% of pairs.
        rng = random.Random(42)
        sentences = [
            Sentence.from_tokens(
                tuple(f"w{rng.randint(0, 99)}" for _ in range(rng.randint(30, 60)))
            )
            for _ in range(2000)
        ]
        cfg = NoiseConfig(seed=11)
        vocab = ReplacementVocab(load_wordlist(), min_count=10_000)
        masked = sum(
            noise_sentence(s, cfg, vocab, index=i).has_mask
            for i, s in enumerate(sentences)
        )
        assert masked / len(sentences) > 0.9

    def test_noise_corpus_matches_indexed_calls(self):
        cfg = NoiseConfig(seed=5)
        vocab = small_vocab()
        sentences = [
            Sentence.from_tokens(tuple(f"w{i}{j}" for j in range(12))) for i in range(8)
        ]
        streamed = list(noise_corpus(sentences, cfg, vocab))
        direct = [
            noise_sentence(s, cfg, vocab, index=i) for i, s in enumerate(sentences)
        ]
        assert streamed == direct
