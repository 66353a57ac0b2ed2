"""Dataset statistics, linguistic profiles, and contrastive term lists."""

from __future__ import annotations

import math

import pytest

from draftkit import lm, metrics
from draftkit.analysis import (
    DatasetStats,
    TermContrast,
    TermsConfig,
    characteristic_terms,
    dataset_stats,
    linguistic_profile,
)
from draftkit.corpus import DraftPair
from oracles import left_fold_mean
from synth import academic_sentences


def pair(draft: str, reference: str) -> DraftPair:
    return DraftPair.from_texts(draft, reference)


class TestDatasetStats:
    def test_identical_pairs(self):
        pairs = [pair("the model works .", "the model works .")] * 3
        stats = dataset_stats(pairs)
        assert stats == DatasetStats(3, 0.0, 0.0, 0.0)

    def test_mean_distance(self):
        base = "the model works"
        pairs = [pair(base + "z" * 10, base), pair(base + "z" * 20, base)]
        assert dataset_stats(pairs).mean_char_levenshtein == 15.0

    def test_mask_and_change_percentages(self):
        pairs = [
            pair("a <*> model", "a novel model"),
            pair("a novel model", "a novel model"),
            pair("a strong model", "a novel model"),
            pair("a novel draft", "a novel model"),
        ]
        stats = dataset_stats(pairs)
        assert stats.pair_count == 4
        assert stats.pct_with_mask == 25.0
        assert stats.pct_changed == 75.0

    def test_permutation_invariant(self):
        pairs = [
            pair("a <*> model", "a novel model"),
            pair("the draft", "the model"),
            pair("one more", "one more"),
        ]
        assert dataset_stats(pairs) == dataset_stats(pairs[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([])


@pytest.fixture(scope="module")
def tiny_lm():
    return lm.train(academic_sentences(60, seed=5), lm.TrainConfig(order=3))


class TestLinguisticProfile:
    def test_identical_pairs_have_identical_sides(self, tiny_lm):
        sentences = academic_sentences(10, seed=1)
        pairs = [DraftPair(s, s) for s in sentences]
        profile = linguistic_profile(pairs, tiny_lm)
        assert profile.draft == profile.reference
        assert profile.draft.skipped == 0

    def test_single_pair_equals_raw_measures(self, tiny_lm):
        p = pair("the model was tested on the data .", "we test the model .")
        profile = linguistic_profile([p], tiny_lm)
        assert profile.draft.fre_mean == metrics.fre(p.draft)
        assert profile.draft.ppl_mean == tiny_lm.perplexity(p.draft.tokens)
        assert profile.draft.passive_pct == 100.0 * metrics.passive_voice(p.draft)
        assert profile.draft.repetition_pct == 100.0 * metrics.word_repetition(p.draft)
        assert profile.reference.fre_mean == metrics.fre(p.reference)

    def test_means_are_left_fold_sums(self, tiny_lm):
        # Summed left to right, as metrics.evaluate's means are, so that
        # the report's bytes do not depend on the interpreter.
        sentences = academic_sentences(40, seed=2)
        profile = linguistic_profile([DraftPair(s, s) for s in sentences], tiny_lm)
        assert profile.draft.fre_mean == left_fold_mean([metrics.fre(s) for s in sentences])
        assert profile.draft.ppl_mean == left_fold_mean(
            [tiny_lm.perplexity(s.tokens) for s in sentences]
        )

    def test_unscoreable_sentence_skipped_per_side(self, tiny_lm):
        good = pair("the model works well .", "the model works well .")
        bad_draft = pair("...", "a second reference sentence .")
        profile = linguistic_profile([good, bad_draft], tiny_lm)
        assert profile.draft.skipped == 1
        assert profile.reference.skipped == 0
        # The draft mean covers only the scoreable sentence.
        assert profile.draft.fre_mean == metrics.fre(good.draft)

    def test_all_skipped_side_rejected(self, tiny_lm):
        with pytest.raises(ValueError):
            linguistic_profile([pair("...", "the model works .")], tiny_lm)

    def test_empty_rejected(self, tiny_lm):
        with pytest.raises(ValueError):
            linguistic_profile([], tiny_lm)


DRAFTS = ["Will go", "will stay"]
REFERENCES = ["can go", "can stay"]


def contrast_pairs() -> list[DraftPair]:
    return [pair(d, r) for d, r in zip(DRAFTS, REFERENCES)]


class TestCharacteristicTerms:
    def test_hand_corpus_full_ordering(self):
        # Each side has 4 tokens.  "will" appears twice in drafts only:
        # 5000 per 10k versus 0.  The two draft bigrams tie at 2500 and
        # break lexicographically.  "go" and "stay" are balanced (ratio 0)
        # so they appear on neither side.
        terms = characteristic_terms(contrast_pairs(), TermsConfig(top_k=10, epsilon=1.0))
        assert [t.term for t in terms] == [
            "will",
            "will go",
            "will stay",
            "can",
            "can go",
            "can stay",
        ]
        will = terms[0]
        assert will.draft_freq == 5000.0
        assert will.reference_freq == 0.0
        assert will.log_ratio == pytest.approx(math.log(5001.0))
        can = terms[3]
        assert can.log_ratio == pytest.approx(-math.log(5001.0))

    def test_top_k_limits_each_side(self):
        terms = characteristic_terms(contrast_pairs(), TermsConfig(top_k=1, epsilon=1.0))
        assert [t.term for t in terms] == ["will", "can"]

    def test_balanced_term_has_zero_ratio_and_is_excluded(self):
        terms = characteristic_terms(contrast_pairs(), TermsConfig(top_k=10, epsilon=1.0))
        assert "go" not in {t.term for t in terms}

    def test_swapping_sides_negates_ratios(self):
        forward = characteristic_terms(contrast_pairs(), TermsConfig(top_k=10, epsilon=1.0))
        swapped_pairs = [pair(r, d) for d, r in zip(DRAFTS, REFERENCES)]
        backward = characteristic_terms(swapped_pairs, TermsConfig(top_k=10, epsilon=1.0))
        fwd = {t.term: t for t in forward}
        bwd = {t.term: t for t in backward}
        assert set(fwd) == set(bwd)
        for term, t in fwd.items():
            assert bwd[term].log_ratio == pytest.approx(-t.log_ratio)
            assert bwd[term].draft_freq == t.reference_freq
            assert bwd[term].reference_freq == t.draft_freq

    def test_case_folding(self):
        # "Will" and "will" count as the same term.
        [top] = characteristic_terms(contrast_pairs(), TermsConfig(top_k=1, epsilon=1.0))[:1]
        assert top.term == "will"
        assert top.draft_freq == 5000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            characteristic_terms([], TermsConfig(top_k=5))
        with pytest.raises(ValueError):
            characteristic_terms(contrast_pairs(), TermsConfig(top_k=0))
        with pytest.raises(ValueError):
            characteristic_terms(contrast_pairs(), TermsConfig(top_k=5, epsilon=0.0))

    def test_contrast_fields_are_finite(self):
        for t in characteristic_terms(contrast_pairs(), TermsConfig(top_k=10, epsilon=0.5)):
            assert isinstance(t, TermContrast)
            assert t.draft_freq >= 0.0 and t.reference_freq >= 0.0
            assert math.isfinite(t.log_ratio)
