"""Tests for the evaluation metrics.

Expected values are frozen from independent computations: a memoized
recursive edit distance, a recursive LCS, and hand-counted n-gram
tables written out in comments next to the assertions.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    align_reference,
    bleu_reference,
    bleu_stats_reference,
    edit_runs_reference,
    lcs_length_recursive,
    left_fold_mean,
    levenshtein_recursive,
)

from draftkit import metrics
from draftkit.corpus import Sentence
from draftkit.metrics import (
    _edit_runs,
    evaluate,
    fre,
    grammaticality,
    levenshtein_char,
    levenshtein_pairs,
    passive_voice,
    rouge_l,
    syllable_count,
    word_repetition,
)

short_text = st.text(max_size=12)
word = st.sampled_from(["the", "cat", "sat", "model", "data", "a", "ran", "."])
token_list = st.lists(word, min_size=1, max_size=8)
# Few token types make long common subsequences and repeated n-grams;
# empty and short lists leave BLEU orders without candidate n-grams.
few_types = st.integers(2, 3).map(lambda k: st.sampled_from("abc"[:k]))
short_tokens = st.lists(st.sampled_from(["the", "modle", "model", "a", "."]), max_size=6)


def sent(*tokens: str) -> Sentence:
    return Sentence.from_tokens(tokens)


class TestLevenshteinChar:
    def test_identical_strings(self):
        assert levenshtein_char("draft", "draft") == 0
        assert levenshtein_char("", "") == 0

    def test_pure_insertion(self):
        assert levenshtein_char("", "abc") == 3
        assert levenshtein_char("abc", "") == 3

    def test_kitten_sitting(self):
        # Recursive oracle agrees: two substitutions plus one insertion.
        assert levenshtein_recursive("kitten", "sitting") == 3
        assert levenshtein_char("kitten", "sitting") == 3

    def test_unicode_code_points(self):
        assert levenshtein_char("café", "cafe") == 1
        assert levenshtein_char("𝒜b", "ab") == 1

    @given(short_text, short_text)
    def test_matches_recursive_oracle(self, a, b):
        assert levenshtein_char(a, b) == levenshtein_recursive(a, b)

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein_char(a, b) == levenshtein_char(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_char(a, c) <= levenshtein_char(a, b) + levenshtein_char(b, c)

    @given(short_text, short_text)
    def test_identity_of_indiscernibles(self, a, b):
        assert (levenshtein_char(a, b) == 0) == (a == b)

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=60)
    def test_both_internal_paths_agree(self, a, b):
        # Pairs of up to 40 x 40 = 1,600 DP cells.  The first call after
        # another first argument steps the kernel over every column of a
        # fresh automaton; repeating the first argument walks the columns
        # and transitions that call kept.
        levenshtein_char("\0" * 41, "x")
        first = levenshtein_char(a, b)
        repeated = levenshtein_char(a, b)
        assert first == repeated == levenshtein_recursive(a, b)

    @given(
        st.sampled_from([8, metrics._MAX_MOVES]),
        st.lists(st.text(alphabet="ab\U0001d49c", max_size=8), min_size=1, max_size=3),
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 90),
                st.text(alphabet="abc\U0001d49c\U0001f600", max_size=40),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_state_across_calls(self, bound, patterns, calls):
        # Each second argument keeps a prefix of the one before; the first
        # argument repeats and switches back and forth, and either side may
        # be empty.  A small bound makes most calls run past it.
        text = ""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_MAX_MOVES", bound)
            # Start from a first argument no example uses, so no state
            # kept under another bound carries over.
            levenshtein_char("\0", "x")
            for which, keep, tail in calls:
                pattern = patterns[which % len(patterns)]
                text = text[:keep] + tail
                assert levenshtein_char(pattern, text) == levenshtein_recursive(pattern, text)
                kept = metrics._kept_patterns
                assert len(kept) == 1
                state = kept[0]
                assert state.moves <= bound
                assert len(state.columns) <= state.moves + 1
                assert len(state.masks) <= len(state.text)

    def test_empty_pool_builds_and_keeps_a_pattern(self, monkeypatch):
        # A call that finds no kept automaton (another thread holds it)
        # builds one for its first argument and keeps it.
        monkeypatch.setattr(metrics, "_kept_patterns", [])
        assert levenshtein_char("kitten", "sitting") == 3
        assert [pat.text for pat in metrics._kept_patterns] == ["kitten"]


# Letters, a non-BMP letter, a combining accent and its precomposed form.
lane_text = st.text(alphabet="ab\U0001d49c\u0301\u00e9", max_size=12)


def recursive_distances(pairs):
    return [levenshtein_recursive(a, b) for a, b in pairs]


class TestLevenshteinPairs:
    @given(st.lists(st.tuples(lane_text | short_text, lane_text | short_text), max_size=40))
    def test_matches_recursive_oracle(self, pairs):
        assert levenshtein_pairs(pairs) == recursive_distances(pairs)

    def test_pairs_that_trim_to_an_empty_side(self):
        pairs = [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("draft", "draft"),
            ("abc", "abxc"),  # only an insertion is left
            ("abxc", "abc"),
            ("aab", "ab"),
            ("ab", "aab"),
            ("abc", "xabc"),
            ("\U0001d49cb", "b"),
        ]
        assert levenshtein_pairs(pairs) == recursive_distances(pairs)

    def test_more_pairs_than_one_pack(self):
        rng = random.Random(13)
        pairs = [
            ("".join(rng.choices("abcde", k=rng.randint(0, 15))),
             "".join(rng.choices("abcde", k=rng.randint(0, 15))))
            for _ in range(3 * metrics._PACK_LANES + 7)
        ]
        assert levenshtein_pairs(pairs) == recursive_distances(pairs)

    def test_texts_ending_at_every_step(self):
        # One pack whose lanes' texts have every length from 3 to 42, so
        # a lane ends (and is cut off) at each of those steps.
        pairs = [("x" + "ab" * (n // 4) + "y", "q" + "ba" * (n // 2) + "abc"[: n % 2] + "r")
                 for n in range(1, 41)]
        assert levenshtein_pairs(pairs) == recursive_distances(pairs)

    def test_repeated_character_lanes_side_by_side(self):
        # Runs of one character make the addition carry through a whole
        # lane; lengths 7, 15 and 23 leave a lane exactly one guard bit.
        # The first and last characters differ, so nothing is trimmed.
        pairs = [("b" + "a" * i + "c", "d" + "a" * j + "e") for i in range(25) for j in range(25)]
        assert levenshtein_pairs(pairs) == recursive_distances(pairs)
        pairs = [("a" * i + "b", "c" + "a" * j) for i in range(1, 25) for j in range(1, 25)]
        assert levenshtein_pairs(pairs) == recursive_distances(pairs)

    @given(
        st.lists(st.tuples(short_text, short_text), min_size=1, max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_independent_of_input_order(self, pairs, rng):
        order = list(range(len(pairs)))
        rng.shuffle(order)
        distances = levenshtein_pairs(pairs)
        assert levenshtein_pairs([pairs[i] for i in order]) == [distances[i] for i in order]

    def test_accepts_any_iterable(self):
        assert levenshtein_pairs(iter([("kitten", "sitting"), ("a", "b")])) == [3, 1]
        assert levenshtein_pairs([]) == []


def corpus_bleu(hyp: list[Sentence], ref: list[Sentence]) -> float:
    return evaluate(hyp, hyp, ref).corpus_bleu


class TestBleu:
    def test_identical_corpora(self):
        refs = [sent("the", "cat", "sat", "on", "the", "mat", ".")]
        assert corpus_bleu(refs, refs) == 1.0

    def test_short_identical_corpus_drops_empty_orders(self):
        # Two-token sentences have no 3- or 4-grams; those orders are
        # dropped rather than smoothed, so a perfect match stays 1.0.
        refs = [sent("hi", ".")]
        assert corpus_bleu(refs, refs) == 1.0

    def test_disjoint_corpora_near_zero(self):
        hyp = [sent("aa", "bb", "cc", "dd")]
        ref = [sent("xx", "yy", "zz", "ww")]
        assert 0.0 < corpus_bleu(hyp, ref) < 1e-3

    def test_hand_counted_corpus(self):
        # Pair 1: hyp == ref == [the cat sat on mat]
        #   1-gram 5/5, 2-gram 4/4, 3-gram 3/3, 4-gram 2/2
        # Pair 2: hyp [a dog ran far away], ref [the dog ran far away]
        #   1-gram 4/5 (dog ran far away), 2-gram 3/4, 3-gram 2/3, 4-gram 1/2
        # Pooled:  p1 = 9/10, p2 = 7/8, p3 = 5/6, p4 = 3/4; lengths equal, BP 1.
        hyp = [
            sent("the", "cat", "sat", "on", "mat"),
            sent("a", "dog", "ran", "far", "away"),
        ]
        ref = [
            sent("the", "cat", "sat", "on", "mat"),
            sent("the", "dog", "ran", "far", "away"),
        ]
        expected = (9 / 10 * 7 / 8 * 5 / 6 * 3 / 4) ** 0.25
        assert corpus_bleu(hyp, ref) == pytest.approx(expected, abs=1e-9)

    def test_brevity_penalty(self):
        # Hypothesis is the reference minus its final token: every
        # hypothesis n-gram matches, so BLEU is exactly exp(1 - 10/9).
        ref_tokens = ["the", "quick", "brown", "fox", "jumps", "over", "the", "lazy", "dog", "."]
        hyp = [Sentence.from_tokens(ref_tokens[:-1])]
        ref = [Sentence.from_tokens(ref_tokens)]
        assert corpus_bleu(hyp, ref) == pytest.approx(math.exp(1 - 10 / 9), abs=1e-9)

    @given(st.lists(st.tuples(token_list, token_list), min_size=1, max_size=6), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_record_order_invariance(self, pairs, rnd):
        hyp = [Sentence.from_tokens(h) for h, _ in pairs]
        ref = [Sentence.from_tokens(r) for _, r in pairs]
        before = corpus_bleu(hyp, ref)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        after = corpus_bleu([hyp[i] for i in order], [ref[i] for i in order])
        assert before == after

    @given(st.lists(st.tuples(token_list, token_list), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_range(self, pairs):
        hyp = [Sentence.from_tokens(h) for h, _ in pairs]
        ref = [Sentence.from_tokens(r) for _, r in pairs]
        assert 0.0 <= corpus_bleu(hyp, ref) <= 1.0

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from("abc"), max_size=8), st.lists(st.sampled_from("abc"), max_size=8))
    def test_stats_match_per_order_reference(self, hyp, ref):
        # Three symbols make n-grams repeat, so clipping is tested, and
        # sides shorter than four tokens leave the higher orders empty.
        assert metrics._bleu_stats(hyp, ref) == bleu_stats_reference(hyp, ref)


class TestRougeL:
    def test_identical(self):
        s = sent("the", "cat", "sat", ".")
        assert rouge_l(s, s) == 1.0

    def test_disjoint(self):
        assert rouge_l(sent("aa", "bb"), sent("cc", "dd")) == 0.0

    def test_swapped_middle_tokens(self):
        # LCS of [a b c d] and [a c b d] is 3, so P = R = 3/4 and the
        # F-measure collapses to 0.75 for any beta.
        assert rouge_l(sent("a", "b", "c", "d"), sent("a", "c", "b", "d")) == pytest.approx(0.75)

    def test_weighting_favors_recall(self):
        # LCS 2 both ways.  P=1, R=1/2: F = 2.44*0.5 / (0.5 + 1.44) = 1.22/1.94.
        # P=1/2, R=1:              F = 2.44*0.5 / (1 + 0.72)  = 1.22/1.72.
        precise = rouge_l(sent("a", "b"), sent("a", "b", "c", "d"))
        recalling = rouge_l(sent("a", "b", "c", "d"), sent("a", "b"))
        assert precise == pytest.approx(1.22 / 1.94)
        assert recalling == pytest.approx(1.22 / 1.72)
        assert recalling > precise

    def test_empty_sentence_scores_zero(self):
        assert rouge_l(Sentence.from_tokens([]), sent("a")) == 0.0
        assert rouge_l(sent("a"), Sentence.from_tokens([])) == 0.0

    @given(token_list, token_list)
    @settings(max_examples=60)
    def test_matches_recursive_lcs(self, h, r):
        lcs = lcs_length_recursive(tuple(h), tuple(r))
        if lcs == 0:
            expected = 0.0
        else:
            p, rec = lcs / len(h), lcs / len(r)
            expected = (1 + 1.2**2) * p * rec / (rec + 1.2**2 * p)
        got = rouge_l(Sentence.from_tokens(h), Sentence.from_tokens(r))
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= got <= 1.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_parallel_lcs_matches_recurrence(self, data):
        # Lengths drawn uniformly up to 80, so long pairs are common.
        tokens = data.draw(few_types)
        a, b = (
            tuple(data.draw(st.lists(tokens, min_size=n, max_size=n)))
            for n in data.draw(st.tuples(st.integers(0, 80), st.integers(0, 80)))
        )
        assert metrics._lcs_len(a, b) == lcs_length_recursive(a, b)


class TestEditRuns:
    def test_identical_sentences(self):
        s = ("the", "cat", "sat")
        assert _edit_runs(s, s) == []

    def test_single_substitution(self):
        assert _edit_runs(("a", "b", "c"), ("a", "X", "c")) == [(1, 2, ("X",))]

    def test_insertion_between_tokens(self):
        assert _edit_runs(("a", "c"), ("a", "b", "c")) == [(1, 1, ("b",))]

    def test_deletion(self):
        assert _edit_runs(("a", "b", "c"), ("a", "c")) == [(1, 2, ())]

    @pytest.mark.parametrize(
        "src, tgt, run",
        [
            (("a", "long", "term", "plan"), ("a", "long-term", "plan"), (1, 3, ("long-term",))),
            (("a", "nexttime"), ("a", "next", "time"), (1, 2, ("next", "time"))),
            (("a", "ab", "d"), ("a", "x", "y", "d"), (1, 2, ("x", "y"))),
        ],
        ids=["two_to_one", "one_to_two", "one_to_two_new"],
    )
    def test_unequal_sides_form_one_run(self, src, tgt, run):
        assert _edit_runs(src, tgt) == [run]

    def test_tie_break_prefers_substitution(self):
        # [a b] -> [b a] admits del+match+ins at the same cost; the
        # backtrace prefers the diagonal, giving one merged run.
        assert _edit_runs(("a", "b"), ("b", "a")) == [(0, 2, ("b", "a"))]

    @pytest.mark.parametrize(
        "src, tgt, run",
        [
            (("the", "modle"), ("the", "model"), (1, 2, ("model",))),
            (("the", "model"), ("the", "modell"), (1, 2, ("modell",))),
            (("the", "ml"), ("the", "model"), (1, 2, ("model",))),
            (("machine", "learning"), ("Machine", "learning"), (0, 1, ("Machine",))),
            (("the", "cat"), ("The", "cat"), (0, 1, ("The",))),
            (("fine", ","), ("fine", "."), (1, 2, (".",))),
            (("fine",), ("fine", "."), (1, 1, (".",))),
        ],
        ids=["spelling", "unlisted_word", "far_spelling", "case", "case_of_listed_word",
             "punctuation", "punctuation_insertion"],
    )
    def test_runs_are_untyped(self, src, tgt, run):
        # Edit P/R/F0.5 matches runs, not kinds: a spelling, case or
        # punctuation fix is one plain run, matched like any other.
        assert _edit_runs(src, tgt) == [run]
        s, t = Sentence.from_tokens(src), Sentence.from_tokens(tgt)
        assert metrics._edit_counts(s, t, t) == (1, 1, 1)

    def test_runs_splice_back_from_the_last(self):
        # A deletion in front and an insertion at the end: splicing the
        # later run first keeps the earlier run's indices valid.
        src, tgt = ("a", "b", "c"), ("b", "c", "new")
        runs = _edit_runs(src, tgt)
        assert runs == [(0, 1, ()), (3, 3, ("new",))]
        rebuilt = list(src)
        for start, end, replacement in reversed(runs):
            rebuilt[start:end] = replacement
        assert rebuilt == list(tgt)

    @given(token_list, token_list)
    @settings(max_examples=100)
    def test_round_trip_and_span_discipline(self, src, tgt):
        src, tgt = tuple(src), tuple(tgt)
        runs = _edit_runs(src, tgt)
        assert runs == edit_runs_reference(src, tgt)
        rebuilt = list(src)
        for start, end, replacement in reversed(runs):
            rebuilt[start:end] = replacement
        assert rebuilt == list(tgt)
        prev_end = -1
        for start, end, replacement in runs:
            # Consecutive runs are separated by at least one kept token.
            assert prev_end < start <= end <= len(src)
            assert start < end or replacement
            prev_end = end

    @given(token_list)
    def test_self_extraction_is_empty(self, toks):
        assert _edit_runs(toks, toks) == []


class TestAlign:
    """The alignment under ``_edit_runs``, read off its runs."""

    @pytest.mark.parametrize("alphabet", ["ab", "abc"])
    @settings(max_examples=400)
    @given(data=st.data())
    def test_matches_full_table_reference(self, alphabet, data):
        # Small alphabets make ties common, so the tie-breaking is tested.
        side = st.lists(st.sampled_from(alphabet), max_size=8).map(tuple)
        src, tgt = data.draw(side), data.draw(side)
        assert _edit_runs(src, tgt) == edit_runs_reference(src, tgt)

    def test_common_prefix_is_aligned_by_the_dp(self):
        # Trimming the prefix would give (match, del) and move the edit.
        assert _edit_runs(("a", "a"), ("a",)) == [(0, 1, ())]
        assert align_reference(["a", "a"], ["a"]) == ("del", "match")

    @pytest.mark.parametrize(
        "src, tgt, runs",
        [
            ((), (), []),
            ((), ("a", "b"), [(0, 0, ("a", "b"))]),
            (("a", "b"), (), [(0, 2, ())]),
            (("a", "a"), ("a",), [(0, 1, ())]),
            (("a",), ("a", "a"), [(0, 0, ("a",))]),
        ],
    )
    def test_empty_sides_and_repeats(self, src, tgt, runs):
        assert _edit_runs(src, tgt) == runs == edit_runs_reference(src, tgt)

    @pytest.mark.parametrize("n, m", [(70, 70), (70, 1), (1, 70), (70, 75), (130, 64)])
    def test_columns_wider_than_a_machine_word(self, n, m):
        # The bit vectors are n bits wide; the suffix trim leaves every
        # token of the repeated side to the DP when the last tokens differ.
        rng = random.Random(n * 1000 + m)
        for src, tgt in (
            (("a",) * n, ("a",) * m),
            (("a",) * n + ("b",), ("a",) * m + ("c",)),
            (tuple(rng.choice("ab") for _ in range(n)), tuple(rng.choice("ab") for _ in range(m))),
        ):
            assert _edit_runs(src, tgt) == edit_runs_reference(src, tgt)


class TestEvaluateEditPrf:
    """Edit precision, recall and F0.5 of a one-pair evaluation."""

    def prf(self, src, hyp, ref):
        report = evaluate([src], [hyp], [ref])
        return report.edit_precision, report.edit_recall, report.edit_f05

    def test_hypothesis_equals_reference(self):
        src = sent("a", "b", "c")
        ref = sent("a", "X", "c")
        assert self.prf(src, ref, ref) == (1.0, 1.0, 1.0)

    def test_unedited_hypothesis_scores_zero(self):
        src = sent("a", "b", "c")
        assert self.prf(src, src, sent("a", "X", "c")) == (0.0, 0.0, 0.0)

    def test_everything_unedited(self):
        src = sent("a", "b", "c")
        assert self.prf(src, src, src) == (1.0, 1.0, 1.0)

    def test_half_matching_edits(self):
        # H = {a->A at 0, e->X at 4}, G = {a->A at 0, d->D at 3}: one of
        # two matches on each side, so P = R = 0.5 and
        # F0.5 = 1.25*0.25 / (0.25*0.5 + 0.5) = 0.5.
        src = sent("a", "b", "c", "d", "e")
        hyp = sent("A", "b", "c", "d", "X")
        ref = sent("A", "b", "c", "D", "e")
        assert self.prf(src, hyp, ref) == (0.5, 0.5, 0.5)

    @given(token_list, token_list, token_list)
    @settings(max_examples=60)
    def test_ranges_and_perfect_iff_equal_edit_sets(self, src, hyp, ref):
        s = Sentence.from_tokens(src)
        h = Sentence.from_tokens(hyp)
        r = Sentence.from_tokens(ref)
        p, rec, f = self.prf(s, h, r)
        assert 0.0 <= p <= 1.0 and 0.0 <= rec <= 1.0 and 0.0 <= f <= 1.0
        same_edits = _edit_runs(src, hyp) == _edit_runs(src, ref)
        assert (f == 1.0) == same_edits

    @pytest.mark.parametrize(
        "counts, prf",
        [
            ((0, 0, 0), (1.0, 1.0, 1.0)),
            ((0, 0, 2), (0.0, 0.0, 0.0)),
            ((0, 2, 0), (0.0, 1.0, 0.0)),
            ((0, 2, 2), (0.0, 0.0, 0.0)),
            ((1, 2, 4), (0.5, 0.25, 1.25 * 0.125 / (0.125 + 0.25))),
            ((2, 2, 2), (1.0, 1.0, 1.0)),
        ],
        ids=["nothing_to_do", "nothing_proposed", "nothing_required", "no_match", "partial",
             "all_match"],
    )
    def test_conventions_of_the_counts(self, counts, prf):
        # (matched, proposed, gold): proposing nothing is precise only when
        # nothing was required, and an empty gold set is fully recalled.
        assert metrics._prf_from_counts(*counts) == pytest.approx(prf, abs=1e-15)


class TestRuleErrorDetector:
    def count(self, rule: str, *tokens: str) -> int:
        return getattr(metrics, "_" + rule)(tokens)

    def test_duplicate_word(self):
        assert self.count("duplicate_word", "the", "the", "cat") == 1
        assert self.count("duplicate_word", "The", "the", "cat") == 1
        assert self.count("duplicate_word", "the", "them") == 0
        assert self.count("duplicate_word", ".", ".") == 0

    def test_article_agreement(self):
        assert self.count("article_agreement", "a", "apple") == 1
        assert self.count("article_agreement", "an", "apple") == 0
        assert self.count("article_agreement", "an", "banana") == 1
        assert self.count("article_agreement", "a", "banana") == 0
        assert self.count("article_agreement", "A", "apple") == 1
        assert self.count("article_agreement", "a", "5") == 0
        assert self.count("article_agreement", "a") == 0

    def test_initial_capital(self):
        assert self.count("initial_capital", "the", "cat", ".") == 1
        assert self.count("initial_capital", "The", "cat", ".") == 0
        assert self.count("initial_capital", "(", "works", ")") == 1
        assert self.count("initial_capital", "(", "Works", ")") == 0
        assert self.count("initial_capital", ".", ".") == 0

    def test_unbalanced_pairs(self):
        assert self.count("unbalanced_pairs", "(", "a") == 1
        assert self.count("unbalanced_pairs", "(", "a", ")") == 0
        assert self.count("unbalanced_pairs", "[", "a", "}") == 2
        assert self.count("unbalanced_pairs", '"', "a") == 1
        assert self.count("unbalanced_pairs", '"', "a", '"') == 0

    def test_terminal_punct(self):
        assert self.count("terminal_punct", "The", "cat") == 1
        assert self.count("terminal_punct", "The", "cat", ".") == 0
        assert self.count("terminal_punct", "Really", "?") == 0
        assert self.count("terminal_punct", "Wow", "!") == 0


class TestGrammaticality:
    def test_clean_sentence(self):
        assert grammaticality(Sentence.from_text("The cat sat on the mat .")) == 1.0

    def test_duplicate_and_bracket_detector(self, monkeypatch):
        # 5 tokens, and a detector limited to these two rules sees two
        # errors: "the the" and the unclosed bracket.
        def detector(s):
            return metrics._duplicate_word(s.tokens) + metrics._unbalanced_pairs(s.tokens)

        monkeypatch.setattr(metrics, "_rule_errors", detector)
        s = Sentence.from_text("the the model (works")
        assert grammaticality(s) == pytest.approx(0.6)

    def test_default_detector_sees_four_errors(self):
        # Same sentence under all rules: duplicate, bracket, lowercase
        # start, missing terminal punctuation.
        s = Sentence.from_text("the the model (works")
        assert grammaticality(s) == pytest.approx(0.2)

    def test_two_duplicates_in_ten_tokens(self):
        s = Sentence.from_text("The the cat sat on on the mat today .")
        assert len(s.tokens) == 10
        assert grammaticality(s) == pytest.approx(0.8)

    def test_clamped_at_zero(self):
        # 2 tokens, 3 errors: lowercase start, unbalanced bracket, no
        # terminal punctuation.
        assert grammaticality(sent("the", "(")) == 0.0

    def test_custom_detector_callable(self, monkeypatch):
        # The score is one minus whatever the rule detector counts, per token.
        monkeypatch.setattr(metrics, "_rule_errors", lambda _: 2)
        s = Sentence.from_text("The cat sat on the mat today so well .")
        assert len(s.tokens) == 10
        assert grammaticality(s) == pytest.approx(0.8)

    def test_more_errors_never_increase_score(self, monkeypatch):
        s = Sentence.from_text("The cat sat on the mat today so well .")
        scores = []
        for e in range(12):
            monkeypatch.setattr(metrics, "_rule_errors", lambda _, e=e: e)
            scores.append(grammaticality(s))
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            grammaticality(Sentence.from_tokens([]))


class TestSyllables:
    @pytest.mark.parametrize(
        "word_,count",
        [
            ("cat", 1),
            ("the", 1),
            ("made", 1),
            ("Made", 1),
            ("table", 2),
            ("little", 2),
            ("data", 2),
            ("beautiful", 3),
            ("antelope", 3),
            ("queue", 1),
            ("rhythm", 1),
            ("nth", 1),
            ("aeiou", 1),
            ("strength", 1),
        ],
    )
    def test_frozen_counts(self, word_, count):
        assert syllable_count(word_) == count


class TestIsWord:
    @pytest.mark.parametrize(
        "token, is_word",
        [("model", True), ("3rd", True), ("naïve", True), ("42", False), (".", False),
         ("--", False), ("", False)],
        ids=["letters", "digit_and_letters", "non_ascii", "digits", "period", "dashes", "empty"],
    )
    def test_a_word_holds_a_letter(self, token, is_word):
        assert metrics._is_word(token) is is_word

    @given(st.text(max_size=6))
    def test_matches_any_letter(self, token):
        assert metrics._is_word(token) == any(ch.isalpha() for ch in token)

    def test_one_rule_for_fre_repetition_and_duplicates(self, monkeypatch):
        s = sent("Model", "model", "sat", ".")
        # Three words of 2, 2 and 1 syllables; the period is no word.
        assert fre(s) == pytest.approx(206.835 - 1.015 * 3 - 84.6 * 5 / 3)
        assert word_repetition(s) and metrics._duplicate_word(s.tokens) == 1
        monkeypatch.setattr(metrics, "_is_word", lambda token: False)
        with pytest.raises(ValueError, match="no word tokens"):
            fre(s)
        assert not word_repetition(s) and metrics._duplicate_word(s.tokens) == 0


class TestFre:
    def test_three_monosyllables(self):
        # 206.835 - 1.015*3 - 84.6*(3/3) = 119.19
        assert fre(Sentence.from_text("The cat sat.")) == pytest.approx(119.19, abs=1e-9)

    def test_single_monosyllable(self):
        # All ratios 1: 206.835 - 1.015 - 84.6 = 121.22
        assert fre(Sentence.from_text("Go.")) == pytest.approx(121.22, abs=1e-9)

    def test_no_word_tokens_rejected(self):
        with pytest.raises(ValueError):
            fre(Sentence.from_text("..."))

    def test_more_syllables_lower_score(self):
        frame = "The {} sat ."
        chain = ["cat", "data", "beautiful"]  # 1, 2, 3 syllables
        scores = [fre(Sentence.from_text(frame.format(w))) for w in chain]
        assert scores[0] > scores[1] > scores[2]


class TestPassiveVoice:
    def test_be_plus_participle(self):
        assert passive_voice(Sentence.from_text("The model was trained on data .")) is True

    def test_active_sentence(self):
        assert passive_voice(Sentence.from_text("We train the model .")) is False

    def test_adverb_is_skipped(self):
        assert passive_voice(Sentence.from_text("Results are carefully evaluated .")) is True

    def test_irregular_participle(self):
        assert passive_voice(Sentence.from_text("The paper was written by experts .")) is True

    def test_negation_is_skipped(self):
        assert passive_voice(Sentence.from_text("The bug was not fixed .")) is True

    def test_be_without_participle(self):
        assert passive_voice(Sentence.from_text("The cat was on the mat .")) is False

    def test_participle_beyond_window(self):
        assert passive_voice(Sentence.from_text("He was sure someone else cleaned it .")) is False

    def test_custom_recognizer(self, monkeypatch):
        # passive_voice asks the participle recognizer about each token
        # after a be-form.
        s = Sentence.from_text("It was zorpt .")
        assert passive_voice(s) is False
        monkeypatch.setattr(metrics, "_is_participle", lambda w: w == "zorpt")
        assert passive_voice(s) is True


class TestWordRepetition:
    def test_repeated_content_word(self):
        assert word_repetition(Sentence.from_text("the model improves the model quality")) is True

    def test_all_distinct(self):
        assert word_repetition(Sentence.from_text("The authors wrote a clean draft .")) is False

    def test_window_boundary(self):
        inside = sent("model", "one", "two", "three", "four", "model")
        outside = sent("model", "one", "two", "three", "four", "five", "model")
        assert word_repetition(inside) is True
        assert word_repetition(outside) is False

    def test_stopwords_ignored(self):
        assert word_repetition(Sentence.from_text("the cat likes the dog")) is False

    def test_case_insensitive(self):
        assert word_repetition(sent("Model", "x", "model")) is True


class FixedPerplexity:
    """Stand-in scorer: perplexity equals the token count."""

    def perplexity(self, tokens):
        return float(len(tokens))


class TestEvaluate:
    @given(st.lists(st.tuples(short_tokens, short_tokens, short_tokens), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_single_pass_equals_separate_metric_calls(self, triples):
        sources, hyps, refs = ([Sentence.from_tokens(t) for t in side] for side in zip(*triples))
        report = evaluate(sources, hyps, refs)
        pairs = [(hyp.tokens, ref.tokens) for hyp, ref in zip(hyps, refs)]
        assert report.corpus_bleu == bleu_reference(pairs)
        for src, hyp, ref, pair in zip(sources, hyps, refs, report.per_pair):
            assert pair.bleu == bleu_reference([(hyp.tokens, ref.tokens)])
            proposed, gold = (set(edit_runs_reference(src.tokens, t.tokens)) for t in (hyp, ref))
            counts = (len(proposed & gold), len(proposed), len(gold))
            assert (pair.edit_matches, pair.edit_proposed, pair.edit_gold) == counts

    def build(self, lm=None):
        sources = [
            Sentence.from_text("the cat sat on the mat"),
            Sentence.from_text("a dog ran far away"),
            Sentence.from_text("results are evaluated"),
        ]
        hypotheses = [
            Sentence.from_text("The cat sat on the mat ."),
            Sentence.from_text("a dog dog ran far"),
            Sentence.from_text("..."),
        ]
        references = [
            Sentence.from_text("The cat sat on the mat ."),
            Sentence.from_text("A dog ran far away ."),
            Sentence.from_text("Results are evaluated ."),
        ]
        return sources, hypotheses, references, evaluate(
            sources, hypotheses, references, lm=lm
        )

    def test_per_pair_fields_match_direct_metric_calls(self):
        _, hyp, ref, report = self.build()
        assert len(report.per_pair) == 3
        first = report.per_pair[0]
        assert first.bleu == 1.0
        assert first.rouge_l == 1.0
        assert first.levenshtein_char == levenshtein_char(hyp[0].text, ref[0].text)
        assert first.grammaticality == 1.0
        assert first.passive is False

    def test_aggregates_recomputable_from_per_pair(self):
        _, hyp, ref, report = self.build()
        pairs = report.per_pair
        n = len(pairs)
        assert report.corpus_bleu == bleu_reference((h.tokens, r.tokens) for h, r in zip(hyp, ref))
        assert report.mean_rouge_l == pytest.approx(sum(p.rouge_l for p in pairs) / n)
        assert report.passive_rate == pytest.approx(sum(p.passive for p in pairs) / n)
        assert report.repetition_rate == pytest.approx(sum(p.repetition for p in pairs) / n)
        assert report.mean_grammaticality == pytest.approx(
            sum(p.grammaticality for p in pairs) / n
        )
        matches = sum(p.edit_matches for p in pairs)
        proposed = sum(p.edit_proposed for p in pairs)
        gold = sum(p.edit_gold for p in pairs)
        assert proposed > 0 and gold > 0
        assert report.edit_precision == pytest.approx(matches / proposed)
        assert report.edit_recall == pytest.approx(matches / gold)

    def test_means_are_left_fold_sums(self):
        # Built-in sum() of floats compensates its rounding since Python
        # 3.12: sum([0.1] * 10) is 1.0 there and 0.9999999999999999 before.
        # A report's means sum left to right, so its bytes do not depend on
        # the interpreter.
        assert metrics._mean([0.1] * 10) == left_fold_mean([0.1] * 10) == 0.09999999999999999
        _, _, _, report = self.build(lm=FixedPerplexity())
        pairs = report.per_pair
        assert report.mean_rouge_l == left_fold_mean([p.rouge_l for p in pairs])
        assert report.mean_grammaticality == left_fold_mean([p.grammaticality for p in pairs])
        assert report.mean_fre == left_fold_mean([p.fre for p in pairs if p.fre is not None])
        assert report.mean_ppl == left_fold_mean([p.ppl for p in pairs])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_mean_matches_left_fold(self, values):
        assert metrics._mean(values) == left_fold_mean(values)

    def test_fre_skip_counting(self):
        _, _, _, report = self.build()
        assert report.per_pair[2].fre is None
        assert report.skipped_fre == 1
        present = [p.fre for p in report.per_pair if p.fre is not None]
        assert report.mean_fre == pytest.approx(sum(present) / len(present))

    def test_without_lm_ppl_is_skipped(self):
        _, _, _, report = self.build()
        assert all(p.ppl is None for p in report.per_pair)
        assert report.mean_ppl is None
        assert report.skipped_ppl == 3

    def test_with_lm_ppl_is_recorded(self):
        _, hyp, _, report = self.build(lm=FixedPerplexity())
        assert [p.ppl for p in report.per_pair] == [float(len(h.tokens)) for h in hyp]
        assert report.skipped_ppl == 0
        assert report.mean_ppl == pytest.approx(
            sum(len(h.tokens) for h in hyp) / len(hyp)
        )

    def test_fractions_in_range(self):
        _, _, _, report = self.build()
        for value in (
            report.corpus_bleu,
            report.mean_rouge_l,
            report.edit_precision,
            report.edit_recall,
            report.edit_f05,
            report.mean_grammaticality,
            report.passive_rate,
            report.repetition_rate,
        ):
            assert 0.0 <= value <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([sent("a")], [sent("a")], [sent("a"), sent("b")])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="nothing to evaluate"):
            evaluate([], [], [])

    def test_json_dict_round_trips_aggregates(self):
        _, _, _, report = self.build()
        payload = report.to_json_dict()
        assert payload["aggregates"]["corpus_bleu"] == report.corpus_bleu
        assert len(payload["pairs"]) == 3
        assert payload["pairs"][2]["fre"] is None
