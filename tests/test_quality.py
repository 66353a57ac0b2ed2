"""Worker scoring, spell check, language heuristics, and the pair filter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import draftkit
from draftkit import quality
from draftkit.corpus import DraftPair, RecordError, Sentence, tokenize
from draftkit.metrics import levenshtein_char
from draftkit.quality import (
    CRITERION_ALL_SHORT,
    CRITERION_ENGLISH,
    CRITERION_FEW_TYPES,
    CRITERION_IDENTICAL,
    CRITERION_JAPANESE,
    CRITERION_LD_CLOSE,
    CRITERION_LD_FAR,
    CRITERION_LD_NEAR,
    CRITERION_MASK,
    CRITERION_NO_TERMINAL,
    CRITERION_NOT_ENGLISH,
    CRITERION_SHORT,
    CRITERION_TERMINAL,
    CRITERION_TIME,
    REJECT,
    FilterConfig,
    WorkerSubmission,
    contains_japanese,
    filter_pairs,
    load_submissions,
    score_workers,
    spell_check,
    spell_check_all,
)
from draftkit.resources import load_wordlist
from oracles import all_strings, nearest_entry_scan


def sent(*tokens: str) -> Sentence:
    return Sentence.from_tokens(tokens)


class TestSpellCheck:
    def test_exemplar_misspelling(self):
        result = spell_check(Sentence.from_text("the KBP 2017 coupus is large ."))
        assert result.corrected_text == "the KBP 2017 corpus is large ."
        assert result.corrections == (("coupus", "corpus"),)

    def test_clean_sentence_untouched(self):
        s = Sentence.from_text("the model is on the machine .")
        result = spell_check(s)
        assert result.corrected_text == s.text
        assert result.corrections == ()

    def test_hopeless_token_left_alone(self):
        result = spell_check(Sentence.from_text("zzqqzz model"))
        assert result.corrected_text == "zzqqzz model"
        assert result.corrections == ()

    def test_numbers_punctuation_mask_never_touched(self):
        s = sent("13", ".", "<*>", "x-y", "Qx9")
        result = spell_check(s)
        assert result.corrected_text == s.text
        assert result.corrections == ()

    def test_higher_frequency_candidate_wins(self):
        assert packed_pick("caz", {"cat": 100, "car": 900}) == "car"

    def test_frequency_tie_breaks_lexicographically(self):
        assert packed_pick("aat", {"cat": 100, "bat": 100}) == "bat"

    def test_distance_one_beats_richer_distance_two(self):
        assert packed_pick("caz", {"cart": 10_000, "cat": 5}) == "cat"

    def test_distance_two_used_when_needed(self):
        assert packed_pick("modle", {"model": 100}) == "model"
        # The bundled list has "more", two edits away and more frequent.
        assert spell_check(sent("modle")).corrected_text == "more"

    def test_title_case_restored(self):
        result = spell_check(sent("Coupus", "works"))
        assert result.corrected_text == "Corpus works"
        assert result.corrections == (("Coupus", "Corpus"),)

    def test_corrections_replay_onto_original(self):
        s = sent("teh", "cat", "teh", "dgo", ".")
        result = spell_check(s)
        assert result.corrections == (("teh", "the"), ("teh", "the"), ("dgo", "do"))
        queue = list(result.corrections)
        rebuilt = []
        for token in s.tokens:
            if queue and queue[0][0] == token:
                rebuilt.append(queue.pop(0)[1])
            else:
                rebuilt.append(token)
        assert not queue
        assert " ".join(rebuilt) == result.corrected_text

    def test_token_count_preserved(self):
        s = sent("teh", "catt", "saat", "zzz", "42")
        result = spell_check(s)
        assert len(result.corrected_text.split(" ")) == len(s.tokens)

    def test_bundled_entries_tokenize_to_themselves(self):
        # spell_check_all and filter_pairs keep the corrected tokens
        # without tokenizing their join again; that holds because every
        # bundled replacement, title-cased or not, is one alphanumeric token.
        for entry in load_wordlist():
            assert entry.isalnum() and entry.capitalize().isalnum()
            assert tokenize(entry) == [entry]

    def test_spell_check_all_matches_spell_check_then_retokenize(self):
        texts = ["the modle and the modle agian .", "Teh Modle beats the NASA modle .",
                 "a <*> coupus , teh coupus .", "nothing to fix here ."]
        sentences = [Sentence.from_text(t) for t in texts]
        expected = [Sentence.from_text(spell_check(s).corrected_text) for s in sentences]
        assert spell_check_all(sentences) == expected


def edited(word: str, edits: list[tuple[int, int, str]]) -> str:
    """Apply (kind, position, letter) edits: 0 inserts, 1 deletes, 2 substitutes."""
    chars = list(word)
    for kind, position, letter in edits:
        if kind == 0:
            chars.insert(position % (len(chars) + 1), letter)
        elif chars:
            position %= len(chars)
            if kind == 1:
                del chars[position]
            else:
                chars[position] = letter
    return "".join(chars)


def expected_pick(word: str, dictionary) -> str:
    if word in dictionary:
        return word
    pick = nearest_entry_scan(word, dictionary)
    return word if pick is None else pick


def packed_pick(word: str, dictionary, packed=None) -> str:
    """What spell check makes of the lowercase ``word`` against
    ``dictionary``, through the packed matcher."""
    if word in dictionary:
        return word
    packed = quality._PackedWords(dictionary) if packed is None else packed
    pick = quality._best_correction(word, dictionary, packed)
    return word if pick is None else pick


def one_edit_variants(word: str, letter: str) -> set[str]:
    """Every string one deletion of ``word``, or one insertion or
    substitution of ``letter`` into it, away."""
    found = set()
    for i in range(len(word) + 1):
        found.add(word[:i] + letter + word[i:])
        if i < len(word):
            found.add(word[:i] + word[i + 1 :])
            found.add(word[:i] + letter + word[i + 1 :])
    return found


# Lowercase letters, one of them outside the BMP; entries may also hold a
# combining accent, which no token is made of alone.
WORD_LETTERS = "abeé\U0001D4B6"
ENTRY_CHARS = WORD_LETTERS + "\u0301"


class TestSpellCheckIndex:
    """The packed matcher must pick exactly what a scan of every entry
    picks, on the bundled word list and on any dictionary of non-empty
    entries."""

    @settings(max_examples=150, deadline=None)
    @given(
        dictionary=st.dictionaries(
            st.text(alphabet="abcéß", min_size=1, max_size=6),
            st.integers(min_value=1, max_value=3),
            min_size=1,
            max_size=25,
        ),
        words=st.lists(st.text(alphabet="abcdéß", min_size=1, max_size=8), min_size=1, max_size=4),
    )
    def test_matches_scan_on_random_dictionaries(self, dictionary, words):
        packed = quality._PackedWords(dictionary)
        for w in words:
            assert packed_pick(w, dictionary, packed) == expected_pick(w, dictionary)

    @given(st.sets(st.integers(0, 200), max_size=20))
    def test_bits_sets_exactly_the_listed_positions(self, positions):
        assert quality._bits(sorted(positions)) == sum(1 << pos for pos in positions)

    @settings(max_examples=60, deadline=None)
    @given(
        entry=st.sampled_from(sorted(load_wordlist())),
        edits=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 20), st.sampled_from("abcdefghijklmnopqrstuvwxyzé")
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_matches_scan_on_mutated_wordlist_entries(self, entry, edits):
        word = edited(entry, edits)
        if not word:
            return
        result = spell_check(sent(word))
        assert result.corrected_text == expected_pick(word, load_wordlist())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_scan_with_short_and_combining_entries(self, data):
        entries = data.draw(
            st.lists(st.text(alphabet=ENTRY_CHARS, min_size=1, max_size=5), min_size=1, max_size=12)
        )
        entries += data.draw(st.lists(st.sampled_from(WORD_LETTERS), max_size=3))
        dictionary = {entry: data.draw(st.integers(1, 3)) for entry in entries}
        longest = max(map(len, dictionary))
        words = data.draw(st.lists(st.text(alphabet=WORD_LETTERS, min_size=1, max_size=6), max_size=3))
        # Words 0-3 characters longer than every entry: the longest lane's
        # top bit, and the length bound that skips the matcher.
        for extra in data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
            size = max(longest + extra, 1)
            words.append(data.draw(st.text(alphabet=WORD_LETTERS, min_size=size, max_size=size)))
        packed = quality._PackedWords(dictionary)
        for w in words:
            assert packed_pick(w, dictionary, packed) == expected_pick(w, dictionary)

    def test_matches_scan_on_every_short_word(self):
        dictionary = {"a": 5, "c": 1, "ab": 3, "ba": 3, "abc": 4, "cab": 4,
                      "bbbb": 2, "acca": 6, "abcab": 1, "ccccc": 9}
        packed = quality._PackedWords(dictionary)
        for w in all_strings("abc", 5)[1:]:
            assert packed_pick(w, dictionary, packed) == expected_pick(w, dictionary)

    def test_matches_scan_on_near_variants_of_bundled_entries(self):
        # Every string one or two edits from each of 50 bundled entries,
        # with one letter per entry to insert or substitute.
        wordlist = load_wordlist()
        entries = sorted(wordlist)[:: len(wordlist) // 50][:50]
        for n, entry in enumerate(entries):
            letter = "etaoinsrz"[n % 9]
            once = one_edit_variants(entry, letter)
            variants = sorted((once | {v for w in once for v in one_edit_variants(w, letter)}) - {""})
            # An entry within distance 2 of a variant is within distance 4
            # of ``entry``.  The metrics kernel, which spell check does not
            # use, narrows each variant's scan to the entries within 2 of
            # it; the scan measures them again with the textbook recurrence.
            near: dict[str, dict[str, int]] = {v: {} for v in variants}
            for other in wordlist:
                if levenshtein_char(entry, other) <= 4:
                    for v in variants:
                        if abs(len(other) - len(v)) <= 2 and levenshtein_char(other, v) <= 2:
                            near[v][other] = wordlist[other]
            result = spell_check(sent(*variants))
            assert result.corrected_text.split(" ") == [expected_pick(v, near[v]) for v in variants]

    @pytest.mark.parametrize("size", [1, 2, 255, 256, 257, 1025])
    def test_entry_ids_at_every_field_width(self, size):
        # The last entry has the highest lane of the packed int.
        letters = "vwxyz"
        entries = [
            "q" + "".join(letters[i // 5**k % 5] for k in range(5)) for i in range(size)
        ]
        dictionary = dict.fromkeys(entries, 1)
        word = entries[-1] + "a"
        assert packed_pick(word, dictionary) == entries[-1]
        assert nearest_entry_scan(word, dictionary) == entries[-1]

    def test_overlong_token_rejected_before_any_lookup(self, monkeypatch):
        stepped = []
        rows = quality._PackedWords.rows
        monkeypatch.setattr(quality._PackedWords, "rows", lambda self, w: stepped.append(w) or rows(self, w))
        result = spell_check(sent("the", "cst", "a" * 5_000))
        assert [old for old, _ in result.corrections] == ["cst"]
        assert stepped == ["cst"]

    def test_import_and_wordlist_load_build_no_index(self):
        probe = """
import draftkit.cli
from draftkit import quality
from draftkit.corpus import Sentence
from draftkit.resources import load_wordlist
load_wordlist()
before = quality._bundled_packed.cache_info().currsize
quality.spell_check(Sentence.from_text("the modle"))
print(before, quality._bundled_packed.cache_info().currsize)
"""
        src = Path(draftkit.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]


class TestLanguageHeuristics:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("これはテストです", True),
            ("pure ASCII sentence .", False),
            ("model の performance", True),
            ("テスト", True),
            ("漢字", True),
            ("", False),
        ],
    )
    def test_contains_japanese(self, text, expected):
        assert contains_japanese(text) is expected

    def test_contains_japanese_matches_ranges(self):
        def in_ranges(ch: str) -> bool:
            return any(lo <= ord(ch) <= hi for lo, hi in quality._JAPANESE_RANGES)

        non_bmp = ["\U0001B000", "\U0001F600", "\U00020000", "\U0002F800"]
        for ch in [chr(cp) for cp in range(0x3000, 0xA100)] + non_bmp:
            assert contains_japanese(ch) is in_ranges(ch), hex(ord(ch))
            assert contains_japanese(f"ab {ch} c") is in_ranges(ch), hex(ord(ch))

    def test_common_english_recognized(self):
        assert quality._mostly_listed("the cat sat on the mat .") is True

    def test_gibberish_not_recognized(self):
        assert quality._mostly_listed("xqz vrb plk nnt") is False

    def test_japanese_character_vetoes(self):
        # Five of its six alphabetic tokens are listed; the Japanese
        # character alone withholds the English bonus.
        answer = "the model の performance is good ."
        assert quality._mostly_listed(answer) is True
        verdict = score_one(submission(answers=(answer, *ENGLISH_ANSWERS[1:])))
        assert CRITERION_ENGLISH not in triggered_ids(verdict)

    def test_threshold_boundary_is_inclusive(self):
        # One of two alphabetic tokens is known: exactly 50%.
        assert quality._mostly_listed("model zzqx .") is True
        assert quality._mostly_listed("model zzqx vrbk .") is False

    def test_no_alphabetic_tokens(self):
        assert quality._mostly_listed("12 34 . <*>") is False


def overlap(x: Sentence, y: Sentence) -> float | None:
    return quality._overlap(x.tokens, y.tokens, FilterConfig())


class TestOverlapCoefficient:
    def test_hand_example(self):
        x = sent("We", "propose", "a", "novel", "model")
        y = sent("We", "propose", "a", "strong", "model")
        # U(x) = {propose, novel, model}, U(y) = {propose, strong, model}.
        assert overlap(x, y) == pytest.approx(2 / 3)

    def test_identical_sentences(self):
        x = sent("propose", "novel", "model")
        assert overlap(x, x) == 1.0

    def test_disjoint_content(self):
        assert overlap(sent("propose", "model"), sent("novel", "draft")) == 0.0

    def test_mask_and_stopwords_excluded(self):
        x = sent("<*>", "the", "model")
        y = sent("model", "a")
        assert overlap(x, y) == 1.0

    def test_duplication_and_order_invariance(self):
        x = sent("novel", "model", "model", "novel")
        y = sent("model", "novel")
        assert overlap(x, y) == 1.0
        assert overlap(y, x) == 1.0

    def test_empty_content_is_undefined(self):
        assert overlap(sent("the", "a", "an"), sent("model")) is None
        assert overlap(sent("model"), sent("<*>")) is None

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.sampled_from(["propose", "novel", "model", "draft"]), min_size=1, max_size=6),
        ys=st.lists(st.sampled_from(["propose", "novel", "model", "strong"]), min_size=1, max_size=6),
    )
    def test_symmetry(self, xs, ys):
        x, y = sent(*xs), sent(*ys)
        assert overlap(x, y) == overlap(y, x)
        assert 0.0 <= overlap(x, y) <= 1.0


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.alpha == 0.4
        assert "the" in cfg.stopwords

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            FilterConfig(alpha=1.5)

    def test_mask_token_cannot_be_stopword(self):
        with pytest.raises(ValueError):
            FilterConfig(stopwords=frozenset({"the", "<*>"}))


# Words, typos of them in three casings, and tokens spell check leaves
# alone.
FILTER_WORDS = st.sampled_from(
    ["the", "model", "modle", "Modle", "MODLE", "data", "dta", "corpus", "coupus", "Coupus",
     "results", "reslts", "teh", "Teh", "2019", ",", ".", "(", ")", "<*>", "qqzz", "us", "Us",
     "newyork", "Newyork", "new", "york", "u.s."]
)


class TestFilterPairs:
    def pair(self, draft: str, reference: str) -> DraftPair:
        return DraftPair.from_texts(draft, reference)

    def test_high_overlap_kept(self):
        pairs = [self.pair("We propose a novel model", "We propose a strong model")]
        kept, removed = filter_pairs(pairs)
        assert kept == pairs and removed == []

    def test_boundary_is_kept(self):
        # |intersection| = 2 over min(5, 5): exactly 0.4, strict < removes.
        draft = "propose novel qq1 qq2 qq3"
        reference = "propose novel model strong draft"
        kept, removed = filter_pairs([self.pair(draft, reference)])
        assert len(kept) == 1 and removed == []

    def test_low_overlap_removed_with_reason(self):
        pairs = [self.pair("propose qq1 qq2 qq3 qq4", "propose novel model strong draft")]
        kept, removed = filter_pairs(pairs)
        assert kept == []
        [(removed_pair, reason)] = removed
        assert removed_pair == pairs[0]
        assert "0.2" in reason and "0.4" in reason

    def test_stopword_only_draft_removed_as_undefined(self):
        kept, removed = filter_pairs([self.pair("the a an", "novel model")])
        assert kept == []
        [(_, reason)] = removed
        assert "undefined" in reason

    def test_overlap_computed_on_spell_checked_draft(self):
        pair = self.pair("the coupus", "a corpus")
        kept, removed = filter_pairs([pair])
        assert kept == [pair] and removed == []

    def test_partition_is_exhaustive_and_disjoint(self):
        pairs = [
            self.pair("propose novel model", "propose novel model"),
            self.pair("qq1 qq2 qq3", "novel model draft"),
            self.pair("the a", "novel model"),
        ]
        kept, removed = filter_pairs(pairs)
        assert len(kept) + len(removed) == len(pairs)
        removed_pairs = [p for p, _ in removed]
        assert all((p in kept) != (p in removed_pairs) for p in pairs)

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(
            st.tuples(st.lists(FILTER_WORDS, max_size=10), st.lists(FILTER_WORDS, max_size=10)),
            max_size=6,
        ),
        alpha=st.sampled_from([0.0, 0.4, 1.0]),
    )
    def test_matches_spell_check_then_retokenize(self, texts, alpha):
        pairs = [
            DraftPair.from_texts(" ".join(draft), " ".join(w for w in reference if w != "<*>"))
            for draft, reference in texts
        ]
        cfg = FilterConfig(alpha=alpha)
        assert filter_pairs(pairs, cfg) == filter_pairs_by_spell_check(pairs, cfg)

    def test_each_out_of_dictionary_type_looked_up_once(self, monkeypatch):
        looked_up = []
        best = quality._best_correction
        monkeypatch.setattr(
            quality, "_best_correction", lambda w, d, i: looked_up.append(w) or best(w, d, i)
        )
        pairs = [self.pair("teh modle", "the model"), self.pair("Teh MODLE coupus", "the corpus")] * 3
        filter_pairs(pairs)
        assert sorted(looked_up) == ["coupus", "modle", "teh"]


def filter_pairs_by_spell_check(pairs, cfg):
    """filter_pairs as spell check, then tokenizing the corrected text,
    then the overlap coefficient of the content types (lowercased, minus
    stopwords and the mask token), one pair at a time."""
    kept, removed = [], []
    for pair in pairs:
        draft = Sentence.from_text(spell_check(pair.draft).corrected_text)
        ux, uy = ({t.lower() for t in s.tokens} - cfg.stopwords - {"<*>"}
                  for s in (draft, pair.reference))
        if not ux or not uy:
            removed.append((pair, "overlap with reference undefined (no content tokens)"))
            continue
        score = len(ux & uy) / min(len(ux), len(uy))
        if score < cfg.alpha:
            removed.append((pair, f"overlap {score:.4f} below alpha {cfg.alpha}"))
        else:
            kept.append(pair)
    return kept, removed


ENGLISH_ANSWERS = (
    "the cat sat on the mat .",
    "a cat sat on a <*> mat .",
    "the model sat on the mat .",
)


def submission(
    answers=ENGLISH_ANSWERS,
    seconds=300,
    distances=(35, 35, 35),
    worker="w1",
) -> WorkerSubmission:
    """Each MT reference is the answer plus d trailing characters, so the
    character distance to it is exactly d."""
    refs = tuple(a + "z" * d for a, d in zip(answers, distances))
    return WorkerSubmission(
        worker_id=worker, answers=tuple(answers), seconds_worked=seconds, mt_references=refs
    )


def triggered_ids(verdict):
    return [cid for cid, _ in verdict.triggered]


def score_one(sub: WorkerSubmission):
    return score_workers([sub])[0]


class TestWorkerSubmission:
    def test_requires_three_answers(self):
        with pytest.raises(ValueError):
            WorkerSubmission("w", ("a", "b"), 100, ("x", "y"))

    def test_requires_aligned_references(self):
        with pytest.raises(ValueError):
            WorkerSubmission("w", ("a", "b", "c"), 100, ("x", "y"))

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            WorkerSubmission("w", ("a", "b", "c"), -1, ("x", "y", "z"))


class TestScoreWorker:
    def test_perfect_submission_scores_three(self):
        # Terminal punctuation, a mask token, and recognized English each
        # add one point; distances of 35 clear every band.
        verdict = score_one(submission())
        assert verdict.score == 3.0
        assert verdict.accepted is True
        assert sorted(triggered_ids(verdict)) == sorted(
            [CRITERION_TERMINAL, CRITERION_MASK, CRITERION_ENGLISH]
        )

    def test_boundary_score_zero_accepted(self):
        answers = (
            "the cat sat on the mat .",
            "a cat sat on a big mat .",
            "the model sat on the mat .",
        )
        # -1.5 - 0.5 + 1 + 1 = 0: accepted sits exactly on the boundary.
        verdict = score_one(submission(answers=answers, distances=(15, 25, 35)))
        assert verdict.score == 0.0
        assert verdict.accepted is True

    def test_negative_score_rejected_without_reject_criterion(self):
        verdict = score_one(submission(distances=(15, 15, 25)))
        assert verdict.score == pytest.approx(-1.5 - 1.5 - 0.5 + 1 + 1 + 1)
        assert verdict.accepted is False
        assert all(delta != REJECT for _, delta in verdict.triggered)

    @pytest.mark.parametrize(
        "distance,expected_id,expected_delta",
        [
            (0, CRITERION_LD_CLOSE, REJECT),  # a copy of the machine translation
            (8, CRITERION_LD_CLOSE, REJECT),
            (10, CRITERION_LD_CLOSE, REJECT),
            (11, CRITERION_LD_NEAR, -1.5),
            (19, CRITERION_LD_NEAR, -1.5),
            (20, CRITERION_LD_FAR, -0.5),
            (30, CRITERION_LD_FAR, -0.5),
        ],
    )
    def test_distance_bands(self, distance, expected_id, expected_delta):
        verdict = score_one(submission(distances=(distance, 35, 35)))
        assert (expected_id, expected_delta) in verdict.triggered

    def test_distance_above_band_is_free(self):
        verdict = score_one(submission(distances=(31, 35, 35)))
        assert not any(cid.startswith("worker.ld") for cid in triggered_ids(verdict))

    def test_close_translation_rejects_despite_score(self):
        verdict = score_one(submission(distances=(8, 35, 35)))
        assert verdict.accepted is False

    def test_working_time_boundary(self):
        assert score_one(submission(seconds=119)).accepted is False
        assert CRITERION_TIME in triggered_ids(score_one(submission(seconds=119)))
        ok = score_one(submission(seconds=120))
        assert ok.accepted is True
        assert CRITERION_TIME not in triggered_ids(ok)

    def test_one_short_answer_costs_four_points(self):
        answers = ("the cat sat.", ENGLISH_ANSWERS[1], ENGLISH_ANSWERS[2])
        verdict = score_one(submission(answers=answers))
        ids = triggered_ids(verdict)
        # Three whitespace words also means fewer than four distinct types.
        assert CRITERION_SHORT in ids and CRITERION_FEW_TYPES in ids
        assert CRITERION_ALL_SHORT not in ids
        assert verdict.score == pytest.approx(-2 - 2 + 1 + 1 + 1)
        assert verdict.accepted is False

    def test_all_answers_short_rejects(self):
        answers = ("the cat sat.", "a cat sat.", "the mat sat.")
        verdict = score_one(submission(answers=answers))
        assert CRITERION_ALL_SHORT in triggered_ids(verdict)
        assert verdict.accepted is False

    def test_few_types_alone(self):
        answers = ("the the the the the .", ENGLISH_ANSWERS[1], ENGLISH_ANSWERS[2])
        verdict = score_one(submission(answers=answers))
        ids = triggered_ids(verdict)
        assert CRITERION_FEW_TYPES in ids and CRITERION_SHORT not in ids
        assert verdict.score == pytest.approx(-2 + 1 + 1 + 1)

    def test_no_terminal_punctuation_rejects(self):
        answers = tuple(a.rstrip(" .") for a in ENGLISH_ANSWERS)
        verdict = score_one(submission(answers=answers))
        ids = triggered_ids(verdict)
        assert CRITERION_NO_TERMINAL in ids and CRITERION_TERMINAL not in ids
        assert verdict.accepted is False

    def test_question_mark_counts_as_terminal(self):
        answers = tuple(a.rstrip(". ") + " ?" for a in ENGLISH_ANSWERS)
        verdict = score_one(submission(answers=answers))
        assert CRITERION_TERMINAL in triggered_ids(verdict)

    def test_identical_answers_reject_after_whitespace_normalization(self):
        answers = (ENGLISH_ANSWERS[0], "the  cat sat on the mat .  ", ENGLISH_ANSWERS[2])
        verdict = score_one(submission(answers=answers))
        assert CRITERION_IDENTICAL in triggered_ids(verdict)
        assert verdict.accepted is False

    def test_japanese_answer_rejects_without_not_english(self):
        answers = (ENGLISH_ANSWERS[0], "the cat sat on の mat .", ENGLISH_ANSWERS[2])
        verdict = score_one(submission(answers=answers))
        ids = triggered_ids(verdict)
        assert CRITERION_JAPANESE in ids
        assert CRITERION_NOT_ENGLISH not in ids

    def test_japanese_check_runs_once_per_answer(self, monkeypatch):
        # The language bonus and the Japanese rejection share one check.
        calls = []
        check = quality.contains_japanese
        monkeypatch.setattr(
            quality, "contains_japanese", lambda text: calls.append(text) or check(text)
        )
        japanese = (ENGLISH_ANSWERS[0], "the cat sat on の mat .", ENGLISH_ANSWERS[2])
        score_workers([submission(), submission(answers=japanese)])
        assert calls == [*ENGLISH_ANSWERS, *japanese]

    def test_no_english_answer_rejects(self):
        answers = ("xqz vrb plk nnt .", "qqn wrt zzk lpm .", "vvx bbn mmk rrt .")
        verdict = score_one(submission(answers=answers))
        ids = triggered_ids(verdict)
        assert CRITERION_NOT_ENGLISH in ids
        assert CRITERION_ENGLISH not in ids
        assert verdict.accepted is False

    def test_permuting_items_preserves_verdict(self):
        base = submission(distances=(15, 25, 35))
        order = (2, 0, 1)
        shuffled = WorkerSubmission(
            worker_id=base.worker_id,
            answers=tuple(base.answers[i] for i in order),
            seconds_worked=base.seconds_worked,
            mt_references=tuple(base.mt_references[i] for i in order),
        )
        a, b = score_one(base), score_one(shuffled)
        assert a.score == b.score
        assert a.accepted == b.accepted
        assert sorted(map(repr, a.triggered)) == sorted(map(repr, b.triggered))

    def test_accepted_iff_no_reject_and_nonnegative(self):
        cases = [
            submission(),
            submission(seconds=90),
            submission(distances=(8, 35, 35)),
            submission(distances=(15, 15, 25)),
            submission(answers=("the cat sat.", "a cat sat.", "the mat sat.")),
        ]
        for sub in cases:
            verdict = score_one(sub)
            has_reject = any(delta == REJECT for _, delta in verdict.triggered)
            assert verdict.accepted == (not has_reject and verdict.score >= 0)


class TestSubmissionsIO:
    def write(self, tmp_path, lines):
        path = tmp_path / "subs.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        record = {
            "worker_id": "w7",
            "answers": list(ENGLISH_ANSWERS),
            "seconds": 240,
            "mt_references": ["r1", "r2", "r3"],
        }
        path = self.write(tmp_path, [json.dumps(record)])
        [sub] = load_submissions(path)
        assert sub.worker_id == "w7"
        assert sub.answers == ENGLISH_ANSWERS
        assert sub.seconds_worked == 240
        assert sub.mt_references == ("r1", "r2", "r3")

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        record = {"worker_id": "w", "answers": ["a", "b", "c"], "seconds": 1,
                  "mt_references": ["r", "r", "r"]}
        lines = ["", json.dumps(record), "  \t", "\xa0", json.dumps(record), "\u3000"]
        path = self.write(tmp_path, lines)
        assert [sub.worker_id for sub in load_submissions(path)] == ["w", "w"]
        path = self.write(tmp_path, ["", json.dumps(record), "  ", "{not json"])
        with pytest.raises(RecordError, match=":4:"):
            load_submissions(path)

    def test_bad_json_names_line(self, tmp_path):
        path = self.write(tmp_path, ["{not json"])
        with pytest.raises(RecordError, match=":1:"):
            load_submissions(path)

    def test_wrong_answer_count_names_line(self, tmp_path):
        record = {
            "worker_id": "w",
            "answers": ["a", "b"],
            "seconds": 240,
            "mt_references": ["r", "r", "r"],
        }
        path = self.write(tmp_path, [json.dumps({"worker_id": "ok", "answers": ["a .", "b .", "c ."], "seconds": 130, "mt_references": ["x", "y", "z"]}), json.dumps(record)])
        with pytest.raises(RecordError, match=":2:"):
            load_submissions(path)
