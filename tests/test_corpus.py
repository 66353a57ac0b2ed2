"""Tests for tokenization, sentence filtering, and pair I/O."""

from __future__ import annotations

import os
import stat
import sys
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftkit import cli, corpus
from draftkit.corpus import (
    MASK_TOKEN,
    CorpusFilterConfig,
    DraftPair,
    RecordError,
    Sentence,
    atomic_writer,
    iter_checked_lines,
    load_pairs,
    nonblank_lines,
    normalize_sentence,
    pair_line,
    passes_final_filter,
    passes_training_filter,
    tokenize,
    write_pairs,
)
from oracles import read_lines_reference, tokenize_reference
from synth import academic_sentences


# Letters, digits, punctuation of every P* category, Unicode whitespace,
# the mask token and its non-punctuation characters.
TOKENIZER_PIECES = st.one_of(
    st.characters(categories=["L", "N"]),
    st.characters(categories=["P"]),
    st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u1680\u2003\u2028\u3000"),
    st.sampled_from(["<*>", "<", ">"]),
)


class TestTokenize:
    def test_plain_sentence(self):
        assert tokenize("We propose a better model.") == [
            "We", "propose", "a", "better", "model", ".",
        ]

    def test_mask_token_is_never_split(self):
        assert tokenize("the <*> is computed by dynamic programming .") == [
            "the", "<*>", "is", "computed", "by", "dynamic", "programming", ".",
        ]

    def test_mask_token_with_attached_punctuation(self):
        assert tokenize("(<*>).") == ["(", "<*>", ")", "."]

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("(<*>)", ["(", "<*>", ")"]),
            ("<*>.", ["<*>", "."]),
            ('"<*>"', ['"', "<*>", '"']),
            ("*<*>*", ["*", "<*>", "*"]),
        ],
    )
    def test_mask_token_ends_are_not_punctuation(self, text, tokens):
        # "<" and ">" are math symbols (Sm), so peeling stops at either end
        # of the mask token, even when "*" (Po) stands beside it.
        assert unicodedata.category("<") == unicodedata.category(">") == "Sm"
        assert tokenize(text) == tokens == tokenize_reference(text)

    def test_leading_and_trailing_punctuation_detached_in_order(self):
        assert tokenize("(works)") == ["(", "works", ")"]
        assert tokenize('"quoted", yes') == ['"', "quoted", '"', ",", "yes"]

    def test_inner_punctuation_kept(self):
        assert tokenize("a long-term U.S. plan") == ["a", "long-term", "U.S", ".", "plan"]

    def test_pure_punctuation_chunk(self):
        assert tokenize("...") == [".", ".", "."]

    def test_empty_and_whitespace_only(self):
        assert tokenize("") == []
        assert tokenize(" \t\n ") == []

    def test_no_token_is_empty_or_contains_whitespace(self):
        for tok in tokenize("  a  (b)  <*>,  c!  "):
            assert tok
            assert not any(ch.isspace() for ch in tok)

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent_under_join_and_retokenize(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.lists(TOKENIZER_PIECES, max_size=40).map("".join))
    @settings(max_examples=500)
    def test_matches_reference_on_letters_digits_punctuation_and_spaces(self, text):
        assert tokenize(text) == tokenize_reference(text)

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_matches_reference_on_any_text(self, text):
        assert tokenize(text) == tokenize_reference(text)


def test_no_code_point_is_both_alphanumeric_and_punctuation_or_space():
    # tokenize keeps a chunk whole when both its ends are alphanumeric,
    # and quality.filter_pairs does not tokenize an alphanumeric
    # replacement.
    clashes = [
        hex(i) for i in range(sys.maxunicode + 1)
        if chr(i).isalnum()
        and (unicodedata.category(chr(i)).startswith("P") or chr(i).isspace())
    ]
    assert clashes == []


class TestSentence:
    def test_from_text(self):
        s = Sentence.from_text("A tidy sentence.")
        assert s.text == "A tidy sentence."
        assert s.tokens == ("A", "tidy", "sentence", ".")
        assert s.char_len == len("A tidy sentence.")

    def test_from_tokens_joins_with_single_spaces(self):
        s = Sentence.from_tokens(["a", MASK_TOKEN, "plan", "."])
        assert s.text == "a <*> plan ."
        assert s.tokens == ("a", MASK_TOKEN, "plan", ".")

    def test_has_mask(self):
        assert Sentence.from_text("a <*> b").has_mask
        assert not Sentence.from_text("a b").has_mask

    def test_char_len_counts_unicode_scalars(self):
        assert Sentence.from_text("naïve café").char_len == 10


class TestDraftPair:
    def test_has_mask_follows_draft(self):
        pair = DraftPair(Sentence.from_text("a <*> c"), Sentence.from_text("a b c"))
        assert pair.has_mask
        pair = DraftPair(Sentence.from_text("a c"), Sentence.from_text("a b c"))
        assert not pair.has_mask

    def test_reference_may_not_contain_mask(self):
        with pytest.raises(ValueError):
            DraftPair(Sentence.from_text("a b"), Sentence.from_text("a <*> b"))


class TestNormalize:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_sentence("The  Model\tworks ") == "the model works"


class TestFilterConfig:
    def test_defaults(self):
        cfg = CorpusFilterConfig()
        assert cfg.min_chars == 70
        assert cfg.max_chars == 120
        assert cfg.min_tokens == 5
        assert cfg.max_tokens == 35
        assert cfg.min_alpha_ratio == 0.5

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            CorpusFilterConfig(min_chars=10, max_chars=5)
        with pytest.raises(ValueError):
            CorpusFilterConfig(min_tokens=9, max_tokens=2)

    def test_rejects_bad_alpha_ratio(self):
        with pytest.raises(ValueError):
            CorpusFilterConfig(min_alpha_ratio=1.5)

    def test_exclusion_is_normalized(self):
        cfg = CorpusFilterConfig(excluded=frozenset({"The  Model WORKS ."}))
        assert "the model works ." in cfg.excluded


def _sentence_of_length(n: int) -> Sentence:
    # "word word ... word." padded to exactly n characters with x's in the
    # final word; keeps the text free of forbidden characters.
    base = "word " * ((n // 5) - 1)
    tail = "x" * (n - len(base) - 1) + "."
    text = base + tail
    assert len(text) == n
    return Sentence.from_text(text)


class TestFinalFilter:
    def test_char_length_boundaries(self):
        cfg = CorpusFilterConfig()
        lengths = [69, 70, 100, 120, 121]
        kept = [s for s in map(_sentence_of_length, lengths) if passes_final_filter(s, cfg)]
        assert [s.char_len for s in kept] == [70, 100, 120]

    @pytest.mark.parametrize(
        "snippet",
        ["the sum ∑ of", "the α parameter", "see http://example.com for", "as shown in [12] the"],
    )
    def test_forbidden_character_classes(self, snippet):
        text = snippet + " padding" + " word" * 12 + "."
        s = Sentence.from_text(text)
        assert 70 <= s.char_len <= 120
        assert not passes_final_filter(s, CorpusFilterConfig())

    def test_preserves_order_and_is_lazy(self, tmp_path, monkeypatch):
        # corpus extract hands each kept sentence on before it reads the next line.
        path = tmp_path / "in.txt"
        path.write_text("".join(_sentence_of_length(n).text + "\n" for n in (70, 10, 80, 90)),
                        encoding="utf-8")
        read = []

        def lines(p):
            for line_no, text in iter_checked_lines(p):
                read.append(line_no)
                yield line_no, text

        written = []
        monkeypatch.setattr(cli, "iter_checked_lines", lines)
        monkeypatch.setattr(cli, "_write_lines", lambda out, texts: written.extend(
            (len(text), len(read)) for text in texts))
        argv = ["corpus", "extract", "--input", str(path), "--out", str(tmp_path / "out.txt")]
        assert cli.dispatch(argv) == 0
        assert written == [(70, 1), (80, 3), (90, 4)]


class TestTrainingFilter:
    def test_token_count_boundaries(self):
        cfg = CorpusFilterConfig()
        make = lambda k: Sentence.from_tokens(["word"] * k)
        kept = [s for s in map(make, (4, 5, 35, 36)) if passes_training_filter(s, cfg)]
        assert [len(s.tokens) for s in kept] == [5, 35]

    def test_alpha_ratio(self):
        cfg = CorpusFilterConfig()
        # 5 alphabetic of 14 chars = 0.357: dropped.
        low = Sentence.from_text("a1 b2 c3 d4 e5")
        # 10 alphabetic of 19 chars = 0.526: kept.
        high = Sentence.from_text("ab1 cd2 ef3 gh4 ij5")
        assert [passes_training_filter(s, cfg) for s in (low, high)] == [False, True]

    def test_alpha_ratio_boundary_is_inclusive(self):
        # 8 alphabetic of 16 chars = exactly 0.5.
        s = Sentence.from_text("ab1 cd2 ef3 gh45")
        assert sum(ch.isalpha() for ch in s.text) / len(s.text) == 0.5
        cfg = CorpusFilterConfig(min_tokens=4)
        assert passes_training_filter(s, cfg)

    def test_excluded_sentences_dropped_after_normalization(self):
        cfg = CorpusFilterConfig(excluded=frozenset({"the model works well today ."}))
        s = Sentence.from_text("The  Model works well today .")
        assert not passes_training_filter(s, cfg)


class TestPairIO:
    def test_tsv_round_trip(self, tmp_path):
        pairs = [
            DraftPair(Sentence.from_text("a <*> c ."), Sentence.from_text("a b c .")),
            DraftPair(Sentence.from_text("x y"), Sentence.from_text("x y z")),
        ]
        path = tmp_path / "pairs.tsv"
        write_pairs(path, pairs)
        loaded = load_pairs(path)
        assert loaded == pairs
        assert [p.has_mask for p in loaded] == [True, False]

    def test_tsv_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a b\tc d\nonly one field\n", encoding="utf-8")
        with pytest.raises(RecordError) as exc:
            load_pairs(path)
        assert exc.value.line_no == 2

    def test_tsv_three_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(RecordError) as exc:
            load_pairs(path)
        assert exc.value.line_no == 1

    def test_non_utf8_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"good draft\tgood ref\n\xff\xfe broken\tref\n")
        with pytest.raises(RecordError) as exc:
            load_pairs(path)
        assert exc.value.line_no == 2

    def test_mask_in_reference_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("draft here\tref with <*> mask\n", encoding="utf-8")
        with pytest.raises(RecordError) as exc:
            load_pairs(path)
        assert exc.value.line_no == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pairs(tmp_path / "nope.tsv")

    def test_tabs_and_newlines_sanitized_on_write(self, tmp_path):
        pair = DraftPair(Sentence.from_text("a\tb"), Sentence.from_text("c d"))
        path = tmp_path / "pairs.tsv"
        write_pairs(path, [pair])
        text = path.read_text(encoding="utf-8")
        assert text == "a b\tc d\n"

    def test_pair_line_sanitizes_the_texts_only(self):
        pair = DraftPair(Sentence.from_text("a\rb"), Sentence.from_text("c\nd"))
        assert pair_line(pair) == "a b\tc d\n"
        assert pair_line(pair, "x y", "z") == "a b\tc d\tx y\tz\n"


# Byte pieces for the reader test: line ends, a stray CR, multi-byte
# UTF-8, sequences that are truncated or invalid, and byte-order marks.
_LINE_PIECES = (
    b"a", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\r\r\n", b"\xc3\xa9", b"\xe2\x82\xac",
    b"\xf0\x9f\x98\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xff", b"\x80",
    b"\xed\xa0\x80", b"\xc3\n", b"\xe2\x82\n", b"\xc0\xaf", b"\xef\xbb\xbf", b"\xef\xbb",
)


# Characters that str.strip() removes, so a line of them is blank; none
# of them ends a line, which only "\n" does.
_BLANK_CHARS = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"


def checked_lines(path):
    """What ``iter_checked_lines`` yields before it stops, and the
    ``(line_no, reason)`` of the error it stops with, or None."""
    lines = []
    try:
        for item in iter_checked_lines(path):
            lines.append(item)
    except RecordError as err:
        assert str(err) == f"{path}:{err.line_no}: {err.reason}"
        return lines, (err.line_no, err.reason)
    return lines, None


class TestCheckedReaders:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, corpus._BLOCK])
    @settings(max_examples=300)
    @given(
        pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=12),
        final_newline=st.booleans(),
    )
    def test_agrees_with_per_line_reference(
        self, tmp_path_factory, block, pieces, final_newline
    ):
        blob = b"".join(pieces) + (b"\n" if final_newline else b"")
        path = tmp_path_factory.mktemp("lines") / "input.txt"
        path.write_bytes(blob)
        expected, fault = read_lines_reference(path)
        if fault is not None:
            fault = (fault[0], f"not valid UTF-8 ({fault[1]})")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_BLOCK", block)
            assert checked_lines(path) == (expected, fault)

    @pytest.mark.parametrize("at", [-1, 0, 1])
    def test_lines_across_default_blocks(self, tmp_path, at):
        # The first line's "\n" is the last byte of the first block, the
        # first of the second or the one after; the next line spans three
        # blocks, with characters split across their edges.
        first = "é" * ((corpus._BLOCK - 2) // 2) + "x" * (2 + at)
        lines = [first, "ab\r" + "€" * corpus._BLOCK, "", "end"]
        path = tmp_path / "input.txt"
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\xff\n")
        expected, fault = read_lines_reference(path)
        assert [text for _, text in expected] == [lines[0], lines[1], ""]
        assert fault == (4, "invalid start byte")
        assert checked_lines(path) == (expected, (4, "not valid UTF-8 (invalid start byte)"))

    @pytest.mark.parametrize(
        "blob, lines",
        [(b"", []), (b"\n", [""]), (b"a", ["a"]), (b"a\r\n\r\nb\r", ["a", "", "b"]), (b"\r", [""]),
         # One byte-order mark that opens the file is dropped; any other
         # U+FEFF is text.
         (b"\xef\xbb\xbfa\nb\n", ["a", "b"]), (b"\xef\xbb\xbf", [""]), (b"\xef\xbb\xbf\r\n", [""]),
         (b"\xef\xbb\xbf\xef\xbb\xbfa\n", ["\ufeffa"]), (b"a\n\xef\xbb\xbfb\n", ["a", "\ufeffb"]),
         (b"a\xef\xbb\xbf\n", ["a\ufeff"])],
    )
    def test_line_framing(self, tmp_path, blob, lines):
        path = tmp_path / "input.txt"
        path.write_bytes(blob)
        assert [text for _, text in iter_checked_lines(path)] == lines

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes(b"ok\n\n\xe2\x82\nmore\n")
        with pytest.raises(RecordError, match=r":3: not valid UTF-8 \(invalid continuation byte\)"):
            list(iter_checked_lines(path))

    @settings(max_examples=200)
    @given(
        lines=st.lists(
            st.one_of(st.text(st.sampled_from(_BLANK_CHARS), max_size=3),
                      st.sampled_from(["a", "b c", "\xa0d\u3000", "\x85e"])),
            max_size=8,
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
        bom=st.booleans(),
        final_newline=st.booleans(),
    )
    def test_nonblank_lines_keeps_the_lines_with_text(
        self, tmp_path_factory, lines, newline, bom, final_newline
    ):
        path = tmp_path_factory.mktemp("lines") / "input.txt"
        ending = newline if final_newline and lines else ""
        text = "\ufeff" * bom + newline.join(lines) + ending
        path.write_bytes(text.encode("utf-8"))
        checked = list(iter_checked_lines(path))
        expected = [(n, t) for n, t in checked if t.strip()]
        assert list(nonblank_lines(path)) == expected
        if expected:
            assert list(nonblank_lines(path, "nothing here")) == expected
        else:
            with pytest.raises(RecordError) as err:
                list(nonblank_lines(path, "nothing here"))
            assert (err.value.line_no, err.value.reason) == (len(checked) + 1, "nothing here")

    @pytest.mark.parametrize(
        "blob, line",
        [(b"", 1), (b"\xef\xbb\xbf", 2), (b" \t\r\n\xc2\xa0", 3),
         ("\u3000\n\x85\x1c\n\x0b\x0c\n".encode("utf-8"), 4)],
    )
    def test_nonblank_lines_names_the_line_after_a_blank_input(self, tmp_path, blob, line):
        path = tmp_path / "input.txt"
        path.write_bytes(blob)
        assert list(nonblank_lines(path)) == []
        with pytest.raises(RecordError) as err:
            list(nonblank_lines(path, "nothing here"))
        assert str(err.value) == f"{path}:{line}: nothing here"

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        def peak(n):
            path = tmp_path / f"in{n}.txt"
            texts = [s.text for s in academic_sentences(n, seed=4)]
            path.write_text("\n".join(texts) + "\n", encoding="utf-8")
            tracemalloc.start()
            try:
                for _ in iter_checked_lines(path):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(5_000), peak(20_000)
        assert large - small <= 64 * 1024, (small, large)


class TestAtomicWrite:
    PAIRS = [DraftPair(Sentence.from_text("a <*> ."), Sentence.from_text("a b ."))] * 3

    def failing_pairs(self):
        yield from self.PAIRS
        raise RuntimeError("input broke off")

    def test_failure_mid_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_pairs(tmp_path / "pairs.tsv", self.failing_pairs())
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"old draft\told reference\n")
        with pytest.raises(RuntimeError):
            write_pairs(path, self.failing_pairs())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old draft\told reference\n"

    def test_target_appears_only_when_complete(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_writer(path) as handle:
            handle.write("first\n")
            handle.flush()
            assert not path.exists()
            [temp] = tmp_path.iterdir()
            assert temp.read_text(encoding="utf-8") == "first\n"
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "first\n"

    def test_mode_follows_umask_like_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w", encoding="utf-8"):
            pass
        with atomic_writer(tmp_path / "atomic.txt"):
            pass
        mode = stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode)
        assert mode == stat.S_IMODE(os.stat(plain).st_mode)

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "pairs.tsv"
        with pytest.raises(FileNotFoundError) as exc:
            write_pairs(path, self.PAIRS)
        assert exc.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_longest_name_the_directory_allows(self, tmp_path):
        # The temporary file's name does not grow with the target's.
        path = tmp_path / ("n" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        write_pairs(path, self.PAIRS)
        assert list(tmp_path.iterdir()) == [path]
        assert load_pairs(path) == self.PAIRS

    def test_failed_rename_names_the_target(self, tmp_path):
        # A directory in the target's place fails the rename, not the open.
        path = tmp_path / "pairs.tsv"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            write_pairs(path, self.PAIRS)
        assert (exc.value.filename, exc.value.filename2) == (str(path), None)
        assert str(exc.value).endswith(f": {str(path)!r}")
        assert list(tmp_path.iterdir()) == [path]
        assert list(path.iterdir()) == []
