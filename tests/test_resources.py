"""The bundled word lists, read by the same checked readers as the
``--stopwords`` and ``--vocab-counts`` files (tests/test_input_hygiene.py
and tests/test_cli.py run those through the CLI)."""

from __future__ import annotations

import pytest

from draftkit.corpus import RecordError
from draftkit.resources import (
    load_participles,
    load_stopwords,
    load_wordlist,
    read_counts,
    read_words,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_bundled_lists():
    assert len(load_stopwords()) == 144 and "the" in load_stopwords()
    assert len(load_participles()) == 128 and "begun" in load_participles()
    wordlist = load_wordlist()
    assert len(wordlist) == 835
    assert next(iter(wordlist.items())) == ("the", 117647)


@pytest.mark.parametrize("entry", ["The", " ÉTÉ "])
def test_words_reject_uppercase(tmp_path, entry):
    # Every consumer compares lowercased tokens, so "The" could never match.
    path = write_lines(tmp_path / "words.txt", ["the", "# comment", entry])
    with pytest.raises(RecordError) as excinfo:
        read_words(path)
    assert str(excinfo.value) == f"{path}:3: not lowercase: {entry.strip()!r}"


@pytest.mark.parametrize("entry", ["the.", "of the"])
def test_words_reject_more_than_one_token(tmp_path, entry):
    # Both consumers compare single tokens, so "the." could never match.
    path = write_lines(tmp_path / "words.txt", ["the", "# comment", entry])
    with pytest.raises(RecordError) as excinfo:
        read_words(path)
    assert str(excinfo.value) == f"{path}:3: not a single token: {entry!r}"


def test_counts_skip_comments_and_blank_lines(tmp_path):
    # A row for the lone token "#" is a comment.
    path = write_lines(tmp_path / "counts.tsv", ["# ours", "#\t5", "", "qq\t7", "  "])
    assert read_counts(path) == {"qq": 7}


def test_counts_of_an_empty_file(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_bytes(b"")
    assert read_counts(path) == {}
