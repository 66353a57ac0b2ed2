"""Input hygiene: one rejected line in a checked input makes the command
exit 2 naming exactly that ``path:line``, whether its lines end in LF or
CRLF and whether a byte-order mark opens the file, and leaves neither
the output nor its manifest behind.  A lone CR or a NUL inside a line is
text, and what each subcommand makes of it is pinned."""

from __future__ import annotations

import io
import json
import os
import string
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftkit.cli import dispatch
from draftkit.lm import save_arpa, train
from synth import academic_sentences

TEXTS = [s.text for s in academic_sentences(12, seed=4)]

# Settings a noise run accepts, each key once, then comment lines.
_SETTINGS = ["seed = 3", "delete-p = 0.1", "replace_p = 0.2", "shuffle-k = 2", ""]


def _submission(i: int) -> str:
    return json.dumps({"worker_id": f"w{i}", "answers": TEXTS[:3], "seconds": 300 + i,
                       "mt_references": TEXTS[3:6]})


def _config_line(i: int) -> str:
    return _SETTINGS[i] if i < len(_SETTINGS) else f"# note {i}"


def _vocab_line(i: int) -> str:
    # Every third line is blank or a comment; a row for the token "#" is one.
    if i % 3:
        return f"sub{string.ascii_lowercase[i]}\t{20000 + i}"
    return ("", "# replacements", "#\t5")[i // 3 % 3]


_STOPWORDS = ["# our stopwords", "", *"the of and to in a is that for it".split()]


# name: (the i-th valid line, lines the reader rejects, the command given
# the tested file, a file of sentences and the directory of its outputs,
# which holds those sentences as pairs in sentence-pairs.tsv)
CASES = {
    "pairs": (
        lambda i: f"{TEXTS[i % len(TEXTS)]}\t{TEXTS[(i + 1) % len(TEXTS)]}",
        ["a draft with no reference", "a draft\twith an embedded\ttab", ""],
        lambda tested, texts, out: ["quality", "filter-pairs", "--input", tested,
                                    "--kept", out / "kept.tsv", "--removed", out / "removed.tsv"],
    ),
    "submissions": (
        _submission,
        ['{"worker_id": "w", "answers": ', "[1, 2]", _submission(0).replace("300", '"300"')],
        lambda tested, texts, out: ["quality", "score-workers", "--input", tested,
                                    "--out", out / "verdicts.jsonl"],
    ),
    "vocab-counts": (
        _vocab_line,
        ["qqbad\tlots", "qqbad", "qq bad\t5", "qqbad\t-1"],
        lambda tested, texts, out: ["noise", "run", "--input", texts, "--out", out / "pairs.tsv",
                                    "--vocab-counts", tested, "--replace-p", "0.4"],
    ),
    "stopwords": (
        lambda i: _STOPWORDS[i],
        ["<*>", "The"],
        lambda tested, texts, out: ["quality", "filter-pairs",
                                    "--input", out / "sentence-pairs.tsv", "--kept",
                                    out / "kept.tsv", "--removed", out / "removed.tsv",
                                    "--stopwords", tested],
    ),
    "config": (
        _config_line,
        ["delte_p = 0.5", "delete_p 0.5", "delete_p = lots"],
        lambda tested, texts, out: ["noise", "run", "--input", texts, "--out", out / "pairs.tsv",
                                    "--config", tested],
    ),
}

line_endings = st.sampled_from(["\n", "\r\n"])


def assert_rejected(lines, bad_line, newline, bom, command):
    """Write ``lines`` as the tested file and check that ``command`` exits
    2 at line ``bad_line + 1`` and writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        tested = root / "tested"
        tested.write_bytes(("\ufeff" * bom + newline.join(lines) + newline).encode("utf-8"))
        texts = root / "texts.txt"
        texts.write_text("\n".join(TEXTS) + "\n", encoding="utf-8")
        (root / "sentence-pairs.tsv").write_text(
            "".join(f"{text}\t{text}\n" for text in TEXTS), encoding="utf-8"
        )
        before = sorted(os.listdir(root))
        argv = [str(arg) for arg in command(tested, texts, root)]
        with redirect_stderr(io.StringIO()) as stderr:
            code = dispatch(argv)
        err = stderr.getvalue()
        assert code == 2, err
        assert err.startswith(f"error: {tested}:{bad_line + 1}: "), err
        assert sorted(os.listdir(root)) == before


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), valid=st.integers(0, 12), newline=line_endings, bom=st.booleans())
def test_rejected_line_is_named(name, data, valid, newline, bom):
    make_line, rejected, command = CASES[name]
    at = data.draw(st.integers(0, valid), label="at")
    lines = [make_line(i) for i in range(valid)]
    lines.insert(at, data.draw(st.sampled_from(rejected), label="bad"))
    assert_rejected(lines, at, newline, bom, command)


def _arpa_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.arpa"
        save_arpa(train(academic_sentences(20, seed=4), order=2), path)
        return path.read_text(encoding="utf-8").splitlines()


ARPA_LINES = _arpa_lines()
ARPA_ENTRIES = [i for i, line in enumerate(ARPA_LINES) if "\t" in line]


@settings(max_examples=60, deadline=None)
@given(
    at=st.sampled_from(ARPA_ENTRIES),
    bad=st.sampled_from(["oops", "-1.0\ta b c", "x\tword", "-1.0\tword\t-0.5\textra"]),
    newline=line_endings,
    bom=st.booleans(),
)
def test_rejected_arpa_entry_is_named(at, bad, newline, bom):
    lines = list(ARPA_LINES)
    lines[at] = bad
    assert_rejected(
        lines, at, newline, bom,
        lambda tested, texts, out: ["lm", "ppl", "--model", tested, "--input", texts,
                                    "--report", out / "ppl.json"],
    )


# A CR that does not end a line, and a NUL, are text to the line reader.
# The tokenizer splits at the CR, as at any whitespace, and keeps the NUL
# inside its token; TSV writers turn the CR into a space.
CR_LINE = "The model improves the\rresults on every task we tried , as the table shows ."
NUL_LINE = "We propose a simple\x00model for the task of sentence revision in academic writing ."


def _run(argv) -> None:
    assert dispatch([str(arg) for arg in argv]) == 0


def _write(path: Path, lines) -> Path:
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def test_corpus_extract_keeps_cr_and_nul(tmp_path):
    src = _write(tmp_path / "raw.txt", [CR_LINE, NUL_LINE])
    _run(["corpus", "extract", "--input", src, "--out", tmp_path / "out.txt"])
    assert (tmp_path / "out.txt").read_bytes() == src.read_bytes()


def test_lm_train_splits_at_cr_and_keeps_nul_in_its_token(tmp_path):
    _run(["lm", "train", "--input", _write(tmp_path / "cr.txt", [CR_LINE, NUL_LINE]),
          "--out", tmp_path / "cr.arpa", "--order", "2"])
    spaced = _write(tmp_path / "spaced.txt", [CR_LINE.replace("\r", " "), NUL_LINE])
    _run(["lm", "train", "--input", spaced, "--out", tmp_path / "spaced.arpa", "--order", "2"])
    model = (tmp_path / "cr.arpa").read_bytes()
    assert model == (tmp_path / "spaced.arpa").read_bytes()
    assert b"\tsimple\x00model\t" in model


def test_lm_ppl_splits_at_cr_and_keeps_nul_in_its_token(tmp_path):
    texts = _write(tmp_path / "texts.txt", TEXTS)
    _run(["lm", "train", "--input", texts, "--out", tmp_path / "model.arpa", "--order", "2"])
    reports = []
    for name, first in (("cr", CR_LINE), ("spaced", CR_LINE.replace("\r", " "))):
        _run(["lm", "ppl", "--model", tmp_path / "model.arpa",
              "--input", _write(tmp_path / f"{name}.txt", [first, NUL_LINE]),
              "--report", tmp_path / f"{name}.json"])
        reports.append(json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8")))
    assert reports[0] == reports[1]
    assert [row["tokens"] for row in reports[0]["sentences"]] == [16, 14]


def test_noise_run_writes_cr_as_space_and_keeps_nul(tmp_path):
    src = _write(tmp_path / "refs.txt", [CR_LINE, NUL_LINE])
    # No deletion, replacement, shuffle or mask: each draft is its
    # reference's tokens joined by spaces.
    _run(["noise", "run", "--input", src, "--out", tmp_path / "pairs.tsv", "--delete-p", "0",
          "--replace-p", "0", "--shuffle-k", "0", "--mask-fraction-max", "0"])
    spaced = CR_LINE.replace("\r", " ")
    assert (tmp_path / "pairs.tsv").read_text(encoding="utf-8").split("\n") == [
        f"{spaced}\t{spaced}", f"{NUL_LINE}\t{NUL_LINE}", ""
    ]


def test_filter_pairs_writes_cr_as_space_and_keeps_nul(tmp_path):
    src = _write(tmp_path / "pairs.tsv", [f"{CR_LINE}\t{CR_LINE}", f"{NUL_LINE}\t{NUL_LINE}"])
    _run(["quality", "filter-pairs", "--input", src, "--kept", tmp_path / "kept.tsv",
          "--removed", tmp_path / "removed.tsv"])
    spaced = CR_LINE.replace("\r", " ")
    assert (tmp_path / "kept.tsv").read_text(encoding="utf-8").split("\n") == [
        f"{spaced}\t{spaced}", f"{NUL_LINE}\t{NUL_LINE}", ""
    ]
    assert (tmp_path / "removed.tsv").read_bytes() == b""
