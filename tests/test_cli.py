"""End-to-end command line behavior: exit codes, manifests, config
precedence, and byte-level determinism of the file-producing commands."""

from __future__ import annotations

import errno
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import draftkit
from draftkit import cli, lm, metrics, quality
from draftkit.cli import dispatch
from draftkit.corpus import Sentence, load_pairs
from draftkit.quality import load_submissions, score_workers, spell_check
from synth import academic_sentences
from test_lm import MALFORMED_ARPA


SRC = Path(draftkit.__file__).resolve().parent.parent


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def sentences_file(tmp_path):
    texts = [s.text for s in academic_sentences(40, seed=2)]
    return write_lines(tmp_path / "sentences.txt", texts)


class TestDispatchBasics:
    def test_unknown_group_is_usage_error(self, capsys):
        assert dispatch(["nope"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert dispatch(["stats", "dataset"]) == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "draftkit" in capsys.readouterr().out

    def test_argv_defaults_to_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["draftkit", "--help"])
        assert dispatch() == 0
        assert "draftkit" in capsys.readouterr().out

    def test_main_exits_with_the_dispatch_code(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["draftkit", "nope"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, tmp_path, sentences_file, capsys):
        code = dispatch(
            ["noise", "run", "--input", str(sentences_file),
             "--out", str(tmp_path / "o.tsv"), "--jobs", "0"]
        )
        assert code == 1

    def test_malformed_pair_file_is_data_error(self, tmp_path, capsys):
        bad = write_lines(tmp_path / "pairs.tsv", ["a\tb\tc"])
        code = dispatch(
            ["stats", "dataset", "--input", str(bad),
             "--report", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert ":1:" in capsys.readouterr().err


class TestCorpusExtract:
    def test_final_profile(self, tmp_path):
        lines = ["b" * 69, "c" * 100, "d" * 84 + "α"]
        src = write_lines(tmp_path / "raw.txt", lines)
        out = tmp_path / "kept.txt"
        assert dispatch(["corpus", "extract", "--input", str(src), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "c" * 100 + "\n"

    def test_training_profile_with_exclusion(self, tmp_path):
        keepable = "the model predicts the outcome well ."
        src = write_lines(tmp_path / "raw.txt", [keepable, "a b c ."])
        exclude = write_lines(tmp_path / "exclude.txt", ["THE  MODEL predicts the outcome well ."])
        out = tmp_path / "kept.txt"
        code = dispatch(
            ["corpus", "extract", "--input", str(src), "--out", str(out),
             "--profile", "training", "--exclude", str(exclude)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("profile", [[], ["--profile", "final"]], ids=["default", "final"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_exclude_outside_training_profile_is_usage_error(
        self, tmp_path, profile, via_config, capsys
    ):
        # The input does not exist: the check comes before any file is read.
        exclude = write_lines(tmp_path / "exclude.txt", ["c" * 100])
        argv = ["corpus", "extract", "--input", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "kept.txt"), *profile]
        if via_config:
            config = write_lines(tmp_path / "run.cfg", [f"exclude = {exclude}"])
            argv += ["--config", str(config)]
        else:
            argv += ["--exclude", str(exclude)]
        before = sorted(tmp_path.iterdir())
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == "error: --exclude applies only to --profile training\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_manifest_written(self, tmp_path):
        src = write_lines(tmp_path / "raw.txt", ["c" * 100])
        out = tmp_path / "kept.txt"
        assert dispatch(["corpus", "extract", "--input", str(src), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "kept.txt.manifest.json").read_text())
        assert manifest["subcommand"] == "corpus extract"
        assert manifest["seed"] == 1729
        assert manifest["inputs"] == [str(src)]
        assert manifest["outputs"] == [str(out)]
        assert manifest["config"]["min_chars"] == 70
        assert manifest["schema_version"] == 1


class TestLmCommands:
    def test_train_and_ppl(self, tmp_path, sentences_file):
        model_path = tmp_path / "model.arpa"
        assert dispatch(
            ["lm", "train", "--input", str(sentences_file), "--out", str(model_path),
             "--order", "3"]
        ) == 0
        text = model_path.read_text(encoding="utf-8")
        assert text.startswith("\\data\\")

        report_path = tmp_path / "ppl.json"
        assert dispatch(
            ["lm", "ppl", "--model", str(model_path), "--input", str(sentences_file),
             "--report", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert report["sentence_count"] == 40
        assert report["corpus_ppl"] > 1.0

        # Per-sentence values must match the library exactly.
        model = lm.load_arpa(model_path)
        texts = sentences_file.read_text().splitlines()
        for row, text in zip(report["sentences"], texts, strict=True):
            tokens = Sentence.from_text(text).tokens
            assert row["logprob10"] == model.sentence_logprob(tokens)
            assert row["ppl"] == model.perplexity(tokens)

    @pytest.mark.parametrize(
        "blob, line",
        [(b"", 1), (b"\n  \r\n\t\n", 4), (b" ", 2),
         # a no-break space and an ideographic space are blanks too
         ("\xa0\n\u3000\n".encode("utf-8"), 3), ("\u3000".encode("utf-8"), 2)],
    )
    def test_ppl_on_no_non_blank_line_is_data_error(
        self, tmp_path, sentences_file, blob, line, capsys
    ):
        model = tmp_path / "model.arpa"
        assert dispatch(["lm", "train", "--input", str(sentences_file), "--out", str(model)]) == 0
        hyps = tmp_path / "hyps.txt"
        hyps.write_bytes(blob)
        before = sorted(tmp_path.iterdir())
        code = dispatch(["lm", "ppl", "--model", str(model), "--input", str(hyps),
                         "--report", str(tmp_path / "ppl.json")])
        assert code == 2
        assert f"{hyps}:{line}: no non-blank lines to score" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_ppl_scores_each_sentence_once(self, tmp_path, sentences_file, monkeypatch):
        model_path = tmp_path / "model.arpa"
        assert dispatch(
            ["lm", "train", "--input", str(sentences_file), "--out", str(model_path)]
        ) == 0
        scored = []
        original = lm.NGramModel.sentence_logprob

        def counting(self, tokens):
            scored.append(tuple(tokens))
            return original(self, tokens)

        monkeypatch.setattr(lm.NGramModel, "sentence_logprob", counting)
        assert dispatch(
            ["lm", "ppl", "--model", str(model_path), "--input", str(sentences_file),
             "--report", str(tmp_path / "ppl.json")]
        ) == 0
        texts = sentences_file.read_text().splitlines()
        assert scored == [Sentence.from_text(text).tokens for text in texts]

    def test_train_is_deterministic(self, tmp_path, sentences_file):
        a, b = tmp_path / "a.arpa", tmp_path / "b.arpa"
        for out in (a, b):
            assert dispatch(["lm", "train", "--input", str(sentences_file), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_train_ignores_a_byte_order_mark(self, tmp_path, sentences_file):
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + sentences_file.read_bytes())
        a, b = tmp_path / "a.arpa", tmp_path / "b.arpa"
        for src, out in ((sentences_file, a), (marked, b)):
            assert dispatch(["lm", "train", "--input", str(src), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("lines", [["", "   "], ["\xa0", "\u3000"]])
    def test_train_on_blank_input_is_data_error(self, tmp_path, lines, capsys):
        blank = write_lines(tmp_path / "blank.txt", lines)
        out = tmp_path / "model.arpa"
        assert dispatch(["lm", "train", "--input", str(blank), "--out", str(out)]) == 2
        assert f"{blank}:3: no non-blank lines to train on" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blank]

    def test_sidecar_write_error_is_data_error(self, tmp_path, sentences_file, capsys):
        # The ARPA file is renamed into place before the sidecar fails; the
        # failed sidecar leaves no temporary file, and no manifest is written.
        out = tmp_path / "model.arpa"
        lm.sidecar_path(out).mkdir()
        assert dispatch(["lm", "train", "--input", str(sentences_file), "--out", str(out)]) == 2
        assert f"{lm.sidecar_path(out)}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [sentences_file.name, out.name, lm.sidecar_path(out).name]
        )
        assert list(lm.sidecar_path(out).iterdir()) == []
        assert lm.load_arpa(out).order == 5

    def test_reports_do_not_depend_on_the_sidecar(self, tmp_path, sentences_file):
        model, other = tmp_path / "model.arpa", tmp_path / "other.arpa"
        for out, order in ((model, "2"), (other, "3")):
            argv = ["lm", "train", "--input", str(sentences_file), "--out", str(out)]
            assert dispatch([*argv, "--order", order]) == 0
        report = tmp_path / "report.json"
        scorers = [
            ["lm", "ppl", "--model", str(model), "--input", str(sentences_file)],
            ["eval", "run", "--src", str(sentences_file), "--hyp", str(sentences_file),
             "--ref", str(sentences_file), "--lm", str(model)],
        ]
        runs = []
        for sidecar in ("fresh", "deleted", "stale"):
            if sidecar == "deleted":
                lm.sidecar_path(model).unlink()
            elif sidecar == "stale":
                lm.sidecar_path(model).write_bytes(lm.sidecar_path(other).read_bytes())
            reports = []
            for argv in scorers:
                assert dispatch([*argv, "--report", str(report)]) == 0
                reports.append(report.read_bytes())
            runs.append(reports)
        assert runs[0] == runs[1] == runs[2]

    def test_bad_arpa_is_data_error(self, tmp_path, sentences_file, capsys):
        fake = write_lines(tmp_path / "fake.arpa", ["not an arpa file"])
        code = dispatch(
            ["lm", "ppl", "--model", str(fake), "--input", str(sentences_file),
             "--report", str(tmp_path / "r.json")]
        )
        assert code == 2


BAD_MODELS = {
    **{name: text.encode("utf-8") for name, text in MALFORMED_ARPA.items()},
    "not_utf8": b"\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\t\xff\n\n\\end\\\n",
    "not_utf8_after_end": b"\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n\xc3\n",
    "order_zero": b"\\data\\\nngram 0=0\n\n\\end\\\n",
}


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
@pytest.mark.parametrize("command", ["lm ppl", "eval run", "stats dataset"])
def test_bad_model_is_data_error(tmp_path, sentences_file, name, command, capsys):
    model = tmp_path / "bad.arpa"
    model.write_bytes(BAD_MODELS[name])
    line = sentences_file.read_text().splitlines()[0]
    pairs = write_lines(tmp_path / "pairs.tsv", [f"{line}\t{line}"])
    report = tmp_path / "report.json"
    argv = {
        "lm ppl": ["lm", "ppl", "--model", str(model), "--input", str(sentences_file)],
        "eval run": ["eval", "run", "--src", str(sentences_file), "--hyp", str(sentences_file),
                     "--ref", str(sentences_file), "--lm", str(model)],
        "stats dataset": ["stats", "dataset", "--input", str(pairs), "--lm", str(model)],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert dispatch([*argv, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(str(model))}:[1-9][0-9]*: ", err), err
    assert sorted(tmp_path.iterdir()) == before


class TestNoiseRun:
    def run(self, src, out, *extra):
        return dispatch(["noise", "run", "--input", str(src), "--out", str(out), *extra])

    def test_deterministic_across_runs_and_jobs(self, tmp_path, sentences_file):
        outs = [tmp_path / f"o{i}.tsv" for i in range(3)]
        assert self.run(sentences_file, outs[0]) == 0
        assert self.run(sentences_file, outs[1]) == 0
        assert self.run(sentences_file, outs[2], "--jobs", "2") == 0
        first = outs[0].read_bytes()
        assert first == outs[1].read_bytes()
        assert first == outs[2].read_bytes()

    def test_seed_changes_output(self, tmp_path, sentences_file):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert self.run(sentences_file, a) == 0
        assert self.run(sentences_file, b, "--seed", "7") == 0
        assert a.read_bytes() != b.read_bytes()
        manifest = json.loads((tmp_path / "b.tsv.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_output_parses_as_pairs(self, tmp_path, sentences_file):
        out = tmp_path / "pairs.tsv"
        assert self.run(sentences_file, out) == 0
        pairs = load_pairs(out)
        assert len(pairs) == 40
        source_texts = set(sentences_file.read_text().splitlines())
        assert all(p.reference.text in source_texts for p in pairs)

    def test_custom_vocab_counts(self, tmp_path, sentences_file):
        vocab = write_lines(tmp_path / "vocab.tsv", ["qqsub\t20000", "rare\t3"])
        out = tmp_path / "pairs.tsv"
        assert self.run(sentences_file, out, "--vocab-counts", str(vocab),
                        "--replace-p", "0.4") == 0
        drafts = " ".join(p.draft.text for p in load_pairs(out))
        assert "qqsub" in drafts
        assert "rare" not in drafts

    def test_bundled_word_list_as_vocab_counts_equals_the_default(self, tmp_path, sentences_file):
        # The bundled list passes its flag's rules, comment lines included.
        default, bundled = tmp_path / "default.tsv", tmp_path / "bundled.tsv"
        assert self.run(sentences_file, default, "--replace-p", "0.5") == 0
        assert self.run(sentences_file, bundled, "--replace-p", "0.5", "--vocab-counts",
                        str(SRC / "draftkit" / "data" / "wordlist.tsv")) == 0
        assert bundled.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize("at", [0, 21, 42], ids=["first", "middle", "last"])
    def test_mask_token_in_input_is_data_error(self, tmp_path, sentences_file, at, jobs, capsys):
        lines = sentences_file.read_text().splitlines()
        lines[10:10] = ["", ""]  # skipped, but counted in line numbers
        lines.insert(at, "a reference sentence with a <*> span in it .")
        src = write_lines(tmp_path / "masked.txt", lines)
        before = sorted(os.listdir(tmp_path))
        assert self.run(src, tmp_path / "pairs.tsv", "--jobs", jobs) == 2
        err = capsys.readouterr().err
        assert err == f"error: {src}:{at + 1}: reference sentence contains the mask token\n"
        # No output, no leftover .tmp file and no manifest.
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "row, reason",
        [("<*>\t20000", "the mask token cannot also be a replacement"),
         ("\t20000", "not a single token: ''"),
         ("foo bar\t20000", "not a single token: 'foo bar'"),
         ("foo.\t20000", "not a single token: 'foo.'"),
         ("qqsub\t-5", "negative count: '-5'"),
         ("common\t5", "repeated token 'common', first on line 1")],
        ids=["mask", "empty", "space", "punctuation", "negative", "repeated"],
    )
    def test_bad_vocab_counts_row_is_data_error(
        self, tmp_path, sentences_file, row, reason, capsys
    ):
        vocab = write_lines(tmp_path / "vocab.tsv", ["common\t30000", row])
        before = sorted(os.listdir(tmp_path))
        code = self.run(sentences_file, tmp_path / "pairs.tsv", "--vocab-counts", str(vocab),
                        "--replace-p", "0.4", "--mask-fraction-max", "0")
        assert code == 2
        assert capsys.readouterr().err == f"error: {vocab}:2: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "extra, code, message",
        [
            (["--vocab-counts", "{vocab}", "--replace-p", "0.5"], 1,
             "error: no token has a count above --replace-vocab-min-count 10000 in {vocab}\n"),
            (["--replace-vocab-min-count", "100000000", "--replace-p", "0.5"], 1,
             "error: no token has a count above --replace-vocab-min-count 100000000"
             " in the bundled word list\n"),
            (["--vocab-counts", "{vocab}", "--replace-p", "0"], 0, ""),
            (["--replace-vocab-min-count", "100000000", "--replace-p", "0"], 0, ""),
        ],
        ids=["file", "bundled", "file-p0", "bundled-p0"],
    )
    def test_empty_replacement_vocabulary(
        self, tmp_path, sentences_file, extra, code, message, capsys
    ):
        vocab = write_lines(tmp_path / "vocab.tsv", ["qq\t5"])
        out = tmp_path / "pairs.tsv"
        before = sorted(os.listdir(tmp_path))
        assert self.run(sentences_file, out, *(a.format(vocab=vocab) for a in extra)) == code
        assert capsys.readouterr().err == message.format(vocab=vocab)
        if code:
            assert sorted(os.listdir(tmp_path)) == before
        else:
            assert len(load_pairs(out)) == 40

    def test_weighted_vocabulary_of_zero_counts_is_usage_error(
        self, tmp_path, sentences_file, capsys
    ):
        # Every count is 0, so a weighted draw has nothing to weigh; the
        # vocabulary is built before the output is opened.
        vocab = write_lines(tmp_path / "zero.tsv", ["foo\t0", "bar\t0"])
        before = sorted(os.listdir(tmp_path))
        code = self.run(sentences_file, tmp_path / "z.tsv", "--vocab-counts", str(vocab),
                        "--weighted-vocab", "--replace-vocab-min-count", "-1", "--replace-p", "0.5")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: every token kept above min_count -1 has count 0,"
            " so none can be drawn in proportion to its count\n"
        )
        assert sorted(os.listdir(tmp_path)) == before

    def test_uniform_vocabulary_of_zero_counts_samples(self, tmp_path, sentences_file):
        vocab = write_lines(tmp_path / "zero.tsv", ["foo\t0", "bar\t0"])
        out = tmp_path / "z.tsv"
        assert self.run(sentences_file, out, "--vocab-counts", str(vocab),
                        "--replace-vocab-min-count", "-1", "--replace-p", "0.5") == 0
        drafts = [p.draft.tokens for p in load_pairs(out)]
        assert {"foo", "bar"} <= {token for draft in drafts for token in draft}

    def test_memory_does_not_grow_with_input(self, tmp_path):
        def peak(n):
            texts = [s.text for s in academic_sentences(n, seed=5)]
            src = write_lines(tmp_path / f"in{n}.txt", texts)
            tracemalloc.start()
            try:
                assert self.run(src, tmp_path / f"out{n}.tsv") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # loads the word list and builds the parser
        small, large = peak(5_000), peak(20_000)
        assert large - small < 1_000_000, (small, large)


# --dump-config of the two subcommands whose flags come from their config
# records (CorpusFilterConfig, NoiseConfig), at the defaults and with two of
# those flags set.
DUMPED_CONFIGS = [
    ("corpus extract --input in.txt --out out.txt", """{
  "exclude": null,
  "input": "in.txt",
  "jobs": 1,
  "max_chars": 120,
  "max_tokens": 35,
  "min_alpha_ratio": 0.5,
  "min_chars": 70,
  "min_tokens": 5,
  "out": "out.txt",
  "profile": "final",
  "seed": 1729
}
"""),
    ("corpus extract --input in.txt --out out.txt --min-chars 60 --min-alpha-ratio 0.25", """{
  "exclude": null,
  "input": "in.txt",
  "jobs": 1,
  "max_chars": 120,
  "max_tokens": 35,
  "min_alpha_ratio": 0.25,
  "min_chars": 60,
  "min_tokens": 5,
  "out": "out.txt",
  "profile": "final",
  "seed": 1729
}
"""),
    ("noise run --input in.txt --out pairs.tsv", """{
  "delete_p": 0.1,
  "input": "in.txt",
  "jobs": 1,
  "mask_fraction_max": 0.5,
  "out": "pairs.tsv",
  "replace_p": 0.1,
  "replace_vocab_min_count": 10000,
  "seed": 1729,
  "shuffle_k": 3,
  "vocab_counts": null,
  "weighted_vocab": false
}
"""),
    ("noise run --input in.txt --out pairs.tsv --delete-p 0.3 --shuffle-k 2", """{
  "delete_p": 0.3,
  "input": "in.txt",
  "jobs": 1,
  "mask_fraction_max": 0.5,
  "out": "pairs.tsv",
  "replace_p": 0.1,
  "replace_vocab_min_count": 10000,
  "seed": 1729,
  "shuffle_k": 2,
  "vocab_counts": null,
  "weighted_vocab": false
}
"""),
]


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, sentences_file):
        cfg = write_lines(tmp_path / "noise.cfg",
                          ["delete_p = 0.9  # aggressive", "replace_p = 0"])
        flag_out, plain_out = tmp_path / "flag.tsv", tmp_path / "plain.tsv"
        assert dispatch(
            ["noise", "run", "--input", str(sentences_file), "--out", str(flag_out),
             "--config", str(cfg), "--delete-p", "0.0"]
        ) == 0
        assert dispatch(
            ["noise", "run", "--input", str(sentences_file), "--out", str(plain_out),
             "--delete-p", "0.0", "--replace-p", "0.0"]
        ) == 0
        assert flag_out.read_bytes() == plain_out.read_bytes()

    def test_config_applies_when_flag_absent(self, tmp_path, sentences_file, capsys):
        cfg = write_lines(tmp_path / "noise.cfg", ["delete_p = 0.9", "replace_p = 0"])
        code = dispatch(
            ["noise", "run", "--input", str(sentences_file),
             "--out", str(tmp_path / "o.tsv"), "--config", str(cfg), "--dump-config"]
        )
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["delete_p"] == 0.9
        assert resolved["replace_p"] == 0.0

    @pytest.mark.parametrize(
        "argv, setting, flags, key, value",
        [
            (["noise", "run"], "weighted_vocab = true", ["--weighted-vocab"],
             "weighted_vocab", True),
            (["corpus", "extract"], "profile = training", ["--profile", "training"],
             "profile", "training"),
        ],
    )
    def test_config_sets_switch_and_choice(
        self, tmp_path, sentences_file, argv, setting, flags, key, value, capsys
    ):
        cfg = write_lines(tmp_path / "run.cfg", [setting])
        out = tmp_path / "out.txt"
        runs = []
        for extra in (["--config", str(cfg)], flags, []):
            call = [*argv, "--input", str(sentences_file), "--out", str(out), *extra]
            assert dispatch([*call, "--dump-config"]) == 0
            resolved = json.loads(capsys.readouterr().out)
            assert dispatch(call) == 0
            runs.append((resolved, take_outputs(out)))
        assert runs[0] == runs[1]
        assert runs[0][0][key] == value
        assert runs[2][0][key] != value

    def test_switch_flag_wins_over_config_false(self, tmp_path, sentences_file, capsys):
        cfg = write_lines(tmp_path / "run.cfg", ["weighted_vocab = false"])
        code = dispatch(
            ["noise", "run", "--input", str(sentences_file), "--out", str(tmp_path / "o.tsv"),
             "--weighted-vocab", "--config", str(cfg), "--dump-config"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["weighted_vocab"] is True

    def test_config_switch_spellings(self, tmp_path, sentences_file, capsys):
        call = ["noise", "run", "--input", str(sentences_file), "--out", str(tmp_path / "o.tsv"),
                "--dump-config"]
        for text, value in [("true", True), ("1", True), ("Yes", True), ("ON", True),
                            ("false", False), ("0", False), ("no", False), ("Off", False)]:
            cfg = write_lines(tmp_path / "run.cfg", [f"weighted_vocab = {text}"])
            assert dispatch([*call, "--config", str(cfg)]) == 0
            assert json.loads(capsys.readouterr().out)["weighted_vocab"] is value

    def test_config_switch_that_is_no_boolean_is_data_error(
        self, tmp_path, sentences_file, capsys
    ):
        cfg = write_lines(tmp_path / "run.cfg", ["weighted_vocab = maybe"])
        out = tmp_path / "o.tsv"
        code = dispatch(["noise", "run", "--input", str(sentences_file), "--out", str(out),
                         "--config", str(cfg)])
        assert code == 2
        reason = "bad value for weighted_vocab: expected a boolean, got 'maybe'"
        assert capsys.readouterr().err == f"error: {cfg}:1: {reason}\n"
        assert not out.exists()

    def test_config_line_without_equals_is_data_error(self, tmp_path, sentences_file, capsys):
        cfg = write_lines(tmp_path / "run.cfg", ["# settings", "delete_p 0.5"])
        out = tmp_path / "o.tsv"
        code = dispatch(["noise", "run", "--input", str(sentences_file), "--out", str(out),
                         "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key = value\n"
        assert not out.exists()

    def test_dump_config_writes_nothing(self, tmp_path, sentences_file, capsys):
        out = tmp_path / "o.tsv"
        code = dispatch(
            ["noise", "run", "--input", str(sentences_file), "--out", str(out),
             "--dump-config"]
        )
        assert code == 0
        assert not out.exists()
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["seed"] == 1729
        assert resolved["mask_fraction_max"] == 0.5

    @pytest.mark.parametrize("line, expected", DUMPED_CONFIGS)
    def test_dump_config_bytes_are_pinned(self, tmp_path, monkeypatch, line, expected, capsys):
        monkeypatch.chdir(tmp_path)
        assert dispatch([*line.split(), "--dump-config"]) == 0
        assert capsys.readouterr().out == expected
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, setting",
        [(["corpus", "extract"], "min-chars = 2.5"), (["noise", "run"], "shuffle_k = 2.5")],
    )
    def test_fraction_for_an_integer_key_is_data_error(
        self, tmp_path, sentences_file, argv, setting, capsys
    ):
        cfg = write_lines(tmp_path / "run.cfg", [setting])
        out = tmp_path / "out.txt"
        code = dispatch([*argv, "--input", str(sentences_file), "--out", str(out),
                         "--config", str(cfg)])
        assert code == 2
        key = setting.split()[0].replace("-", "_")
        reason = f"bad value for {key}: invalid literal for int() with base 10: '2.5'"
        assert capsys.readouterr().err == f"error: {cfg}:1: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, setting",
        [(["corpus", "extract"], "profile = bogus"), (["lm", "train"], "smoothing = bogus")],
    )
    def test_config_value_outside_choices_is_data_error(
        self, tmp_path, sentences_file, argv, setting, capsys
    ):
        cfg = write_lines(tmp_path / "bad.cfg", ["# one setting", setting])
        out = tmp_path / "out.txt"
        code = dispatch([*argv, "--input", str(sentences_file), "--out", str(out),
                         "--config", str(cfg)])
        assert code == 2
        key = setting.split()[0]
        assert f"{cfg}:2: bad value for {key}: 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_data_error(self, tmp_path, sentences_file, capsys):
        cfg, out = tmp_path / "missing.cfg", tmp_path / "o.tsv"
        code = dispatch(
            ["noise", "run", "--input", str(sentences_file), "--out", str(out),
             "--config", str(cfg)]
        )
        assert code == 2
        assert str(cfg) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_data_error(self, tmp_path, sentences_file, capsys):
        cfg = write_lines(tmp_path / "bad.cfg", ["delte_p = 0.5"])
        code = dispatch(
            ["noise", "run", "--input", str(sentences_file),
             "--out", str(tmp_path / "o.tsv"), "--config", str(cfg)]
        )
        assert code == 2
        assert ":1:" in capsys.readouterr().err

    def test_repeated_config_key_is_data_error(self, tmp_path, sentences_file, capsys):
        # The same rule as a repeated --vocab-counts token: no later line
        # silently overrides an earlier one.
        cfg = write_lines(tmp_path / "run.cfg", ["order = 2", "# comment", "order = 3"])
        before = sorted(os.listdir(tmp_path))
        code = dispatch(["lm", "train", "--input", str(sentences_file),
                         "--out", str(tmp_path / "model.arpa"), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: repeated key 'order', first on line 1\n"
        assert sorted(os.listdir(tmp_path)) == before


SUBMISSION_LINES = [
    json.dumps(
        {
            "worker_id": "good",
            "answers": [
                "the cat sat on the mat .",
                "a cat sat on a <*> mat .",
                "the model sat on the mat .",
            ],
            "seconds": 300,
            "mt_references": ["x" * 60, "y" * 60, "z" * 60],
        }
    ),
    json.dumps(
        {
            "worker_id": "fast",
            "answers": [
                "the cat sat on the mat .",
                "a cat sat on a big mat .",
                "the model sat on the mat .",
            ],
            "seconds": 30,
            "mt_references": ["x" * 60, "y" * 60, "z" * 60],
        }
    ),
]


class TestQualityCommands:
    def test_score_workers(self, tmp_path):
        subs = write_lines(tmp_path / "subs.jsonl", SUBMISSION_LINES)
        out = tmp_path / "verdicts.jsonl"
        assert dispatch(["quality", "score-workers", "--input", str(subs),
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["worker_id"] for r in records] == ["good", "fast"]
        assert records[0]["accepted"] is True
        assert records[1]["accepted"] is False
        # Emitted verdicts must agree with the library.
        for record, verdict in zip(records, score_workers(load_submissions(subs))):
            assert record["score"] == verdict.score
            assert record["triggered"] == [[cid, delta] for cid, delta in verdict.triggered]

    def test_score_workers_many_submissions_match_one_per_file(self, tmp_path):
        # More answers than one lane-packed pass holds, each at a distance
        # on either side of a band edge from its machine translation: d
        # characters that the answer lacks, substituted or inserted at
        # spread positions, put it exactly d edits away.
        sentences = [s.text for s in academic_sentences(40, seed=5)]
        distances = (10, 11, 19, 20, 30, 31)
        count = metrics._PACK_LANES // 3 + 8
        lines, bands = [], []
        for k in range(count):
            answers, refs = [], []
            for slot in range(3):
                answer = " ".join(sentences[(3 * k + slot + i) % 40] for i in range(2))
                d = distances[(3 * k + slot) % len(distances)]
                cut = [len(answer) * (i + 1) // (d + 1) for i in range(d)]
                if slot == 1:  # insertions: the text is longer than the pattern
                    pieces = [answer[a:b] for a, b in zip([0, *cut], [*cut, len(answer)])]
                    ref = "#".join(pieces)
                else:
                    ref = "".join("#" if i in cut else ch for i, ch in enumerate(answer))
                answers.append(answer)
                refs.append(ref)
                bands.append("worker.ld_le_10" if d <= 10 else "worker.ld_10_20" if d < 20
                             else "worker.ld_20_30" if d <= 30 else None)
            lines.append(json.dumps({"worker_id": f"w{k}", "answers": answers,
                                     "seconds": 300, "mt_references": refs}))
        subs = write_lines(tmp_path / "subs.jsonl", lines)
        out = tmp_path / "verdicts.jsonl"
        assert dispatch(["quality", "score-workers", "--input", str(subs), "--out", str(out)]) == 0
        singles = []
        for k, line in enumerate(lines):
            one = write_lines(tmp_path / f"sub{k}.jsonl", [line])
            one_out = tmp_path / f"verdict{k}.jsonl"
            assert dispatch(["quality", "score-workers", "--input", str(one),
                             "--out", str(one_out)]) == 0
            singles.append(one_out.read_bytes())
        assert out.read_bytes() == b"".join(singles)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        got = [c for r in records for c, _ in r["triggered"] if c.startswith("worker.ld_")]
        assert got == [band for band in bands if band is not None]
        assert len(bands) > metrics._PACK_LANES

    def test_score_workers_bad_record(self, tmp_path, capsys):
        subs = write_lines(tmp_path / "subs.jsonl", ["{broken"])
        code = dispatch(["quality", "score-workers", "--input", str(subs),
                         "--out", str(tmp_path / "v.jsonl")])
        assert code == 2
        assert ":1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("answers", [None, "a cat sat on a big mat .", "the model sat on the mat ."]),
            ("answers", ["the cat sat on the mat .", 17, "the model sat on the mat ."]),
            ("mt_references", ["x" * 60, True, "z" * 60]),
            ("seconds", 12.7),
            ("seconds", True),
            ("seconds", "300"),
            ("worker_id", None),
            ("worker_id", True),
            ("worker_id", 7),
        ],
    )
    def test_score_workers_wrong_value_type(self, tmp_path, key, value, capsys):
        record = json.loads(SUBMISSION_LINES[0])
        record[key] = value
        subs = write_lines(tmp_path / "subs.jsonl", [SUBMISSION_LINES[0], json.dumps(record)])
        code = dispatch(["quality", "score-workers", "--input", str(subs),
                         "--out", str(tmp_path / "v.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {subs}:2: bad submission record: ")
        assert sorted(tmp_path.iterdir()) == [subs]

    def test_filter_pairs(self, tmp_path):
        # Spell check corrects each draft past the second against the
        # bundled word list: typos, repeated and Title-case ones.  The last
        # two are kept only because it does: a typo two edits from
        # "baseline", and a token longer than every bundled entry, one edit
        # from the longest.
        corrected = [
            "We propose a simpel model for the task .\tWe propose a simple model for the task .",
            "The results show a cleer gain .\tThe results show a clear gain .",
            "Simpel methods give simpel results .\tSimple methods give simple results .",
            "The baseln\tThe baseline",
            "Its characteristicsx\tIts characteristics",
        ]
        pairs = write_lines(
            tmp_path / "pairs.tsv",
            [
                "We propose a novel model\tWe propose a strong model",
                "qqa qqb qqc\tnovel model draft",
                *corrected,
            ],
        )
        kept, removed = tmp_path / "kept.tsv", tmp_path / "removed.tsv"
        assert dispatch(["quality", "filter-pairs", "--input", str(pairs),
                         "--kept", str(kept), "--removed", str(removed)]) == 0
        assert kept.read_text().splitlines() == [
            "We propose a novel model\tWe propose a strong model", *corrected
        ]
        [removed_line] = removed.read_text().splitlines()
        draft, reference, reason = removed_line.split("\t")
        assert draft == "qqa qqb qqc"
        assert reason

    def test_bundled_stopwords_as_flag_equal_the_default(self, tmp_path):
        # The bundled list passes its flag's rules, comment lines included.
        texts = [s.text for s in academic_sentences(20, seed=3)]
        pairs = write_lines(
            tmp_path / "pairs.tsv",
            [f"{text}\t{text}" for text in texts[:10]]
            + [f"{a}\t{b}" for a, b in zip(texts[10:], texts[11:])]
            # Pairs that share only stopwords.
            + ["the model of the data\tthe cat of the mat", "we are in it\tin it we are"],
        )
        outputs = {}
        for name, extra in [
            ("default", []),
            ("bundled", ["--stopwords", str(SRC / "draftkit" / "data" / "stopwords.txt")]),
            ("none", ["--stopwords", str(write_lines(tmp_path / "none.txt", ["# none"]))]),
        ]:
            kept, removed = tmp_path / f"{name}.kept", tmp_path / f"{name}.removed"
            assert dispatch(["quality", "filter-pairs", "--input", str(pairs), "--kept", str(kept),
                             "--removed", str(removed), *extra]) == 0
            outputs[name] = kept.read_bytes(), removed.read_bytes()
        assert outputs["bundled"] == outputs["default"]
        assert all(outputs["default"])
        assert outputs["none"] != outputs["default"]

    def test_filter_pairs_flattens_removed_fields(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"model\rresults show gains .\tthe cat sat on the mat .\n")
        kept, removed = tmp_path / "kept.tsv", tmp_path / "removed.tsv"
        assert dispatch(["quality", "filter-pairs", "--input", str(pairs),
                         "--kept", str(kept), "--removed", str(removed)]) == 0
        [removed_line] = removed.read_bytes().decode("utf-8").splitlines()
        draft, reference, reason = removed_line.split("\t")
        assert (draft, reference) == ("model results show gains .", "the cat sat on the mat .")
        assert reason

    def test_mask_token_stopword_is_data_error(self, tmp_path, capsys):
        pairs = write_lines(tmp_path / "pairs.tsv", ["We propose a model\tWe propose a model"])
        stopwords = write_lines(tmp_path / "stop.txt", ["the", "# masked spans", "<*>"])
        kept, removed = tmp_path / "kept.tsv", tmp_path / "removed.tsv"
        code = dispatch(["quality", "filter-pairs", "--input", str(pairs), "--kept", str(kept),
                         "--removed", str(removed), "--stopwords", str(stopwords)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{stopwords}:3: the mask token cannot also be a stopword" in err
        assert sorted(tmp_path.iterdir()) == sorted([pairs, stopwords])

    @pytest.mark.parametrize("unwritable", ["kept", "removed"])
    def test_unwritable_output_leaves_the_other_as_it_was(self, tmp_path, unwritable, capsys):
        # Both outputs are opened before either is written: a run that
        # cannot write one of them replaces neither.
        pairs = write_lines(tmp_path / "pairs.tsv", ["We propose a novel model\tWe propose a model",
                                                     "qqa qqb qqc\tnovel model draft"])
        outputs = {name: write_lines(tmp_path / f"{name}.tsv", [f"an earlier {name} file"])
                   for name in ("kept", "removed")}
        outputs[unwritable] = tmp_path / "nodir" / f"{unwritable}.tsv"
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code = dispatch(["quality", "filter-pairs", "--input", str(pairs), "--kept",
                         str(outputs["kept"]), "--removed", str(outputs["removed"])])
        assert code == 2
        assert str(outputs[unwritable]) in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "removed, shared",
        [("out.tsv", "--kept and --removed name the same file: out.tsv"),
         ("sub/../out.tsv.manifest.json",
          "--removed and the run manifest name the same file: {kept}.manifest.json")],
        ids=["kept", "manifest"],
    )
    def test_two_outputs_on_one_file_is_usage_error(
        self, tmp_path, monkeypatch, removed, shared, capsys
    ):
        # Each would be renamed over the other; the run writes nothing.  The
        # paths are the same only once normalised.
        monkeypatch.chdir(tmp_path)
        pairs = write_lines(tmp_path / "pairs.tsv", ["We propose a novel model\tWe propose a model",
                                                     "qqa qqb qqc\tnovel model draft"])
        code = dispatch(["quality", "filter-pairs", "--input", str(pairs),
                         "--kept", str(tmp_path / "out.tsv"), "--removed", removed])
        assert code == 1
        shared = shared.format(kept=tmp_path / "out.tsv")
        assert capsys.readouterr().err == f"error: {shared}\n"
        assert list(tmp_path.iterdir()) == [pairs]

    def test_unwritable_manifest_is_data_error(self, tmp_path, capsys):
        # The outputs are in place before the manifest's rename fails, and
        # no temporary file is left.
        pairs = write_lines(tmp_path / "pairs.tsv", ["We propose a novel model\tWe propose a model"])
        manifest = tmp_path / "kept.tsv.manifest.json"
        manifest.mkdir()
        code = dispatch(["quality", "filter-pairs", "--input", str(pairs), "--kept",
                         str(tmp_path / "kept.tsv"), "--removed", str(tmp_path / "removed.tsv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(manifest)!r}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [pairs.name, "kept.tsv", "removed.tsv", manifest.name]
        )
        assert list(manifest.iterdir()) == []


_FILTER_PROBE = """
import sys
from draftkit import cli
print(cli.dispatch(["quality", "filter-pairs", "--input", sys.argv[1], "--alpha", "1",
                    "--kept", sys.argv[2], "--removed", sys.argv[3]]))
"""


def test_filter_pairs_independent_of_hash_seed(tmp_path, monkeypatch):
    # Spell-check corrections, and so the split, must not depend on the
    # interpreter's string-hash salt.  At alpha 1 a typo left in a content
    # word removes its pair, and the reason gives the overlap.
    rng = random.Random(11)
    lines = []
    for s in academic_sentences(40, seed=4):
        tokens = list(s.tokens)
        for _ in range(2):
            i = rng.randrange(len(tokens))
            if tokens[i].isalpha() and len(tokens[i]) > 2:
                j = rng.randrange(len(tokens[i]))
                tokens[i] = tokens[i][:j] + rng.choice("aeiouxyz") + tokens[i][j + 1 :]
        lines.append(" ".join(tokens) + "\t" + s.text)
    pairs = write_lines(tmp_path / "pairs.tsv", lines)
    runs = []
    for seed in ("0", "1"):
        kept, removed = tmp_path / f"kept{seed}.tsv", tmp_path / f"removed{seed}.tsv"
        proc = subprocess.run(
            [sys.executable, "-c", _FILTER_PROBE, str(pairs), str(kept), str(removed)],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, kept.read_bytes(), removed.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == "0\n"
    # The typos were corrected: with no correction the split differs.
    monkeypatch.setattr(quality, "_best_correction", lambda word, dictionary, packed: None)
    kept, removed = tmp_path / "kept_raw.tsv", tmp_path / "removed_raw.tsv"
    assert dispatch(["quality", "filter-pairs", "--input", str(pairs), "--alpha", "1",
                     "--kept", str(kept), "--removed", str(removed)]) == 0
    assert (kept.read_bytes(), removed.read_bytes()) != runs[0][1:]


class TestEvalRun:
    def files(self, tmp_path, src, hyp, ref):
        return (
            write_lines(tmp_path / "src.txt", src),
            write_lines(tmp_path / "hyp.txt", hyp),
            write_lines(tmp_path / "ref.txt", ref),
        )

    def test_perfect_hypotheses(self, tmp_path):
        src, hyp, ref = self.files(
            tmp_path,
            ["the cat sat on the mat ."],
            ["the cat sat quietly on the mat ."],
            ["the cat sat quietly on the mat ."],
        )
        report_path = tmp_path / "report.json"
        assert dispatch(["eval", "run", "--src", str(src), "--hyp", str(hyp),
                         "--ref", str(ref), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert report["aggregates"]["corpus_bleu"] == 1.0
        assert report["aggregates"]["mean_rouge_l"] == 1.0
        assert report["aggregates"]["mean_ppl"] is None
        assert len(report["pairs"]) == 1

    def test_spellcheck_hyp_flag(self, tmp_path):
        src, hyp, ref = self.files(
            tmp_path,
            ["the coupus is large ."],
            ["the coupus is large ."],
            ["the corpus is large ."],
        )
        plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
        base = ["eval", "run", "--src", str(src), "--hyp", str(hyp), "--ref", str(ref)]
        assert dispatch(base + ["--report", str(plain)]) == 0
        assert dispatch(base + ["--report", str(checked), "--spellcheck-hyp"]) == 0
        plain_bleu = json.loads(plain.read_text())["aggregates"]["corpus_bleu"]
        checked_bleu = json.loads(checked.read_text())["aggregates"]["corpus_bleu"]
        assert plain_bleu < 1.0
        assert checked_bleu == 1.0

    def test_spellcheck_hyp_matches_spell_check_then_retokenize(self, tmp_path, monkeypatch):
        # Repeated typos, a Title-case typo, an ALL-CAPS token and the mask.
        hyps = ["the modle and the modle agian .", "Teh Modle beats the NASA modle .",
                "a <*> coupus , teh coupus ."]
        refs = ["the more and the more again .", "The More years the NASA more .",
                "a <*> corpus , the corpus ."]
        src, hyp, ref = self.files(tmp_path, hyps, hyps, refs)
        argv = ["eval", "run", "--src", str(src), "--hyp", str(hyp), "--ref", str(ref),
                "--spellcheck-hyp", "--report"]
        assert dispatch(argv + [str(tmp_path / "new.json")]) == 0
        monkeypatch.setattr(cli, "spell_check_all", lambda sentences: [
            Sentence.from_text(spell_check(s).corrected_text) for s in sentences
        ])
        assert dispatch(argv + [str(tmp_path / "old.json")]) == 0
        new = (tmp_path / "new.json").read_bytes()
        assert new == (tmp_path / "old.json").read_bytes()
        assert [p["levenshtein_char"] for p in json.loads(new)["pairs"]] == [0, 0, 0]

    def test_with_lm_reports_ppl(self, tmp_path, sentences_file):
        model_path = tmp_path / "model.arpa"
        assert dispatch(["lm", "train", "--input", str(sentences_file),
                         "--out", str(model_path)]) == 0
        lines = sentences_file.read_text().splitlines()[:5]
        drafts = [line.replace("the", "teh") for line in lines]
        src, hyp, ref = self.files(tmp_path, drafts, lines, lines)
        reports = []
        for jobs in ("1", "2"):  # --jobs is ignored: the report is the same
            report_path = tmp_path / f"report{jobs}.json"
            assert dispatch(["eval", "run", "--src", str(src), "--hyp", str(hyp),
                             "--ref", str(ref), "--lm", str(model_path),
                             "--report", str(report_path), "--jobs", jobs]) == 0
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["aggregates"]["mean_ppl"] > 1.0

    def test_unaligned_inputs_are_data_error(self, tmp_path, capsys):
        src, hyp, ref = self.files(tmp_path, ["a", "b"], ["a"], ["a"])
        code = dispatch(["eval", "run", "--src", str(src), "--hyp", str(hyp),
                         "--ref", str(ref), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_empty_inputs_are_data_error(self, tmp_path, capsys):
        src, hyp, ref = (tmp_path / name for name in ("src.txt", "hyp.txt", "ref.txt"))
        for path in (src, hyp, ref):
            path.write_bytes(b"")
        code = dispatch(["eval", "run", "--src", str(src), "--hyp", str(hyp),
                         "--ref", str(ref), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{src}:1:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == sorted([src, hyp, ref])

    def test_byte_order_mark_on_hyp_is_ignored(self, tmp_path):
        texts = ["The cat sat .", "A dog ran ."]
        src, hyp, ref = self.files(tmp_path, ["The cat sat .", "a dog run ."], texts, texts)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + hyp.read_bytes())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for hyp_path, report in ((hyp, a), (marked, b)):
            assert dispatch(["eval", "run", "--src", str(src), "--hyp", str(hyp_path),
                             "--ref", str(ref), "--report", str(report)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_bytes())["pairs"][0]["bleu"] == 1.0

    def test_deterministic_report(self, tmp_path):
        src, hyp, ref = self.files(
            tmp_path, ["the cat sat ."], ["the cat sat ."], ["a cat sat ."]
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["eval", "run", "--src", str(src), "--hyp", str(hyp), "--ref", str(ref)]
        assert dispatch(base + ["--report", str(a)]) == 0
        assert dispatch(base + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestStatsAndAnalysis:
    def test_stats_dataset(self, tmp_path):
        pairs = write_lines(
            tmp_path / "pairs.tsv",
            [
                "a <*> model\ta novel model",
                "a novel model\ta novel model",
            ],
        )
        report_path = tmp_path / "stats.json"
        assert dispatch(["stats", "dataset", "--input", str(pairs),
                         "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["pair_count"] == 2
        assert report["pct_with_mask"] == 50.0
        assert report["pct_changed"] == 50.0
        assert "draft_profile" not in report

    def test_stats_dataset_with_lm(self, tmp_path, sentences_file):
        model_path = tmp_path / "model.arpa"
        assert dispatch(["lm", "train", "--input", str(sentences_file),
                         "--out", str(model_path)]) == 0
        line = sentences_file.read_text().splitlines()[0]
        pairs = write_lines(tmp_path / "pairs.tsv", [f"{line}\t{line}"])
        report_path = tmp_path / "stats.json"
        assert dispatch(["stats", "dataset", "--input", str(pairs),
                         "--lm", str(model_path), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["draft_profile"] == report["reference_profile"]
        assert report["draft_profile"]["skipped"] == 0

    @pytest.mark.parametrize("argv", [["stats", "dataset", "--report"], ["analysis", "terms", "--out"]])
    def test_empty_pair_file_is_data_error(self, tmp_path, argv, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"")
        code = dispatch([*argv[:2], "--input", str(pairs), argv[2], str(tmp_path / "out")])
        assert code == 2
        assert f"{pairs}:1: need at least one pair" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [pairs]

    @pytest.mark.parametrize(
        "line, side",
        [
            (". . .\t, , ,", "draft"),
            (". . .\tthe model works well .", "draft"),
            ("the model works well .\t, , ,", "reference"),
        ],
    )
    def test_side_with_no_scoreable_sentence_is_data_error(
        self, tmp_path, sentences_file, line, side, capsys
    ):
        model = tmp_path / "model.arpa"
        assert dispatch(["lm", "train", "--input", str(sentences_file), "--out", str(model)]) == 0
        pairs = write_lines(tmp_path / "pairs.tsv", [line])
        before = sorted(tmp_path.iterdir())
        code = dispatch(["stats", "dataset", "--input", str(pairs), "--lm", str(model),
                         "--report", str(tmp_path / "stats.json")])
        assert code == 2
        assert f"error: {pairs}:2: no scoreable sentences on the {side} side" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_analysis_terms(self, tmp_path):
        pairs = write_lines(
            tmp_path / "pairs.tsv",
            ["Will go\tcan go", "will stay\tcan stay"],
        )
        out = tmp_path / "terms.tsv"
        assert dispatch(["analysis", "terms", "--input", str(pairs),
                         "--out", str(out), "--top-k", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "term\tdraft_per10k\tref_per10k\tlog_ratio"
        assert lines[1].split("\t")[0] == "will"
        assert lines[2].split("\t")[0] == "can"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lm", "train", "--input", "in.txt", "--out", "out/model.arpa",
         "--smoothing", "add-k", "--k"],
        ["analysis", "terms", "--input", "pairs.tsv", "--out", "out/terms.tsv", "--epsilon"],
    ],
    ids=["lm-train-k", "analysis-terms-epsilon"],
)
def test_non_finite_number_is_usage_error(tmp_path, argv, value, capsys):
    write_lines(tmp_path / "in.txt", [s.text for s in academic_sentences(5, seed=1)])
    write_lines(tmp_path / "pairs.tsv", ["Will go\tcan go", "will stay\tcan stay"])
    (tmp_path / "out").mkdir()
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert dispatch([*argv, value]) == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


# sha256 of each report on tests/synth.py sentences, scored with an
# order-3 model trained on others: a change that moves any byte of a
# distance, an edit, a score or a perplexity fails here.  Some hypotheses
# carry words the model has no 1-gram for, so scoring through <unk> is
# pinned too.
_REPORT_DIGESTS = {
    "eval run --lm": "9bd89be33aa619bb0916917aeea0e63b709d38794a00e773c53338da8e6b1f5d",
    "lm ppl": "4a606f396209a2c17ecda99081345c768815dbe42ff64fd40bc6de8a69a58f1c",
    "stats dataset --lm": "c180b8e12d5a0dd16146db633e8c8deb0eea440c80705755aa02f057b98ccb6c",
}


@pytest.mark.parametrize("command", sorted(_REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, monkeypatch, command):
    # Reports name their model file, so every path is relative.
    monkeypatch.chdir(tmp_path)
    refs = [s.text for s in academic_sentences(30, seed=6)]
    # Every third hypothesis ends in an unseen word; of the rest, every
    # other one misspells its first "the".
    hyps = [
        text[:-2] + " indeed ." if i % 3 == 0 else text.replace("the", "teh", i % 2)
        for i, text in enumerate(refs)
    ]
    write_lines(Path("train.txt"), [s.text for s in academic_sentences(80, seed=5)])
    write_lines(Path("src.txt"), [s.text for s in academic_sentences(30, seed=7)])
    write_lines(Path("hyp.txt"), hyps)
    write_lines(Path("ref.txt"), refs)
    write_lines(Path("pairs.tsv"), [f"{h}\t{r}" for h, r in zip(hyps, refs)])
    assert dispatch(["lm", "train", "--input", "train.txt", "--out", "model.arpa",
                     "--order", "3"]) == 0
    argv = {
        "eval run --lm": ["eval", "run", "--src", "src.txt", "--hyp", "hyp.txt",
                          "--ref", "ref.txt", "--lm", "model.arpa"],
        "lm ppl": ["lm", "ppl", "--model", "model.arpa", "--input", "hyp.txt"],
        "stats dataset --lm": ["stats", "dataset", "--input", "pairs.tsv", "--lm", "model.arpa"],
    }[command]
    assert dispatch([*argv, "--report", "report.json"]) == 0
    digest = hashlib.sha256(Path("report.json").read_bytes()).hexdigest()
    assert digest == _REPORT_DIGESTS[command]


# One call per subcommand, optional inputs both given and left out, flags
# not in declaration order; then the manifest's inputs and outputs, which
# follow the order the subcommand declares its flags in.
MANIFEST_CASES = [
    ("corpus extract --out out/kept.txt --input in/sentences.txt",
     ["in/sentences.txt"], ["out/kept.txt"]),
    ("corpus extract --exclude in/exclude.txt --profile training --input in/sentences.txt"
     " --out out/kept.txt",
     ["in/sentences.txt", "in/exclude.txt"], ["out/kept.txt"]),
    ("corpus extract --min-alpha-ratio 0.25 --out out/kept.txt --min-chars 60"
     " --input in/sentences.txt",
     ["in/sentences.txt"], ["out/kept.txt"]),
    ("lm train --out out/model.arpa --input in/sentences.txt --order 2",
     ["in/sentences.txt"], ["out/model.arpa", "out/model.arpa.compiled"]),
    ("lm ppl --input in/sentences.txt --report out/ppl.json --model in/model.arpa",
     ["in/model.arpa", "in/sentences.txt"], ["out/ppl.json"]),
    ("noise run --input in/sentences.txt --out out/pairs.tsv",
     ["in/sentences.txt"], ["out/pairs.tsv"]),
    ("noise run --vocab-counts in/vocab.tsv --replace-p 0.4 --out out/pairs.tsv"
     " --input in/sentences.txt",
     ["in/sentences.txt", "in/vocab.tsv"], ["out/pairs.tsv"]),
    ("noise run --delete-p 0.3 --out out/pairs.tsv --shuffle-k 2 --input in/sentences.txt",
     ["in/sentences.txt"], ["out/pairs.tsv"]),
    ("quality score-workers --out out/verdicts.jsonl --input in/subs.jsonl",
     ["in/subs.jsonl"], ["out/verdicts.jsonl"]),
    ("quality filter-pairs --removed out/removed.tsv --kept out/kept.tsv --input in/pairs.tsv",
     ["in/pairs.tsv"], ["out/kept.tsv", "out/removed.tsv"]),
    ("quality filter-pairs --stopwords in/stop.txt --input in/pairs.tsv --removed out/removed.tsv"
     " --kept out/kept.tsv",
     ["in/pairs.tsv", "in/stop.txt"], ["out/kept.tsv", "out/removed.tsv"]),
    ("eval run --report out/eval.json --ref in/ref.txt --hyp in/hyp.txt --src in/src.txt",
     ["in/src.txt", "in/hyp.txt", "in/ref.txt"], ["out/eval.json"]),
    ("eval run --lm in/model.arpa --report out/eval.json --src in/src.txt --hyp in/hyp.txt"
     " --ref in/ref.txt --spellcheck-hyp",
     ["in/src.txt", "in/hyp.txt", "in/ref.txt", "in/model.arpa"], ["out/eval.json"]),
    ("stats dataset --report out/stats.json --input in/pairs.tsv",
     ["in/pairs.tsv"], ["out/stats.json"]),
    ("stats dataset --lm in/model.arpa --report out/stats.json --input in/pairs.tsv",
     ["in/pairs.tsv", "in/model.arpa"], ["out/stats.json"]),
    ("analysis terms --out out/terms.tsv --input in/pairs.tsv --top-k 5",
     ["in/pairs.tsv"], ["out/terms.tsv"]),
]


class TestManifests:
    @pytest.fixture()
    def root(self, tmp_path):
        data = tmp_path / "in"
        data.mkdir()
        (tmp_path / "out").mkdir()
        texts = [s.text for s in academic_sentences(12, seed=3)]
        write_lines(data / "sentences.txt", texts)
        write_lines(data / "exclude.txt", texts[:2])
        write_lines(data / "vocab.tsv", ["qqsub\t20000", "rare\t3"])
        write_lines(data / "subs.jsonl", SUBMISSION_LINES)
        write_lines(data / "pairs.tsv", [f"{t.replace('the', 'teh', 1)}\t{t}" for t in texts])
        write_lines(data / "stop.txt", ["the", "a"])
        write_lines(data / "src.txt", [t.replace("the", "teh", 1) for t in texts[:4]])
        write_lines(data / "hyp.txt", [t.replace("the", "a", 1) for t in texts[:4]])
        write_lines(data / "ref.txt", texts[:4])
        model = lm.train([Sentence.from_text(t) for t in texts], order=2)
        lm.save_arpa(model, data / "model.arpa")
        return tmp_path

    @staticmethod
    def resolve(root, words):
        return [str(root / w) if w.startswith(("in/", "out/")) else w for w in words]

    @pytest.mark.parametrize("line, inputs, outputs", MANIFEST_CASES)
    def test_manifest_names_declared_files(self, root, line, inputs, outputs, capsys):
        argv = self.resolve(root, line.split())
        assert dispatch([*argv, "--dump-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert dispatch(argv) == 0
        raw = Path(f"{root / outputs[0]}.manifest.json").read_text(encoding="utf-8")
        manifest = json.loads(raw)
        expected = {
            "schema_version": 1,
            "subcommand": " ".join(argv[:2]),
            "config": config,
            "inputs": self.resolve(root, inputs),
            "outputs": self.resolve(root, outputs),
            "seed": 1729,
            "version": draftkit.__version__,
            "duration_seconds": manifest["duration_seconds"],
        }
        assert raw == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert sorted(p.name for p in (root / "out").iterdir()) == sorted(
            [Path(outputs[0]).name + ".manifest.json", *(Path(p).name for p in outputs)]
        )

    @pytest.mark.parametrize(
        "line, bad", [(line, path) for line, inputs, _ in MANIFEST_CASES for path in inputs]
    )
    def test_undecodable_input_is_data_error(self, root, line, bad, capsys):
        path = root / bad
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"\n".join(lines))
        before = sorted(root.rglob("*"))
        assert dispatch(self.resolve(root, line.split())) == 2
        assert capsys.readouterr().err == f"error: {path}:2: not valid UTF-8 (invalid start byte)\n"
        assert sorted(root.rglob("*")) == before

    @pytest.mark.parametrize("line, inputs, outputs", MANIFEST_CASES)
    def test_config_file_matches_flags(self, root, line, inputs, outputs, capsys):
        argv = self.resolve(root, line.split())
        cfg = write_lines(root / "run.cfg", ["seed = 7  # as --seed 7", "jobs = 1"])
        runs = []
        for extra in (["--seed", "7"], ["--config", str(cfg)]):
            assert dispatch([*argv, *extra, "--dump-config"]) == 0
            dumped = capsys.readouterr().out
            assert dispatch([*argv, *extra]) == 0
            taken = {p: take_outputs(root / p) for p in outputs}
            runs.append((dumped, taken))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0])["seed"] == 7


def run_fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "draftkit.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def take_outputs(out):
    """Read and delete ``out`` and its manifest (minus the wall time)."""
    taken = []
    for path in (out, Path(f"{out}.manifest.json")):
        if not path.exists():
            taken.append(None)
            continue
        data = path.read_bytes()
        path.unlink()
        if path != out:
            data = json.loads(data)
            del data["duration_seconds"]
        taken.append(data)
    return taken


class TestRepeatedDispatch:
    """One process may call dispatch any number of times; every call must
    behave exactly as in a fresh process, whatever the calls before it did."""

    @pytest.fixture()
    def noise(self, tmp_path, sentences_file):
        cfg = write_lines(tmp_path / "noise.cfg", ["delete_p = 0.9", "shuffle_k = 0"])
        out = tmp_path / "pairs.tsv"
        argv = ["noise", "run", "--input", str(sentences_file), "--out", str(out)]
        return argv, ["--config", str(cfg)], out

    def same_as_fresh_process(self, argv, out, capsys):
        code = dispatch(argv)
        stdout = capsys.readouterr().out
        outputs = take_outputs(out)
        assert run_fresh_process(argv) == (code, stdout)
        assert take_outputs(out) == outputs
        return code, stdout, outputs

    def test_config_call_then_plain_call(self, noise, capsys):
        argv, config, out = noise
        with_config = self.same_as_fresh_process([*argv, *config], out, capsys)
        plain = self.same_as_fresh_process(argv, out, capsys)
        assert with_config[0] == plain[0] == 0
        assert with_config[2][0] != plain[2][0]

    def test_plain_call_then_config_call(self, noise, capsys):
        argv, config, out = noise
        plain = self.same_as_fresh_process(argv, out, capsys)
        with_config = self.same_as_fresh_process([*argv, *config], out, capsys)
        assert with_config[0] == plain[0] == 0
        assert with_config[2][0] != plain[2][0]

    def test_usage_error_then_valid_call(self, noise, capsys):
        argv, config, out = noise
        failed = self.same_as_fresh_process([*argv, *config, "--delete-p", "lots"], out, capsys)
        assert failed == (1, "", [None, None])
        assert self.same_as_fresh_process(argv, out, capsys)[0] == 0

    def test_dump_config_then_run(self, noise, capsys):
        argv, config, out = noise
        dumped = self.same_as_fresh_process([*argv, *config, "--dump-config"], out, capsys)
        assert json.loads(dumped[1])["delete_p"] == 0.9
        dumped = self.same_as_fresh_process([*argv, "--dump-config"], out, capsys)
        assert json.loads(dumped[1])["delete_p"] == cli._NOISE_DEFAULTS.delete_p
        assert self.same_as_fresh_process(argv, out, capsys)[0] == 0


class TestSharedParserTree:
    @pytest.fixture()
    def extract(self, tmp_path, sentences_file):
        return ["corpus", "extract", "--input", str(sentences_file),
                "--out", str(tmp_path / "kept.txt")]

    def test_not_built_at_import(self):
        probe = "import draftkit.cli as cli; print(cli._tree is None)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout == "True\n", proc.stderr

    def test_import_leaves_multiprocessing_unloaded(self, tmp_path, sentences_file):
        # No subcommand starts worker processes, whatever --jobs is.
        probe = ("import sys, draftkit.cli; print('multiprocessing' in sys.modules); "
                 "print(draftkit.cli.dispatch(sys.argv[1:]), 'multiprocessing' in sys.modules)")
        argv = ["noise", "run", "--input", str(sentences_file),
                "--out", str(tmp_path / "o.tsv"), "--jobs", "2"]
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout == "False\n0 False\n", proc.stderr

    def test_built_once_per_process(self, tmp_path, extract, monkeypatch):
        monkeypatch.setattr(cli, "_tree", None)
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        for _ in range(5):
            assert dispatch(extract) == 0
        assert len(builds) == 1
        # A --config call re-parses on the shared tree's leaf; nothing is built.
        cfg = write_lines(tmp_path / "extract.cfg", ["profile = training"])
        assert dispatch([*extract, "--config", str(cfg)]) == 0
        assert dispatch(extract) == 0
        assert len(builds) == 1

    def test_handler_looked_up_at_each_call(self, extract, monkeypatch):
        # A profiler or tracer may rebind cli._cmd_* after the tree exists.
        assert dispatch(extract) == 0
        calls = []
        handler = cli._cmd_corpus_extract

        def recording(args):
            calls.append(args._leaf)
            return handler(args)

        monkeypatch.setattr(cli, "_cmd_corpus_extract", recording)
        assert dispatch(extract) == 0
        assert calls == ["corpus extract"]

    def test_calls_leave_little_cyclic_garbage(self, extract):
        assert dispatch(extract) == 0
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for _ in range(50):
                assert dispatch(extract) == 0
            garbage = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert garbage / 50 < 100


class TestAtomicOutputs:
    def test_failed_json_write_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_json(tmp_path / "report.json", {"value": object()})
        assert list(tmp_path.iterdir()) == []

    def test_failed_lines_write_leaves_nothing(self, tmp_path):
        def lines():
            yield "first"
            raise RuntimeError("input broke off")

        with pytest.raises(RuntimeError):
            cli._write_lines(tmp_path / "out.txt", lines())
        assert list(tmp_path.iterdir()) == []

    def test_output_in_missing_directory_is_data_error(self, tmp_path, sentences_file, capsys):
        out = tmp_path / "missing" / "kept.txt"
        code = dispatch(["corpus", "extract", "--input", str(sentences_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == [sentences_file]


class TestLongOutputNames:
    """An output name the directory allows is written with its manifest, or
    refused before any input is read when the manifest's name would not fit."""

    @pytest.mark.parametrize("room", [0, 11, 25])
    def test_output_gets_its_manifest(self, tmp_path, sentences_file, room):
        # room is how many bytes more the manifest's name could take.
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        out = tmp_path / ("n" * (limit - len(".manifest.json") - room - 4) + ".txt")
        argv = ["corpus", "extract", "--input", str(sentences_file), "--out", str(out)]
        assert dispatch([*argv, "--profile", "training"]) == 0
        assert out.read_bytes()
        assert json.loads(Path(f"{out}.manifest.json").read_bytes())["outputs"] == [str(out)]
        assert sorted(tmp_path.iterdir()) == sorted(
            [sentences_file, out, Path(f"{out}.manifest.json")]
        )

    @pytest.mark.parametrize("over", [1, 7, len(".manifest.json")])
    @pytest.mark.parametrize("input_exists", [True, False], ids=["input", "missing-input"])
    def test_no_room_for_the_manifest_is_usage_error(
        self, tmp_path, sentences_file, over, input_exists, capsys
    ):
        # A missing input exits 1, not 2: the name is checked before it is read.
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        out = tmp_path / ("n" * (limit - len(".manifest.json") + over - 4) + ".txt")
        source = sentences_file if input_exists else tmp_path / "missing.txt"
        before = sorted(tmp_path.iterdir())
        assert dispatch(["corpus", "extract", "--input", str(source), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --out is too long for its run manifest, a name of {limit + over} bytes"
            f" (limit {limit})\n"
        )
        assert sorted(tmp_path.iterdir()) == before


# Kills a dispatch call at its kill_at'th os.replace, before that rename.
_KILL_PROBE = """
import os
import sys
from draftkit import cli

kill_at, calls, replace = int(sys.argv[1]), [], os.replace

def replace_or_die(src, dst):
    calls.append(dst)
    if len(calls) == kill_at:
        os._exit(9)
    replace(src, dst)

os.replace = replace_or_die
sys.exit(cli.dispatch(sys.argv[2:]))
"""

# Each command line reads {input} and writes the outputs listed with it;
# the manifest is renamed last.
_KILLED_RUNS = {
    "quality filter-pairs": (
        "quality filter-pairs --input {input} --kept kept.tsv --removed removed.tsv",
        ["kept.tsv", "removed.tsv"],
    ),
    "lm train": ("lm train --input {input} --out model.arpa --order 2",
                 ["model.arpa", "model.arpa.compiled"]),
    "noise run": ("noise run --input {input} --out pairs.tsv", ["pairs.tsv"]),
}


@pytest.mark.parametrize("command", sorted(_KILLED_RUNS))
def test_killed_run_leaves_no_manifest_beside_outputs_of_another(
    tmp_path, monkeypatch, command
):
    line, outputs = _KILLED_RUNS[command]
    manifest = f"{outputs[0]}.manifest.json"
    inputs = {}
    for seed, name in enumerate(["first.txt", "second.txt"], 8):
        texts = [s.text for s in academic_sentences(12, seed=seed)]
        if command == "quality filter-pairs":
            # Every third draft is another pair's reference, so both outputs get pairs.
            texts = [f"{t.replace('the', 'a', 1) if i % 3 else texts[i - 1]}\t{t}"
                     for i, t in enumerate(texts)]
        inputs[name] = "\n".join(texts) + "\n"

    def directory(name):
        path = tmp_path / name
        path.mkdir()
        for input_name, text in inputs.items():
            (path / input_name).write_text(text, encoding="utf-8")
        return path

    def run_in(path, input_name):
        monkeypatch.chdir(path)
        assert dispatch(line.format(input=input_name).split()) == 0

    # The outputs of one complete run on each input.
    made = {}
    for input_name in inputs:
        run_in(directory(f"alone-{input_name}"), input_name)
        made[input_name] = {out: Path(out).read_bytes() for out in outputs}
    assert all(made["first.txt"][out] != made["second.txt"][out] for out in outputs)
    mixed, manifests = [], []
    for kill_at in range(1, len(outputs) + 2):
        work = directory(f"killed-at-{kill_at}")
        run_in(work, "first.txt")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_PROBE, str(kill_at),
             *line.format(input="second.txt").split()],
            cwd=work, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (9, b"")
        found = {out: (work / out).read_bytes() for out in outputs if (work / out).exists()}
        # Every output is whole, from one run or the other.
        assert all(data in (made["first.txt"][out], made["second.txt"][out])
                   for out, data in found.items())
        if (work / manifest).exists():
            manifests.append(kill_at)
            [run] = json.loads((work / manifest).read_bytes())["inputs"]
            if found != made[run]:
                mixed.append(kill_at)
    # No output set sits beside another run's manifest; and since the
    # manifest is renamed last, a killed run leaves none at all.
    assert mixed == []
    assert manifests == []
