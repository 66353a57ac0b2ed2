"""Backoff n-gram model: closed forms, normalization, ARPA round trips."""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import types
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draftkit import lm
from draftkit.cli import dispatch
from draftkit.corpus import RecordError, Sentence
from draftkit.lm import (
    ArpaFormatError,
    NGramModel,
    TrainConfig,
    load_arpa,
    save_arpa,
    sidecar_path,
    train,
)
from oracles import (
    arpa_text_reference,
    load_parsed,
    read_arpa_reference,
    sentence_logprob_reference,
    stored_ngrams,
)
from synth import academic_sentences


def sent(*tokens: str) -> Sentence:
    return Sentence.from_tokens(tokens)


def prob(model: NGramModel, word: str, history: tuple[str, ...] = ()) -> float:
    return 10.0 ** model.logprob(word, history)


def context_mass(model: NGramModel, history: tuple[str, ...]) -> float:
    return sum(prob(model, w, history) for (w,) in stored_ngrams(model, 1) if w != "<s>")


class TestAddK:
    # Corpus "a b": two word tokens, prediction vocabulary {a, b, </s>, <unk>}.
    # Unigram events are word tokens only, so P(w) = (c(w) + k) / (2 + 4k) and
    # the end marker gets the bare smoothing share k / (2 + 4k).

    @pytest.mark.parametrize("k", [1.0, 0.5])
    def test_unigram_closed_form(self, k):
        model = train([sent("a", "b")], TrainConfig(order=1, smoothing="add-k", k=k))
        assert prob(model, "a") == pytest.approx((1 + k) / (2 + 4 * k), rel=1e-12)
        assert prob(model, "b") == pytest.approx((1 + k) / (2 + 4 * k), rel=1e-12)
        assert prob(model, "</s>") == pytest.approx(k / (2 + 4 * k), rel=1e-12)
        assert prob(model, "<unk>") == pytest.approx(k / (2 + 4 * k), rel=1e-12)

    def test_unigram_sentence_logprob_and_ppl(self):
        model = train([sent("a", "b")], TrainConfig(order=1, smoothing="add-k", k=1.0))
        # P(a) P(b) P(</s>) = 1/3 * 1/3 * 1/6 = 1/54, three scored events.
        assert model.sentence_logprob(sent("a", "b").tokens) == pytest.approx(
            math.log10(1 / 54), abs=1e-12
        )
        assert model.perplexity(sent("a", "b").tokens) == pytest.approx(54 ** (1 / 3), rel=1e-12)

    def test_unigram_oov_takes_unknown_share(self):
        model = train([sent("a", "b")], TrainConfig(order=1, smoothing="add-k", k=1.0))
        # "z" is unseen: scored as <unk>, so 1/3 * 1/6 * 1/6 = 1/108.
        assert model.sentence_logprob(sent("a", "z").tokens) == pytest.approx(
            math.log10(1 / 108), abs=1e-12
        )

    def test_bigram_observed_and_backoff(self):
        model = train([sent("a", "b")], TrainConfig(order=2, smoothing="add-k", k=1.0))
        # Each context saw one continuation once: P = (1+1)/(1+4) = 2/5.
        assert prob(model, "a", ("<s>",)) == pytest.approx(2 / 5, rel=1e-12)
        assert prob(model, "b", ("a",)) == pytest.approx(2 / 5, rel=1e-12)
        assert prob(model, "</s>", ("b",)) == pytest.approx(2 / 5, rel=1e-12)
        # Unseen continuation of (b): leftover mass 3/5 spread over the
        # unigram distribution minus its observed part (1 - 1/6), so the
        # backoff weight is (3/5) / (5/6) = 0.72 and P(a|b) = 0.72 * 1/3.
        assert prob(model, "a", ("b",)) == pytest.approx(0.72 / 3, rel=1e-12)
        # P(b|<s>) = 0.6/(1 - 1/3) * 1/3 = 0.3.
        assert prob(model, "b", ("<s>",)) == pytest.approx(0.3, rel=1e-12)
        assert model.perplexity(sent("a", "b").tokens) == pytest.approx(2.5, rel=1e-12)


class TestKneserNey:
    def test_bigram_hand_case(self):
        # Corpus: "a b", "a b", "b a".  Bigram counts: (<s>,a)=2 (a,b)=2
        # (b,</s>)=2 (<s>,b)=1 (b,a)=1 (a,</s>)=1, so n1=3 n2=3 and
        # D2 = 3/(3+6) = 1/3.  Unigram continuation counts are 2 for each of
        # a, b, </s> (n1=0 so D1 falls back to 0.5), total 6, vocab size 4:
        # P1(a) = (2-0.5)/6 + (0.5*3/6)/4 = 0.25 + 0.0625 = 0.3125.
        model = train(
            [sent("a", "b"), sent("a", "b"), sent("b", "a")],
            TrainConfig(order=2, smoothing="interpolated-kneser-ney"),
        )
        assert prob(model, "a") == pytest.approx(0.3125, rel=1e-12)
        assert prob(model, "b") == pytest.approx(0.3125, rel=1e-12)
        assert prob(model, "</s>") == pytest.approx(0.3125, rel=1e-12)
        assert prob(model, "<unk>") == pytest.approx(0.0625, rel=1e-12)
        # Contexts <s>, a, b each have total 3 over two continuation types,
        # lambda = (1/3)*2/3 = 2/9.  Seen-twice continuations all score
        # (2 - 1/3)/3 + (2/9)*0.3125 = 0.625.
        assert prob(model, "a", ("<s>",)) == pytest.approx(0.625, rel=1e-9)
        assert prob(model, "b", ("a",)) == pytest.approx(0.625, rel=1e-9)
        assert prob(model, "</s>", ("b",)) == pytest.approx(0.625, rel=1e-9)
        # Seen-once continuations score (1 - 1/3)/3 + (2/9)*0.3125.
        assert prob(model, "b", ("<s>",)) == pytest.approx(
            (2 / 3) / 3 + (2 / 9) * 0.3125, rel=1e-9
        )
        # Unseen (b, b) backs off with weight lambda(b) = 2/9.
        assert prob(model, "b", ("b",)) == pytest.approx((2 / 9) * 0.3125, rel=1e-9)
        # "a b" scores 0.625 three times, so PPL = 1/0.625 = 1.6 exactly.
        assert model.perplexity(sent("a", "b").tokens) == pytest.approx(1.6, rel=1e-9)

    def test_start_context_keeps_raw_counts(self):
        # Corpus "a b", "a c" at order 3.  (<s>,a) cannot be left-extended,
        # so its adjusted count stays the raw 2 rather than a continuation
        # count of 0.  Bigram adjusted counts: (<s>,a)=2, the other four are
        # continuation counts of 1, so n1=4 n2=1 and D2 = 4/6 = 2/3.
        model = train(
            [sent("a", "b"), sent("a", "c")],
            TrainConfig(order=3, smoothing="interpolated-kneser-ney"),
        )
        # Unigram continuation counts a=1 b=1 c=1 </s>=2 (total 5, D1 = 3/5),
        # vocab size 5: P1(a) = (1-0.6)/5 + (0.6*4/5)/5 = 0.08 + 0.096.
        p1_a = 0.176
        assert prob(model, "a") == pytest.approx(p1_a, rel=1e-9)
        assert prob(model, "</s>") == pytest.approx((2 - 0.6) / 5 + 0.096, rel=1e-9)
        # P(a|<s>) = (2 - 2/3)/2 + (2/3 * 1/2) * P1(a).
        assert prob(model, "a", ("<s>",)) == pytest.approx(
            (2 - 2 / 3) / 2 + (1 / 3) * p1_a, rel=1e-9
        )

    def test_trigram_chain(self):
        model = train(
            [sent("a", "b"), sent("a", "c")],
            TrainConfig(order=3, smoothing="interpolated-kneser-ney"),
        )
        p1_a = 0.176
        p1_b = 0.176
        p1_end = 0.376
        # All four trigram counts are 1 (n2=0), so D3 falls back to 0.5.
        # P(b|a) = (1 - 2/3)/2 + (2/3)*P1(b); context (<s>,a) has total 2
        # over two types, lambda = 0.5.
        p2_b_a = (1 / 3) / 2 + (2 / 3) * p1_b
        assert prob(model, "b", ("<s>", "a")) == pytest.approx(
            0.5 / 2 + 0.5 * p2_b_a, rel=1e-9
        )
        # P(</s>|b) = (1 - 2/3)/1 + (2/3)*P1(</s>); context (a,b) has a
        # single once-seen continuation, lambda = 0.5.
        p2_end_b = (1 / 3) + (2 / 3) * p1_end
        assert prob(model, "</s>", ("a", "b")) == pytest.approx(
            0.5 / 1 + 0.5 * p2_end_b, rel=1e-9
        )
        del p1_a


@lru_cache(maxsize=None)
def _toy_corpus() -> tuple[Sentence, ...]:
    extra = [
        sent("the", "model", "the", "model", "."),
        sent("a", "draft", "."),
        sent("a", "draft", "."),
        sent(),
    ]
    return tuple(academic_sentences(40, seed=3) + extra)


@lru_cache(maxsize=None)
def _model(smoothing: str, order: int) -> NGramModel:
    return train(_toy_corpus(), TrainConfig(order=order, smoothing=smoothing))


@lru_cache(maxsize=None)
def _loaded_model(smoothing: str, order: int) -> NGramModel:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.arpa"
        save_arpa(_model(smoothing, order), path)
        return load_arpa(path)


_MODEL_GRID = [
    ("add-k", 1),
    ("add-k", 2),
    ("interpolated-kneser-ney", 1),
    ("interpolated-kneser-ney", 2),
    ("interpolated-kneser-ney", 3),
]


class TestDistributionInvariants:
    @pytest.mark.parametrize("smoothing,order", _MODEL_GRID)
    def test_every_context_normalizes(self, smoothing, order):
        model = _model(smoothing, order)
        contexts: list[tuple[str, ...]] = [()]
        for n in range(1, order):
            contexts.extend(stored_ngrams(model, n))
        # Unseen histories fall through to lower orders with unit backoff.
        contexts.extend([("<unk>",), ("never-seen-token",)])
        for history in contexts:
            assert context_mass(model, history) == pytest.approx(1.0, abs=1e-6), history

    @pytest.mark.parametrize("smoothing,order", _MODEL_GRID)
    def test_stored_probabilities_are_proper(self, smoothing, order):
        model = _model(smoothing, order)
        for n in range(1, order + 1):
            for gram in stored_ngrams(model, n):
                if gram == ("<s>",):
                    continue  # placeholder entry, never predicted
                lp = model.logprob(gram[-1], gram[:-1])
                assert math.isfinite(lp) and lp <= 0.0
                assert 0.0 < 10.0 ** lp <= 1.0

    def test_vocab_contains_markers(self):
        model = _model("interpolated-kneser-ney", 2)
        vocab = {w for (w,) in stored_ngrams(model, 1)}
        assert {"<s>", "</s>", "<unk>"} <= vocab
        assert "the" in vocab

    def test_empty_sentence_scores_end_event(self):
        model = _model("interpolated-kneser-ney", 3)
        assert model.sentence_logprob(sent().tokens) == pytest.approx(
            model.logprob("</s>", ("<s>",)), abs=1e-12
        )
        assert model.perplexity(sent().tokens) >= 1.0

    def test_history_trimmed_to_model_order(self):
        model = _model("interpolated-kneser-ney", 2)
        assert model.logprob("the", ("model", "the")) == model.logprob("the", ("the",))

    def test_oov_scored_as_unknown(self):
        model = _model("interpolated-kneser-ney", 3)
        assert model.sentence_logprob(sent("the", "zzzz").tokens) == pytest.approx(
            model.sentence_logprob(sent("the", "<unk>").tokens), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["the", "model", "draft", "improves", "zzzz", ".", "a"]),
            max_size=8,
        )
    )
    def test_logprob_nonpositive_and_ppl_at_least_one(self, tokens):
        model = _model("interpolated-kneser-ney", 3)
        s = sent(*tokens)
        lp = model.sentence_logprob(s.tokens)
        assert math.isfinite(lp) and lp <= 0.0
        assert model.perplexity(s.tokens) >= 1.0


_SCORED_WORDS = ["the", "model", "draft", "a", ".", "zzzz", "qq", "<unk>", "</s>", "<s>"]


class TestSentenceLogprobAgainstReference:
    @pytest.mark.parametrize("smoothing", ["add-k", "interpolated-kneser-ney"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(tokens=st.lists(st.sampled_from(_SCORED_WORDS), max_size=10))
    def test_exactly_equal(self, smoothing, order, tokens):
        # Exact equality: report bytes depend on every addition's order.
        # "zzzz" and "qq" are out of vocabulary; sentences run past the order.
        model = _model(smoothing, order)
        assert model.sentence_logprob(tokens) == sentence_logprob_reference(model, tokens)

    @pytest.mark.parametrize("loaded", [False, True], ids=["trained", "loaded"])
    @pytest.mark.parametrize("smoothing", ["add-k", "interpolated-kneser-ney"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(tokens=st.lists(st.sampled_from(_SCORED_WORDS), max_size=10))
    def test_equals_sum_of_event_logprobs(self, loaded, smoothing, order, tokens):
        # Exact equality: both walk the same chain, one event at a time.
        model = (_loaded_model if loaded else _model)(smoothing, order)
        seq = ("<s>", *tokens, "</s>")
        total = 0.0
        for i in range(1, len(seq)):
            total += model.logprob(seq[i], seq[:i])
        assert model.sentence_logprob(tokens) == total

    def test_missing_unknown_unigram_is_an_error(self):
        # The model refuses the table, so no sentence is ever scored under
        # it; the reference, which reads bare tables, fails at the OOV token.
        table = {("a",): -0.5, ("</s>",): -0.5}
        with pytest.raises(ValueError, match="model has no unigram entry for '<unk>'"):
            NGramModel(2, table, {})
        bare = types.SimpleNamespace(order=2, _logprob=table, _backoff={})
        with pytest.raises(ValueError, match="no unigram entry for '<unk>'"):
            sentence_logprob_reference(bare, ["b"])


class TestTrainedTables:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.sampled_from("abcde"), max_size=7), min_size=1, max_size=8),
        order=st.integers(1, 5),
        smoothing=st.sampled_from(["add-k", "interpolated-kneser-ney"]),
        unk_floor=st.sampled_from([None, 0.3]),
    )
    def test_every_stored_suffix_is_stored(self, corpus, order, smoothing, unk_floor):
        # Training reads each lower-order estimate straight from its table,
        # which holds only if no stored n-gram lacks its suffix.
        cfg = TrainConfig(order, smoothing, unk_floor=unk_floor)
        model = train([sent(*tokens) for tokens in corpus], cfg)
        for gram in model._logprob:
            if len(gram) >= 2:
                assert gram[1:] in model._logprob, gram


# sha256 of the saved model of academic_sentences(300, seed=3), keyed by
# (smoothing, order, unk_floor): a change to training that moves any byte
# of a model fails here.
_ARPA_DIGESTS = {
    ("interpolated-kneser-ney", 1, None):
        "364a7fec22c59340fdae3dbcc6985bc54b7dca4d19adc8021af929b6557be475",
    ("interpolated-kneser-ney", 1, 0.05):
        "95db345580dd70f3a61a8ea96e9d3bcb9eafb677c12e8dadc36a4913ace7e8db",
    ("interpolated-kneser-ney", 3, None):
        "ebe3135cf0254391516c73c3358a03b69cac45988fe9f3c79833118799cb14e7",
    ("interpolated-kneser-ney", 3, 0.05):
        "1f31ef2c2920acd34e1fa6f3d3d8fe38f01cee04b3c5c11047ec8ad2c1313513",
    ("interpolated-kneser-ney", 5, None):
        "23734465f138811f0076617f4594122c84fc70017d75d138c0956fac97e60ef3",
    ("interpolated-kneser-ney", 5, 0.05):
        "1b8cf1cb0e0c420172af1276e6bebd2863fb7849d0a2eaceb190ad6eec743741",
    ("add-k", 1, None): "ca5fe61cac17184b9a71339b6a3d818c30eba3583fae797cc9bc08d32de83b51",
    ("add-k", 1, 0.05): "e9d3c0845d6718879315f8b33d0f7a1828dfb9656fb871df2fcfda77b8dfa51b",
    ("add-k", 3, None): "172fb5105d69a2e4e123da5109be6547512aecaff9e7056aeb408eb142a87e23",
    ("add-k", 3, 0.05): "e79537965feb4e0b112263d50d267925a5874d36f558ecf4c265981c4a40c1e7",
    ("add-k", 5, None): "e52821a03a642fff7794489ba946f8bf03143712574b9dbf9a8c2e23e1fb2fab",
    ("add-k", 5, 0.05): "29b745bf7e880b321ab6abef89797b89556c47ca0e21f846e080fee5cd201857",
}


@pytest.mark.parametrize("smoothing, order, unk_floor", sorted(_ARPA_DIGESTS, key=str))
def test_saved_model_bytes_are_pinned(tmp_path, smoothing, order, unk_floor):
    path = tmp_path / "model.arpa"
    cfg = TrainConfig(order, smoothing, unk_floor=unk_floor)
    save_arpa(train(academic_sentences(300, seed=3), cfg), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _ARPA_DIGESTS[smoothing, order, unk_floor]


# sha256 of the ARPA bytes of two sentences, padded to 8 and 5 tokens, at
# orders above both: every order no n-gram reaches adds only its empty
# section and its "ngram n=0" line.
_LONG_ORDER_DIGESTS = {
    ("interpolated-kneser-ney", 9):
        "77571d985ca055b2e0a3ee99e671076d9f778104c5fbdfedacf1bce2ad55b11c",
    ("add-k", 9): "c53378a695cb06fd9f6b8a5e20a92b625e59ee825d9408179f6de3e2bcb4cf15",
    ("interpolated-kneser-ney", 40):
        "b34464518dfbb4b710fbb481b384b38e9378d3308b5307f1350310f09be0eb32",
    ("add-k", 40): "da55e1773660f3e3dc0f3afdf3a25eda6dd6e9d506fa3d279a6c8642b95d69a3",
    ("interpolated-kneser-ney", 3200):
        "369f865975fefc39fff661b25c24c9459686dffe3a4939220710089f3b75117b",
    ("add-k", 3200): "19fc9bb22c1f298c683039479e35d9669cd1a03e68dbb7ef859bca2cbd983beb",
}


@pytest.mark.parametrize("smoothing, order", sorted(_LONG_ORDER_DIGESTS))
def test_orders_above_the_sentence_length_are_pinned(tmp_path, smoothing, order):
    path = tmp_path / "model.arpa"
    corpus = [Sentence.from_text("We propose a simple model ."), Sentence.from_text("It works .")]
    save_arpa(train(corpus, TrainConfig(order, smoothing)), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _LONG_ORDER_DIGESTS[smoothing, order]


def test_order_far_above_the_sentence_length_trains_fast(tmp_path):
    # Counting stops at each padded sentence's own length, so the order
    # costs one empty table per order and no n-gram work.  A fresh process
    # under a timeout fails fast where a cost in order squared would run
    # for minutes.
    (tmp_path / "one.txt").write_text("We propose a simple model .\n", encoding="utf-8")
    argv = [sys.executable, "-m", "draftkit.cli", "lm", "train", "--order", "100000",
            "--input", str(tmp_path / "one.txt"), "--out", str(tmp_path / "m.arpa")]
    src = Path(lm.__file__).resolve().parent.parent
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert load_arpa(tmp_path / "m.arpa").order == 100_000


class TestUnknownFloor:
    def test_floor_raises_unknown_mass(self):
        model = train(
            [sent("a", "b")], TrainConfig(order=1, smoothing="add-k", k=1.0, unk_floor=0.4)
        )
        assert prob(model, "<unk>") == pytest.approx(0.4, rel=1e-12)
        # Remaining words rescale by (1-0.4)/(1-1/6): P(a) = 1/3 * 0.72.
        assert prob(model, "a") == pytest.approx(0.24, rel=1e-12)
        assert context_mass(model, ()) == pytest.approx(1.0, abs=1e-9)

    def test_floor_below_natural_mass_is_inert(self):
        model = train(
            [sent("a", "b")], TrainConfig(order=1, smoothing="add-k", k=1.0, unk_floor=0.05)
        )
        assert prob(model, "<unk>") == pytest.approx(1 / 6, rel=1e-12)

    def test_floor_respected_under_backoff(self):
        model = train(
            _toy_corpus(),
            TrainConfig(order=2, smoothing="interpolated-kneser-ney", unk_floor=0.01),
        )
        assert prob(model, "<unk>") >= 0.01 - 1e-12
        for history in [()] + stored_ngrams(model, 1):
            assert context_mass(model, history) == pytest.approx(1.0, abs=1e-6)


class TestTrainErrors:
    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            train([], TrainConfig(order=2))

    def test_order_below_one(self):
        with pytest.raises(ValueError):
            train([sent("a")], TrainConfig(order=0))

    def test_unknown_smoothing(self):
        with pytest.raises(ValueError):
            train([sent("a")], TrainConfig(order=1, smoothing="laplace-ish"))

    def test_nonpositive_k(self):
        with pytest.raises(ValueError):
            train([sent("a")], TrainConfig(order=1, smoothing="add-k", k=0.0))

    def test_bad_unk_floor(self):
        with pytest.raises(ValueError):
            train([sent("a")], TrainConfig(order=1, unk_floor=1.5))


class TestModelArguments:
    TABLE = {("a",): -0.5, ("</s>",): -0.5, ("<unk>",): -1.0, ("a", "</s>"): -0.1}

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            NGramModel(0, {}, {})

    @pytest.mark.parametrize("word", ["</s>", "<unk>"])
    def test_table_without_a_marker_unigram_rejected(self, word):
        # Scoring ends every sentence with </s> and maps OOV tokens to <unk>.
        table = {gram: value for gram, value in self.TABLE.items() if gram != (word,)}
        with pytest.raises(ValueError, match=f"^model has no unigram entry for '{word}'$"):
            NGramModel(2, table, {})

    def test_repr_names_order_and_size(self):
        assert repr(NGramModel(2, dict(self.TABLE), {})) == "NGramModel(order=2, ngrams=4)"


class TestArpaFixtures:
    def test_hand_unigram_model(self, tmp_path):
        # P(a)=0.5, P(b)=0.25, P(</s>)=0.25: scoring "a b" multiplies all
        # three, log10(1/32) = -1.505...
        text = "\n".join(
            [
                "\\data\\",
                "ngram 1=5",
                "",
                "\\1-grams:",
                f"{math.log10(0.5)}\ta",
                f"{math.log10(0.25)}\tb",
                f"{math.log10(0.25)}\t</s>",
                "-99\t<s>",
                "-5\t<unk>",
                "",
                "\\end\\",
                "",
            ]
        )
        path = tmp_path / "hand.arpa"
        path.write_text(text, encoding="utf-8")
        model = load_arpa(path)
        assert model.order == 1
        assert model.sentence_logprob(sent("a", "b").tokens) == pytest.approx(
            math.log10(0.03125), abs=1e-9
        )

    def test_uniform_model_ppl_is_vocab_size(self, tmp_path):
        words = ["a", "b", "c", "d", "e", "f", "g", "</s>"]
        lines = ["\\data\\", f"ngram 1={len(words) + 2}", "", "\\1-grams:"]
        lines.extend(f"{math.log10(1 / 8)}\t{w}" for w in words)
        lines.extend(["-99\t<s>", "-7\t<unk>", "", "\\end\\", ""])
        path = tmp_path / "uniform.arpa"
        path.write_text("\n".join(lines), encoding="utf-8")
        model = load_arpa(path)
        # Four events, each 1/8: perplexity is exactly the spread size.
        assert model.perplexity(sent("a", "b", "c").tokens) == pytest.approx(8.0, rel=1e-12)
        assert model.perplexity(sent("g", "g", "g", "g", "g").tokens) == pytest.approx(
            8.0, rel=1e-12
        )


class TestArpaRoundTrip:
    def test_scores_survive_save_load(self, tmp_path):
        model = train(academic_sentences(120, seed=7), TrainConfig(order=4))
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        reloaded = load_arpa(path)
        probes = academic_sentences(60, seed=8)
        rng = random.Random(9)
        for s in academic_sentences(40, seed=10):
            tokens = list(s.tokens)
            tokens[rng.randrange(len(tokens))] = "zzforeignzz"
            probes.append(sent(*tokens))
        probes.append(sent())
        worst = max(
            abs(model.sentence_logprob(s.tokens) - reloaded.sentence_logprob(s.tokens))
            for s in probes
        )
        assert worst < 1e-9

    def test_resave_is_byte_identical(self, tmp_path):
        model = train(academic_sentences(80, seed=11), TrainConfig(order=3))
        first = tmp_path / "one.arpa"
        second = tmp_path / "two.arpa"
        save_arpa(model, first)
        save_arpa(load_arpa(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_training_is_deterministic(self, tmp_path):
        corpus = academic_sentences(150, seed=2)
        paths = []
        for name, variant in [("a", corpus), ("b", list(corpus)), ("c", corpus[::-1])]:
            path = tmp_path / f"{name}.arpa"
            save_arpa(train(variant, TrainConfig(order=3)), path)
            paths.append(path)
        blobs = [p.read_bytes() for p in paths]
        # Same sentence multiset, permuted stream: identical counts, and the
        # writer emits sorted sections, so the bytes must match.
        assert blobs[0] == blobs[1] == blobs[2]

    def test_start_marker_written_as_placeholder(self, tmp_path):
        model = train(academic_sentences(20, seed=4), TrainConfig(order=2))
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert any(line.startswith("-99\t<s>") for line in lines)


# One malformed model per fault the reader names; tests/test_cli.py runs
# each through the commands that load a model.
MALFORMED_ARPA = {
    "count_header_mismatch": "\n".join(
        [
            "\\data\\",
            "ngram 1=3",
            "",
            "\\1-grams:",
            "-0.5\ta",
            "-0.5\tb",
            "",
            "\\end\\",
        ]
    ),
    "missing_data_header": "\\1-grams:\n-0.5\ta\n\\end\\\n",
    "missing_end_marker": "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n",
    "malformed_entry": "\n".join(
        [
            "\\data\\",
            "ngram 1=1",
            "",
            "\\1-grams:",
            "notafloat\ta",
            "",
            "\\end\\",
        ]
    ),
    "wrong_arity_entry": "\n".join(
        [
            "\\data\\",
            "ngram 1=1",
            "ngram 2=1",
            "",
            "\\1-grams:",
            "-0.5\ta",
            "",
            "\\2-grams:",
            "-0.5\ta",
            "",
            "\\end\\",
        ]
    ),
    "empty_word_entry": "\n".join(
        [
            "\\data\\",
            "ngram 1=1",
            "ngram 2=1",
            "",
            "\\1-grams:",
            "-0.5\ta",
            "",
            "\\2-grams:",
            "-0.5\ta ",
            "",
            "\\end\\",
        ]
    ),
    "missing_section": "\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n",
    "undeclared_section": "\n".join(
        [
            "\\data\\",
            "ngram 1=1",
            "",
            "\\1-grams:",
            "-0.5\ta",
            "",
            "\\2-grams:",
            "-0.5\ta b",
            "",
            "\\end\\",
        ]
    ),
    "no_eos_unigram": "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n-0.5\t<unk>\n\n\\end\\\n",
    "no_unk_unigram": "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n-0.5\t</s>\n\n\\end\\\n",
    "repeated_count_line": (
        "\\data\\\nngram 1=2\nngram 1=2\n\n\\1-grams:\n-0.5\t</s>\n-0.5\t<unk>\n\n\\end\\\n"
    ),
    "repeated_section": (
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\t</s>\n-0.5\t<unk>\n\n"
        "\\1-grams:\n-0.7\t</s>\n-0.7\t<unk>\n\n\\end\\\n"
    ),
    "repeated_unigram": (
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\t<unk>\n-0.7\t</s>\n\n\\end\\\n"
    ),
    # In a section that \end\ closes, a repeat with another backoff.
    "repeated_bigram": (
        "\\data\\\nngram 1=3\nngram 2=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\t<unk>\n"
        "-0.5\ta\t-0.1\n\n\\2-grams:\n-0.2\ta </s>\n-0.3\ta a\t-0.2\n-0.3\ta a\t-0.4\n"
        "\\end\\\n"
    ),
}


class TestArpaErrors:
    def _load(self, tmp_path, text):
        path = tmp_path / "bad.arpa"
        path.write_text(text, encoding="utf-8")
        return load_arpa(path)

    def test_count_header_mismatch_names_section(self, tmp_path):
        # Named at the blank line that ends the section.
        match = r":7: 1-grams section lists 2 entries, header promises 3$"
        with pytest.raises(ArpaFormatError, match=match):
            self._load(tmp_path, MALFORMED_ARPA["count_header_mismatch"])

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("", 1, "expected \\data\\ header"),
            ("\n \n", 3, "expected \\data\\ header"),
            ("\\data\\\n", 2, "no n-gram counts declared in \\data\\ section"),
            ("\\data\\\n\nngram 1=1\n", 2, "no n-gram counts declared in \\data\\ section"),
            ("\\data\\\nngram x\n", 2, "bad count line in \\data\\ section: 'ngram x'"),
            ("\\data\\\nngram 1=1\n", 3, "missing \\end\\ marker"),
            ("\\data\\\nngram 1=1\n\nhello\n", 4, "unexpected line 'hello'"),
            ("\\data\\\nngram 1=1\n\n\\2-grams:\n", 4, "section 2-grams not declared in header"),
            # A section the file ends inside is a missing \end\, whatever its count.
            ("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n", 6, "missing \\end\\ marker"),
            # Faults found after the sections are named at the \end\ line.
            ("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n\njunk\n", 8,
             "missing 2-grams section"),
        ],
    )
    def test_structure_fault_line_and_reason(self, tmp_path, text, line, reason):
        with pytest.raises(ArpaFormatError) as excinfo:
            self._load(tmp_path, text)
        assert str(excinfo.value) == f"{tmp_path / 'bad.arpa'}:{line}: {reason}"

    @pytest.mark.parametrize(
        "name, line, reason",
        [
            ("repeated_count_line", 3, "repeated count line for 1-grams"),
            ("repeated_section", 8, "repeated 1-grams section"),
            # Found at the line that ends the section, not at the repeat.
            ("repeated_unigram", 8, "1-grams section lists 3 entries, 2 of them distinct"),
            ("repeated_bigram", 14, "2-grams section lists 3 entries, 2 of them distinct"),
        ],
        ids=["count-line", "section", "unigram", "bigram"],
    )
    def test_repeat_is_fault(self, tmp_path, name, line, reason):
        with pytest.raises(ArpaFormatError) as excinfo:
            self._load(tmp_path, MALFORMED_ARPA[name])
        assert str(excinfo.value) == f"{tmp_path / 'bad.arpa'}:{line}: {reason}"
        with pytest.raises(ValueError, match="repeated"):
            read_arpa_reference(tmp_path / "bad.arpa")

    def test_missing_data_header(self, tmp_path):
        with pytest.raises(ArpaFormatError, match=r"\\data\\"):
            self._load(tmp_path, MALFORMED_ARPA["missing_data_header"])

    def test_missing_end_marker(self, tmp_path):
        with pytest.raises(ArpaFormatError, match=r"\\end\\"):
            self._load(tmp_path, MALFORMED_ARPA["missing_end_marker"])

    def test_malformed_entry_names_section(self, tmp_path):
        with pytest.raises(ArpaFormatError, match="1-grams"):
            self._load(tmp_path, MALFORMED_ARPA["malformed_entry"])

    def test_wrong_arity_entry_names_section(self, tmp_path):
        with pytest.raises(ArpaFormatError, match="2-grams"):
            self._load(tmp_path, MALFORMED_ARPA["wrong_arity_entry"])

    def test_empty_word_is_arity_mismatch(self, tmp_path):
        # "a " has two fields, one of them empty.
        with pytest.raises(ArpaFormatError, match=r":9: entry arity mismatch in 2-grams section"):
            self._load(tmp_path, MALFORMED_ARPA["empty_word_entry"])

    def test_missing_section(self, tmp_path):
        with pytest.raises(ArpaFormatError, match=r":8: missing 2-grams section"):
            self._load(tmp_path, MALFORMED_ARPA["missing_section"])

    def test_undeclared_section(self, tmp_path):
        with pytest.raises(ArpaFormatError, match="2-grams"):
            self._load(tmp_path, MALFORMED_ARPA["undeclared_section"])

    @pytest.mark.parametrize(
        "blob, reason",
        [
            # A bad count line on line 3 is named before a bad byte on line 8.
            (b"\\data\\\nngram 1=3\nngram x\n\n\\1-grams:\n-0.5\t</s>\n-0.5\t<unk>\n"
             b"-0.5\t\xff\n\n\\end\\\n", r":3: bad count line in \\data\\ section: 'ngram x'"),
            # A bad byte after \end\ is a fault too, found once the rest is read.
            (b"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\t</s>\n-0.5\t<unk>\n\n\\end\\\n\nok\n\xc3",
             r":11: not valid UTF-8 \(unexpected end of data\)"),
        ],
        ids=["count-line-first", "after-end"],
    )
    def test_first_fault_in_file_order(self, tmp_path, blob, reason):
        path = tmp_path / "bad.arpa"
        path.write_bytes(blob)
        with pytest.raises(RecordError, match=f"^{re.escape(str(path))}{reason}$"):
            load_arpa(path)

    @pytest.mark.parametrize(
        "name, word", [("no_eos_unigram", "</s>"), ("no_unk_unigram", "<unk>")]
    )
    def test_missing_marker_unigram_names_end_line(self, tmp_path, name, word):
        # Scoring needs both unigrams, so the fault is the model's, found
        # at its \end\ line, not the scored text's.
        with pytest.raises(ArpaFormatError, match=rf":8: model has no unigram entry for '{word}'"):
            self._load(tmp_path, MALFORMED_ARPA[name])
        with pytest.raises(ValueError, match="no unigram entry"):
            read_arpa_reference(tmp_path / "bad.arpa")


def _arpa(bigrams: list[str], unigram_bows: dict[str, str]) -> str:
    """A bigram model over a, b, c with the markers; ``unigram_bows``
    gives some unigrams a backoff field, verbatim."""
    words = ["a", "b", "c", "</s>", "<unk>"]
    lines = ["\\data\\", f"ngram 1={len(words) + 1}", f"ngram 2={len(bigrams)}", "", "\\1-grams:"]
    lines.append("-99\t<s>" + (f"\t{unigram_bows['<s>']}" if "<s>" in unigram_bows else ""))
    for word in words:
        bow = unigram_bows.get(word)
        lines.append(f"-0.7\t{word}" + (f"\t{bow}" if bow is not None else ""))
    lines += ["", "\\2-grams:", *bigrams, "", "\\end\\", ""]
    return "\n".join(lines)


# "a" and "<unk>" are each followed by every predicted word, so an order-2
# add-k model leaves their contexts no mass to back off with.
_NO_BACKOFF_MASS = [
    ["a", "a"], ["a", "<unk>"], ["a"], ["<unk>", "a"], ["<unk>", "<unk>"], ["<unk>"]
]


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(["a", "b", "c", "<unk>"]), max_size=7),
                    min_size=1, max_size=8),
    order=st.integers(1, 4),
    smoothing=st.sampled_from(["add-k", "interpolated-kneser-ney"]),
    unk_floor=st.sampled_from([None, 0.3]),
)
@example(corpus=_NO_BACKOFF_MASS, order=2, smoothing="add-k", unk_floor=None)
def test_saved_bytes_match_reference_writer(tmp_path_factory, corpus, order, smoothing, unk_floor):
    cfg = TrainConfig(order, smoothing, unk_floor=unk_floor)
    model = train([sent(*tokens) for tokens in corpus], cfg)
    path = tmp_path_factory.getbasetemp() / "reference-writer.arpa"
    save_arpa(model, path)
    assert path.read_bytes() == arpa_text_reference(model).encode("utf-8")


class TestBackoffMemo:
    """``load_arpa`` parses each distinct backoff string once per load."""

    def _load_both(self, tmp_path, text):
        path = tmp_path / "memo.arpa"
        path.write_text(text, encoding="utf-8")
        model = load_arpa(path)
        assert read_arpa_reference(path) == (model.order, model._logprob, model._backoff)
        return model

    def test_repeated_strings(self, tmp_path):
        bows = {"<s>": "-0.25", "a": "-0.25", "b": "-0.5", "c": "-0.25"}
        model = self._load_both(tmp_path, _arpa(["-0.3\t<s> a", "-0.3\ta b"], bows))
        assert model._backoff == {("<s>",): -0.25, ("a",): -0.25, ("b",): -0.5, ("c",): -0.25}
        assert model.sentence_logprob(["a", "b"]) == sentence_logprob_reference(model, ["a", "b"])

    def test_signed_zeros_stay_distinct(self, tmp_path):
        bows = {"a": "0.0", "b": "-0.0", "c": "0.0", "<s>": "-0.0"}
        model = self._load_both(tmp_path, _arpa(["-0.3\t<s> a"], bows))
        signs = {gram[0]: math.copysign(1.0, value) for gram, value in model._backoff.items()}
        assert signs == {"<s>": -1.0, "a": 1.0, "b": -1.0, "c": 1.0}

    def test_add_k_infinite_backoffs(self, tmp_path):
        corpus = [sent(*tokens) for tokens in _NO_BACKOFF_MASS]
        path = tmp_path / "addk.arpa"
        save_arpa(train(corpus, TrainConfig(order=2, smoothing="add-k")), path)
        assert path.read_text(encoding="utf-8").count("\t-inf\n") == 2
        model = self._load_both(tmp_path, path.read_text(encoding="utf-8"))
        assert model._backoff[("a",)] == model._backoff[("<unk>",)] == -math.inf
        for tokens in (["a", "zz", "a"], ["<unk>"], []):
            assert model.sentence_logprob(tokens) == sentence_logprob_reference(model, tokens)

    def test_malformed_string_names_its_first_line(self, tmp_path):
        # The bad string is on lines 7 and 9; the fault is named at the first.
        bows = {"a": "-0.5x", "c": "-0.5x"}
        path = tmp_path / "bad.arpa"
        path.write_text(_arpa(["-0.3\ta b"], bows), encoding="utf-8")
        with pytest.raises(ArpaFormatError, match=r":7: malformed entry in 1-grams section"):
            load_arpa(path)
        with pytest.raises(ValueError):
            read_arpa_reference(path)


@lru_cache(maxsize=None)
def _saved_models() -> tuple[bytes, ...]:
    """ARPA bytes of small models, orders 1 to 3 and both smoothings."""
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.arpa"
        for order, smoothing in ((1, "add-k"), (2, "interpolated-kneser-ney"), (3, "add-k")):
            model = train(academic_sentences(3, seed=order), TrainConfig(order, smoothing))
            save_arpa(model, path)
            blobs.append(path.read_bytes())
    return tuple(blobs)


_STRAY_LINES = (b"", b"  ", b"\\", b"\\data\\", b"\\end\\", b" \\end\\", b"\\1-grams:",
                b"\\2-grams:", b"\\4-grams:", b"\\x")
_NOT_UTF8 = (b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80")
_VALUES = (b"-1.5", b" -2 ", b"-inf", b"1e3", b"1_0", b"+0", b"0x1", b"")
_COUNT = re.compile(rb"ngram (\d+)=(\d+)")


class TestArpaReaderAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_models(self, tmp_path_factory, data):
        # Both readers must accept the same mutants of a saved model and
        # build the same tables from them.
        lines = data.draw(st.sampled_from(_saved_models())).split(b"\n")
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(
                st.sampled_from(
                    ["drop", "dup", "insert", "tab", "count", "value", "bytes", "crlf", "ff"]
                )
            )
            # Half the edits land on a header, count or blank line or the end.
            framing = [
                j for j, line in enumerate(lines)
                if not line.strip() or line.startswith((b"\\", b"ngram"))
            ]
            i = data.draw(st.integers(0, len(lines) - 1) | st.sampled_from(framing + [-1]))
            if kind == "drop" and len(lines) > 1:
                del lines[i]
            elif kind == "dup":
                lines.insert(i, lines[i])
            elif kind == "insert":
                lines.insert(i % len(lines), data.draw(st.sampled_from(_STRAY_LINES)))
            elif kind == "crlf":
                # The line's "\n" becomes "\r\n" or "\r\r\n"; both readers drop them.
                lines[i] += data.draw(st.sampled_from([b"\r", b"\r\r"]))
            elif kind == "ff":
                # A form feed is no line break, inside a word or anywhere else.
                fields = lines[i].split(b"\t")
                f = 1 if len(fields) > 1 else 0
                at = data.draw(st.integers(0, len(fields[f])))
                fields[f] = fields[f][:at] + b"\x0c" + fields[f][at:]
                lines[i] = b"\t".join(fields)
            elif kind == "tab":
                lines[i] = lines[i].replace(b"\t", b" ", 1)
            elif kind == "value" and b"\t" in lines[i]:
                fields = lines[i].split(b"\t")
                fields[data.draw(st.sampled_from([0, -1]))] = data.draw(st.sampled_from(_VALUES))
                lines[i] = b"\t".join(fields)
            elif kind == "bytes":
                at = data.draw(st.integers(0, len(lines[i])))
                lines[i] = lines[i][:at] + data.draw(st.sampled_from(_NOT_UTF8)) + lines[i][at:]
            elif kind == "count":
                # Only intact count lines: an earlier "bytes" edit may have
                # corrupted one past what int() reads.
                counts = {j: m for j, line in enumerate(lines) if (m := _COUNT.fullmatch(line))}
                if counts:
                    j = data.draw(st.sampled_from(list(counts)))
                    order, count = map(int, counts[j].groups())
                    if data.draw(st.booleans()):
                        order = data.draw(st.integers(0, 4))
                    else:
                        count = data.draw(st.integers(max(0, count - 2), count + 2))
                    lines[j] = b"ngram %d=%d" % (order, count)
        blob = b"\n".join(lines)
        path = tmp_path_factory.mktemp("arpa") / "mutant.arpa"
        path.write_bytes(blob)
        try:
            expected = read_arpa_reference(path)
        except ValueError:
            expected = None
        try:
            model = load_arpa(path)
        except RecordError as err:
            assert expected is None
            assert str(err).startswith(f"{path}:{err.line_no}: ")
            assert 1 <= err.line_no <= blob.count(b"\n") + 2
        else:
            assert expected == (model.order, model._logprob, model._backoff)

    def test_saved_models_load_as_reference(self, tmp_path):
        path = tmp_path / "model.arpa"
        for blob in _saved_models():
            path.write_bytes(blob)
            model = load_arpa(path)
            assert read_arpa_reference(path) == (model.order, model._logprob, model._backoff)

    def test_order_zero_is_format_error(self, tmp_path):
        path = tmp_path / "zero.arpa"
        path.write_text("\\data\\\nngram 0=0\n\n\\end\\\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_arpa_reference(path)
        with pytest.raises(ArpaFormatError) as excinfo:
            load_arpa(path)
        assert (excinfo.value.path, excinfo.value.line_no) == (str(path), 4)


def _bits(model: NGramModel) -> tuple:
    """The model's order and tables, each value as its IEEE 754 bytes."""
    def table(values):
        return {gram: struct.pack("<d", value) for gram, value in values.items()}
    return model.order, table(model._logprob), table(model._backoff)


# Values a table may hold that a text round trip could lose: signed zeros,
# the <s> placeholder, infinities, 17 significant digits, subnormals.
_AWKWARD_VALUES = (
    -0.0, 0.0, -99.0, -math.inf, -1.2345678901234567, -0.30102999566398114,
    -5e-324, -1.7976931348623157e308,
)


def _sidecar(arpa: Path, payload: bytes) -> bytes:
    """A sidecar whose header matches ``arpa`` in every field, over ``payload``."""
    data = arpa.read_bytes()
    return lm._sidecar_header(hashlib.sha256(data).hexdigest(), len(data), payload) + payload


def _flip_payload_byte(path: Path, other: Path) -> None:
    data = bytearray(sidecar_path(path).read_bytes())
    data[-3] ^= 0x01
    sidecar_path(path).write_bytes(bytes(data))


def _retag(old: bytes, new: bytes):
    def edit(path: Path, other: Path) -> None:
        sidecar = sidecar_path(path)
        data = sidecar.read_bytes()
        assert data.count(old) == 1
        sidecar.write_bytes(data.replace(old, new))
    return edit


def _rewrite_arpa(path: Path, other: Path) -> None:
    # The text of another model, written after this one's sidecar.
    path.write_bytes(other.read_bytes())


def _repayload(payload: bytes):
    def edit(path: Path, other: Path) -> None:
        sidecar_path(path).write_bytes(_sidecar(path, payload))
    return edit


_CACHE_TAG = str(sys.implementation.cache_tag).encode()
_MARSHAL_LINE = b"\nmarshal %d %s\n" % (marshal.version, _CACHE_TAG)

# Each edit leaves a sidecar that must not be used: the load parses instead.
_STALE_SIDECARS = {
    "missing": lambda path, other: sidecar_path(path).unlink(),
    "flipped payload byte": _flip_payload_byte,
    "other cache tag": _retag(_MARSHAL_LINE, _MARSHAL_LINE.replace(_CACHE_TAG, b"x" + _CACHE_TAG)),
    "other marshal version": _retag(
        _MARSHAL_LINE, _MARSHAL_LINE.replace(b"marshal %d" % marshal.version, b"marshal 9")
    ),
    "other magic": _retag(b"draftkit compiled ARPA 1\n", b"draftkit compiled ARPA 2\n"),
    "ARPA rewritten after": _rewrite_arpa,
    "another model's sidecar": lambda path, other: shutil.copy(
        sidecar_path(other), sidecar_path(path)
    ),
    "list, not tuple": _repayload(marshal.dumps([2, {}, {}])),
    "order 0": _repayload(marshal.dumps((0, {}, {}))),
    "order a bool": _repayload(marshal.dumps((True, {}, {}))),
    "tables swapped for a list": _repayload(marshal.dumps((2, [], {}))),
    "two fields": _repayload(marshal.dumps((2, {}))),
    "truncated marshal data": _repayload(marshal.dumps((2, {("a",): -1.0}, {}))[:-4]),
    "unknown marshal type": _repayload(b"\x00"),
    "unhashable key": _repayload(b"{" + marshal.dumps([]) + marshal.dumps(0) + b"0"),
    "tables without <unk>": _repayload(marshal.dumps((2, {("a",): -1.0, ("</s>",): -1.0}, {}))),
}


class TestCompiledSidecar:
    """``save_arpa`` writes a sidecar that ``load_arpa`` reads only when its
    header matches; every load gives what parsing the ARPA text gives."""

    @staticmethod
    def _save_pair(tmp_path) -> tuple[Path, Path]:
        path, other = tmp_path / "model.arpa", tmp_path / "other.arpa"
        save_arpa(_model("interpolated-kneser-ney", 2), path)
        save_arpa(_model("add-k", 1), other)
        return path, other

    @settings(max_examples=150, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.sampled_from(["a", "b", "c", "<unk>"]), max_size=7),
                        min_size=1, max_size=8),
        order=st.integers(1, 5),
        smoothing=st.sampled_from(["add-k", "interpolated-kneser-ney"]),
        unk_floor=st.sampled_from([None, 0.3]),
        edits=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10**6), st.sampled_from(_AWKWARD_VALUES)),
            max_size=6,
        ),
    )
    @example(corpus=_NO_BACKOFF_MASS, order=2, smoothing="add-k", unk_floor=None, edits=[])
    def test_round_trip_is_bit_for_bit(
        self, tmp_path_factory, corpus, order, smoothing, unk_floor, edits
    ):
        cfg = TrainConfig(order, smoothing, unk_floor=unk_floor)
        model = train([sent(*tokens) for tokens in corpus], cfg)
        for backoff, index, value in edits:
            table = model._backoff if backoff and model._backoff else model._logprob
            table[sorted(table)[index % len(table)]] = value
        path = tmp_path_factory.getbasetemp() / "round-trip.arpa"
        save_arpa(model, path)
        compiled = lm._load_compiled(path)
        assert compiled is not None
        assert _bits(compiled) == _bits(load_parsed(load_arpa, path)) == _bits(model)

    @pytest.mark.parametrize("edit", sorted(_STALE_SIDECARS))
    def test_stale_sidecar_falls_back_to_the_parse(self, tmp_path, edit):
        path, other = self._save_pair(tmp_path)
        assert lm._load_compiled(path) is not None
        _STALE_SIDECARS[edit](path, other)
        assert lm._load_compiled(path) is None
        assert _bits(load_arpa(path)) == _bits(load_parsed(load_arpa, path))

    @pytest.mark.parametrize(
        "name, word, kept", [("no_eos_unigram", "</s>", "<unk>"), ("no_unk_unigram", "<unk>", "</s>")]
    )
    def test_sidecar_without_a_marker_falls_back_to_the_parse(self, tmp_path, name, word, kept):
        # A sidecar holding the text's own tables, which lack a marker, gives
        # no model, so the load fails as the parse does, at the \end\ line.
        path = tmp_path / "bad.arpa"
        path.write_text(MALFORMED_ARPA[name], encoding="utf-8")
        table = {("a",): -0.5, (kept,): -0.5}
        sidecar_path(path).write_bytes(_sidecar(path, marshal.dumps((1, table, {}))))
        assert lm._load_compiled(path) is None
        with pytest.raises(ArpaFormatError) as loaded:
            load_arpa(path)
        assert str(loaded.value) == f"{path}:8: model has no unigram entry for {word!r}"

    def test_truncated_sidecar_falls_back_to_the_parse(self, tmp_path):
        path, _ = self._save_pair(tmp_path)
        whole = sidecar_path(path).read_bytes()
        expected = _bits(load_parsed(load_arpa, path))
        header = whole.index(b"\npayload ") + len(b"\npayload ") + 65
        for cut in sorted({0, 1, 30, header - 1, header, header + 1, len(whole) // 2,
                           len(whole) - 1}):
            sidecar_path(path).write_bytes(whole[:cut])
            assert lm._load_compiled(path) is None, cut
            assert _bits(load_arpa(path)) == expected, cut

    @pytest.mark.parametrize("edit", ["fresh", *sorted(_STALE_SIDECARS)])
    def test_bad_arpa_fails_as_parsed_with_any_sidecar(self, tmp_path, edit, capsys):
        path, other = self._save_pair(tmp_path)
        if edit != "fresh":
            _STALE_SIDECARS[edit](path, other)
        lines = path.read_bytes().split(b"\n")
        lines[7] = b"-0.5\tone two three"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ArpaFormatError) as parsed:
            load_parsed(load_arpa, path)
        with pytest.raises(ArpaFormatError) as loaded:
            load_arpa(path)
        assert str(loaded.value) == str(parsed.value)
        assert str(parsed.value).startswith(f"{path}:8: entry arity mismatch")
        text = tmp_path / "text.txt"
        text.write_text("a draft .\n", encoding="utf-8")
        argv = ["lm", "ppl", "--model", str(path), "--input", str(text),
                "--report", str(tmp_path / "ppl.json")]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {parsed.value}\n"

    @pytest.mark.parametrize(
        "build,fault",
        [
            # A word with white space in it is split apart in the text.
            (lambda: train([Sentence.from_tokens(["a b", "c"])], TrainConfig(2)),
             "white space: 'a b'"),
            # An empty word leaves an empty field.
            (lambda: train([Sentence.from_tokens(["", "c"])], TrainConfig(order=2)),
             "white space: ''"),
            # A backoff weight of an n-gram with no entry is not written.
            (
                lambda: NGramModel(
                    1, {("a",): -0.5, ("</s>",): -0.5, ("<unk>",): -1.0}, {("z",): -0.1}
                ),
                r"backoff weight without an entry: \('z',\)",
            ),
            # The text of a model with no end unigram would not load, and no
            # such model is built.
            (lambda: NGramModel(1, {("a",): -0.5, ("<unk>",): -1.0}, {}),
             "model has no unigram entry for '</s>'"),
        ],
        ids=["spaced word", "empty word", "unwritten backoff", "no end unigram"],
    )
    def test_refuses_a_model_whose_text_reads_back_otherwise(self, tmp_path, build, fault):
        # Neither file is written: those of an earlier save stay as they were.
        path = tmp_path / "model.arpa"
        save_arpa(_model("add-k", 1), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=fault):
            save_arpa(build(), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_renames_the_arpa_file_first(self, tmp_path, monkeypatch):
        # A run killed between the two renames leaves the old sidecar beside
        # the new ARPA file, whose sha256 its header does not match.
        renamed = []
        replace = os.replace

        def spy(src, dst):
            renamed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        save_arpa(_model("add-k", 1), tmp_path / "model.arpa")
        assert renamed == ["model.arpa", "model.arpa.compiled"]
        assert sorted(p.name for p in tmp_path.iterdir()) == renamed


class TestModelQuality:
    def test_held_in_beats_shuffled(self):
        corpus = academic_sentences(1000, seed=0)
        model = train(corpus, TrainConfig(order=5))
        rng = random.Random(1)
        wins = 0
        for s in rng.sample(corpus, 100):
            shuffled = list(s.tokens)
            while tuple(shuffled) == s.tokens:
                rng.shuffle(shuffled)
            if model.perplexity(s.tokens) < model.perplexity(tuple(shuffled)):
                wins += 1
        assert wins >= 95

    def test_duplicated_sentence_gets_cheaper(self):
        base = academic_sentences(200, seed=5)
        target = base[0]
        boosted = base + [target] * 99
        ppl_base = train(base, TrainConfig(order=3)).perplexity(target.tokens)
        ppl_boosted = train(boosted, TrainConfig(order=3)).perplexity(target.tokens)
        assert ppl_boosted < ppl_base
