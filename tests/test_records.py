"""Every record type is an immutable named tuple that behaves as the
frozen dataclass it replaced did: construction by keyword or position,
equality and hashing by value, no field assignment, the same ``repr``
and field order, pickling and copying, and the same validation
messages."""

from __future__ import annotations

import copy
import pickle

import pytest

from draftkit.analysis import (
    DatasetStats, LinguisticProfile, SideProfile, TermContrast, TermsConfig,
)
from draftkit.corpus import CorpusFilterConfig, DraftPair, Sentence
from draftkit.lm import TrainConfig
from draftkit.metrics import EvalReport, PairEval
from draftkit.noising import NoiseConfig
from draftkit.quality import FilterConfig, SpellCheckResult, WorkerSubmission, WorkerVerdict

MASKED = Sentence.from_text("a <*> b")
CLEAN = Sentence.from_text("a b .")
PAIR_EVAL = dict(bleu=0.5, rouge_l=0.25, levenshtein_char=3, grammaticality=1.0, fre=None,
                 ppl=2.5, passive=True, repetition=False, edit_matches=1, edit_proposed=2,
                 edit_gold=3)
SIDE = dict(fre_mean=1.0, passive_pct=2.0, repetition_pct=3.0, ppl_mean=4.0, skipped=5)
SIDE_REPR = ("SideProfile(fre_mean=1.0, passive_pct=2.0, repetition_pct=3.0, ppl_mean=4.0, "
             "skipped=5)")
PAIR_EVAL_REPR = ("PairEval(bleu=0.5, rouge_l=0.25, levenshtein_char=3, grammaticality=1.0, "
                  "fre=None, ppl=2.5, passive=True, repetition=False, edit_matches=1, "
                  "edit_proposed=2, edit_gold=3)")

# (type, constructor arguments in field order, its repr, its field names).
# Each repr is what the dataclass version printed for the same arguments;
# TrainConfig and TermsConfig, the last two, were never dataclasses.
RECORDS = [
    (Sentence, dict(text="a <*> b", tokens=("a", "<*>", "b"), char_len=7),
     "Sentence(text='a <*> b', tokens=('a', '<*>', 'b'), char_len=7)",
     ["text", "tokens", "char_len"]),
    (DraftPair, dict(draft=MASKED, reference=CLEAN),
     f"DraftPair(draft={MASKED!r}, reference={CLEAN!r}, has_mask=True)",
     ["draft", "reference", "has_mask"]),
    (CorpusFilterConfig, dict(min_chars=70, max_chars=120, min_tokens=5, max_tokens=35,
                              min_alpha_ratio=0.5, excluded=frozenset({"A  B"})),
     "CorpusFilterConfig(min_chars=70, max_chars=120, min_tokens=5, max_tokens=35, "
     "min_alpha_ratio=0.5, excluded=frozenset({'a b'}))",
     ["min_chars", "max_chars", "min_tokens", "max_tokens", "min_alpha_ratio", "excluded"]),
    (PairEval, PAIR_EVAL, PAIR_EVAL_REPR, list(PAIR_EVAL)),
    (EvalReport, dict(per_pair=(PairEval(**PAIR_EVAL),), corpus_bleu=0.1, mean_rouge_l=0.2,
                      edit_precision=0.3, edit_recall=0.4, edit_f05=0.5,
                      mean_grammaticality=0.6, mean_fre=None, mean_ppl=7.0, passive_rate=0.8,
                      repetition_rate=0.9, skipped_fre=1, skipped_ppl=2),
     f"EvalReport(per_pair=({PAIR_EVAL_REPR},), corpus_bleu=0.1, mean_rouge_l=0.2, "
     "edit_precision=0.3, edit_recall=0.4, edit_f05=0.5, mean_grammaticality=0.6, "
     "mean_fre=None, mean_ppl=7.0, passive_rate=0.8, repetition_rate=0.9, skipped_fre=1, "
     "skipped_ppl=2)",
     ["per_pair", "corpus_bleu", "mean_rouge_l", "edit_precision", "edit_recall", "edit_f05",
      "mean_grammaticality", "mean_fre", "mean_ppl", "passive_rate", "repetition_rate",
      "skipped_fre", "skipped_ppl"]),
    (SpellCheckResult, dict(corrected_text="a b", corrections=(("c", "d"),)),
     "SpellCheckResult(corrected_text='a b', corrections=(('c', 'd'),))",
     ["corrected_text", "corrections"]),
    (FilterConfig, dict(alpha=0.4, stopwords={"the"}),
     "FilterConfig(alpha=0.4, stopwords=frozenset({'the'}))", ["alpha", "stopwords"]),
    (WorkerSubmission, dict(worker_id="w", answers=["a", "b", "c"], seconds_worked=3,
                            mt_references=["d", "e", "f"]),
     "WorkerSubmission(worker_id='w', answers=('a', 'b', 'c'), seconds_worked=3, "
     "mt_references=('d', 'e', 'f'))",
     ["worker_id", "answers", "seconds_worked", "mt_references"]),
    (WorkerVerdict, dict(score=1.5, accepted=True, triggered=(("worker.time", "reject"),)),
     "WorkerVerdict(score=1.5, accepted=True, triggered=(('worker.time', 'reject'),))",
     ["score", "accepted", "triggered"]),
    (DatasetStats, dict(pair_count=2, pct_with_mask=50.0, pct_changed=100.0,
                        mean_char_levenshtein=1.5),
     "DatasetStats(pair_count=2, pct_with_mask=50.0, pct_changed=100.0, "
     "mean_char_levenshtein=1.5)",
     ["pair_count", "pct_with_mask", "pct_changed", "mean_char_levenshtein"]),
    (SideProfile, SIDE, SIDE_REPR, list(SIDE)),
    (LinguisticProfile, dict(draft=SideProfile(**SIDE), reference=SideProfile(**SIDE)),
     f"LinguisticProfile(draft={SIDE_REPR}, reference={SIDE_REPR})", ["draft", "reference"]),
    (TermContrast, dict(term="t", draft_freq=1.0, reference_freq=2.0, log_ratio=-0.5),
     "TermContrast(term='t', draft_freq=1.0, reference_freq=2.0, log_ratio=-0.5)",
     ["term", "draft_freq", "reference_freq", "log_ratio"]),
    (NoiseConfig, dict(delete_p=0.1, replace_p=0.1, replace_vocab_min_count=10_000, shuffle_k=3,
                       mask_fraction_max=0.5, seed=1729),
     "NoiseConfig(delete_p=0.1, replace_p=0.1, replace_vocab_min_count=10000, shuffle_k=3, "
     "mask_fraction_max=0.5, seed=1729)",
     ["delete_p", "replace_p", "replace_vocab_min_count", "shuffle_k", "mask_fraction_max",
      "seed"]),
    (TrainConfig, dict(order=3, smoothing="add-k", k=0.5, unk_floor=None),
     "TrainConfig(order=3, smoothing='add-k', k=0.5, unk_floor=None)",
     ["order", "smoothing", "k", "unk_floor"]),
    (TermsConfig, dict(top_k=5, epsilon=0.5), "TermsConfig(top_k=5, epsilon=0.5)",
     ["top_k", "epsilon"]),
]


@pytest.mark.parametrize("cls, kwargs, text, names", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, kwargs, text, names):
    record = cls(**kwargs)
    assert type(record) is cls
    assert cls(*kwargs.values()) == record
    assert hash(cls(**kwargs)) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, names[0], kwargs[names[0]])
    assert repr(record) == text
    assert list(record._asdict()) == names
    assert not hasattr(record, "__dict__")
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


def test_defaults_match_the_dataclass_defaults():
    assert CorpusFilterConfig() == CorpusFilterConfig(70, 120, 5, 35, 0.5, frozenset())
    assert NoiseConfig() == NoiseConfig(0.1, 0.1, 10_000, 3, 0.5, 1729)
    assert FilterConfig().alpha == 0.4 and "the" in FilterConfig().stopwords
    assert TrainConfig() == TrainConfig(5, "interpolated-kneser-ney", 1.0, None)
    assert TermsConfig() == TermsConfig(20, 1.0)


def test_values_stored_as_given_are_not_copied():
    answers, references = ("a", "b", "c"), ("d", "e", "f")
    sub = WorkerSubmission("w", answers, 3, references)
    assert sub.answers is answers and sub.mt_references is references
    stopwords = frozenset({"the"})
    assert FilterConfig(stopwords=stopwords).stopwords is stopwords


# Each message is the one the dataclass's __post_init__ raised, or for
# TrainConfig and TermsConfig the one train and characteristic_terms raised.
INVALID = [
    (lambda: DraftPair(CLEAN, MASKED), "reference sentence contains the mask token"),
    (lambda: CorpusFilterConfig(min_chars=10, max_chars=5), "need 0 < min_chars <= max_chars, got 10..5"),
    (lambda: CorpusFilterConfig(min_tokens=0), "need 0 < min_tokens <= max_tokens, got 0..35"),
    (lambda: CorpusFilterConfig(min_alpha_ratio=1.5), "min_alpha_ratio must be in [0, 1], got 1.5"),
    (lambda: NoiseConfig(delete_p=-0.1), "delete_p must lie in [0, 1], got -0.1"),
    (lambda: NoiseConfig(replace_p=2), "replace_p must lie in [0, 1], got 2"),
    (lambda: NoiseConfig(mask_fraction_max=1.5), "mask_fraction_max must lie in [0, 1], got 1.5"),
    (lambda: NoiseConfig(shuffle_k=-1), "shuffle_k must be non-negative, got -1"),
    (lambda: FilterConfig(alpha=1.5), "alpha must be in [0, 1], got 1.5"),
    (lambda: FilterConfig(stopwords={"<*>"}), "the mask token cannot also be a stopword"),
    (lambda: WorkerSubmission("w", ["a", "b"], 3, ["d", "e", "f"]), "expected 3 answers, got 2"),
    (lambda: WorkerSubmission("w", ["a", "b", "c"], 3, ["d", "e", "f", "g"]),
     "expected 3 machine references, got 4"),
    (lambda: WorkerSubmission("w", ["a", "b", "c"], -1, ["d", "e", "f"]),
     "seconds_worked must be nonnegative, got -1"),
    (lambda: TrainConfig(order=0), "order must be at least 1"),
    (lambda: TrainConfig(smoothing="laplace"),
     "unknown smoothing 'laplace'; expected one of ('interpolated-kneser-ney', 'add-k')"),
    (lambda: TrainConfig(k=float("nan")), "k must be positive and finite, got nan"),
    (lambda: TrainConfig(unk_floor=1.0), "unk_floor must lie in [0, 1)"),
    (lambda: TermsConfig(top_k=0), "top_k must be at least 1, got 0"),
    (lambda: TermsConfig(epsilon=float("inf")), "epsilon must be positive and finite, got inf"),
]


@pytest.mark.parametrize("build, message", INVALID, ids=[m for _, m in INVALID])
def test_validation_message(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_replace_goes_through_the_checks():
    with pytest.raises(ValueError, match="delete_p must lie"):
        NoiseConfig()._replace(delete_p=2.0)
    assert CorpusFilterConfig()._replace(excluded=["A  B"]).excluded == frozenset({"a b"})
    with pytest.raises(ValueError, match="alpha must be in"):
        FilterConfig()._replace(alpha=2.0)
    with pytest.raises(ValueError, match="k must be positive"):
        TrainConfig()._replace(k=0.0)
    with pytest.raises(ValueError, match="top_k must be at least"):
        TermsConfig()._replace(top_k=0)
    sub = WorkerSubmission("w", ["a", "b", "c"], 3, ["d", "e", "f"])
    assert sub._replace(answers=["x", "y", "z"]).answers == ("x", "y", "z")
    pair = DraftPair(MASKED, CLEAN)._replace(draft=CLEAN)
    assert pair == DraftPair(CLEAN, CLEAN) and not pair.has_mask
