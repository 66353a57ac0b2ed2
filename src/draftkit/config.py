"""Config records of the language model, the noising, the pair filter and
the term analysis.

They live apart from the code that reads them, so that the command line
builds its parsers and checks each subcommand's knobs without importing
that code.  Each record stays importable from the module whose functions
take it (``draftkit.lm.TrainConfig`` and the others).  The corpus filter's
record lives in :mod:`draftkit.corpus`, beside the base ``_Checked`` that
all of them share.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import DEFAULT_SEED
from .corpus import MASK_TOKEN, _Checked
from .resources import load_stopwords

KNESER_NEY = "interpolated-kneser-ney"
ADD_K = "add-k"
SMOOTHINGS = (KNESER_NEY, ADD_K)


class _TrainConfig(NamedTuple):
    order: int = 5
    smoothing: str = KNESER_NEY
    k: float = 1.0
    unk_floor: float | None = None


class TrainConfig(_Checked, _TrainConfig):
    """Knobs of :func:`draftkit.lm.train`, each checked whatever the
    smoothing.  ``k`` is the additive constant of add-k smoothing.
    ``unk_floor`` optionally lifts the unigram mass of the unknown symbol
    to the given probability, rescaling the rest of the unigram
    distribution to keep it proper."""

    __slots__ = ()

    def _checked(self) -> "TrainConfig":
        order, smoothing, k, unk_floor = self
        if order < 1:
            raise ValueError("order must be at least 1")
        if smoothing not in SMOOTHINGS:
            raise ValueError(f"unknown smoothing {smoothing!r}; expected one of {SMOOTHINGS}")
        if not (math.isfinite(k) and k > 0):
            raise ValueError(f"k must be positive and finite, got {k}")
        if unk_floor is not None and not 0.0 <= unk_floor < 1.0:
            raise ValueError("unk_floor must lie in [0, 1)")
        return self


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


class _NoiseConfig(NamedTuple):
    delete_p: float = 0.1
    replace_p: float = 0.1
    replace_vocab_min_count: int = 10_000
    shuffle_k: int = 3
    mask_fraction_max: float = 0.5
    seed: int = DEFAULT_SEED


class NoiseConfig(_Checked, _NoiseConfig):
    __slots__ = ()

    def _checked(self) -> "NoiseConfig":
        for name in ("delete_p", "replace_p", "mask_fraction_max"):
            _check_unit(name, getattr(self, name))
        if self.shuffle_k < 0:
            raise ValueError(f"shuffle_k must be non-negative, got {self.shuffle_k}")
        return self


class _FilterConfig(NamedTuple):
    alpha: float = 0.4
    stopwords: frozenset[str] | None = None


class FilterConfig(_Checked, _FilterConfig):
    """Knobs for the overlap filter.  ``stopwords`` may be any iterable of
    tokens, and None stands for the bundled list."""

    __slots__ = ()

    def _checked(self) -> tuple:
        stopwords = load_stopwords() if self.stopwords is None else frozenset(self.stopwords)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if MASK_TOKEN in stopwords:
            raise ValueError("the mask token cannot also be a stopword")
        return self.alpha, stopwords


class _TermsConfig(NamedTuple):
    top_k: int = 20
    epsilon: float = 1.0


class TermsConfig(_Checked, _TermsConfig):
    """Knobs of :func:`draftkit.analysis.characteristic_terms`: how many
    terms each side keeps, and the smoothing constant added to both
    frequencies."""

    __slots__ = ()

    def _checked(self) -> "TermsConfig":
        if self.top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {self.top_k}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        return self
