"""Toolkit for building and evaluating sentence-revision corpora.

The pipeline, end to end: filter raw corpora into clean sentence pools
(:mod:`draftkit.corpus`), train backoff n-gram language models
(:mod:`draftkit.lm`), synthesize rough drafts from clean references by
seeded noising (:mod:`draftkit.noising`), score crowdworker submissions and
filter draft/reference pairs (:mod:`draftkit.quality`), evaluate revision
systems (:mod:`draftkit.metrics`), and profile finished datasets
(:mod:`draftkit.analysis`).  The knobs of training, noising, pair
filtering and term analysis are records in :mod:`draftkit.config`.  Everything is reachable from the
``draftkit`` command line (:mod:`draftkit.cli`), which loads only the
modules a command runs.
"""

__version__ = "0.1.0"

DEFAULT_SEED = 1729
"""Seed used by every randomized entry point when the caller does not pick one."""
