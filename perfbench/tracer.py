"""Call tracing from outside the package, by wrapping its functions.

Every function a ``draftkit`` module defines or imports from another
``draftkit`` module is replaced, in each namespace that holds it, by a
wrapper that times the call.  A call is therefore attributed to the
module it was looked up in (``draftkit.quality.levenshtein_char`` is a
call the quality layer made into the metrics layer).  Methods of the
package's classes are wrapped on the class and take their caller from
the innermost traced frame.

Counts and times are aggregated per (caller layer, callee).  Stage-level
frames (``cli.dispatch``, the subcommand handlers and what they call
directly) also get one span each.  A frame's self time is its duration
minus the durations of the traced calls it contains.

Pool workers: a forked worker inherits the wrappers; a spawned one gets
them when it re-imports the entry script with ``PERFBENCH_TRACE_SPOOL``
set.  Either way a worker writes its own aggregate to that spool
directory after each top-level call, and :meth:`Tracer.collect` merges
the files into the parent's figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "corpus", "lm", "noising", "quality", "metrics", "analysis", "resources")
SPOOL_ENV = "PERFBENCH_TRACE_SPOOL"
_SPAN_DEPTH = 3

# Callees whose times are reported together; a call made while another
# member of its group is active adds no inclusive time.
_GROUPS = {
    name: group
    for group, names in {
        "lm.sentence": (
            "lm.NGramModel.sentence_logprob", "lm.NGramModel.perplexity",
            "lm.sentence_logprob", "lm.perplexity",
        ),
        "corpus.filter": (
            "corpus.passes_final_filter", "corpus.passes_training_filter",
            "corpus.filter_final_sentences", "corpus.filter_training_sentences",
        ),
    }.items()
    for name in names
}


def _layer_of(func) -> str | None:
    module = getattr(func, "__module__", None) or ""
    if not module.startswith("draftkit."):
        return None
    return module.split(".")[1]


class Tracer:
    def __init__(self, spool: Path | None = None, *, in_worker: bool = False) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.in_worker = in_worker
        self._reset()

    def _reset(self) -> None:
        # (caller layer, callee) -> [calls, outermost inclusive s, self s]
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: Counter[str] = Counter()
        self.oov_types: set[str] = set()
        self.stack: list[list] = []
        self.active: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.next_span = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"draftkit.{name}") for name in LAYERS]
        for module in modules:
            layer = module.__name__.split(".")[1]
            for name, obj in list(vars(module).items()):
                if self._wants(name, obj):
                    setattr(module, name, self._wrap(obj, fixed_caller=layer))
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if isinstance(member, types.FunctionType) and not attr.startswith("_"):
                            setattr(obj, attr, self._wrap(member, fixed_caller=None))

    @staticmethod
    def _wants(name: str, obj) -> bool:
        if getattr(obj, "__perfbench__", False) or _layer_of(obj) is None:
            return False
        if isinstance(obj, types.FunctionType):
            if inspect.isgeneratorfunction(obj):
                return False  # the work happens while the caller iterates
            return not name.startswith("_") or name.startswith("_cmd_")
        return hasattr(obj, "cache_info")  # lru_cache loaders in resources

    def _wrap(self, func, fixed_caller: str | None):
        callee = f"{_layer_of(func)}.{func.__qualname__}"
        observe = _OBSERVERS.get(callee)
        group = _GROUPS.get(callee, callee)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_worker()
            stack = tracer.stack
            if fixed_caller is not None:
                caller = fixed_caller
            elif stack:
                caller = stack[-1][0].split(".", 1)[0]
            else:
                caller = "worker" if tracer.in_worker else "bench"
            span = -1
            if len(stack) < _SPAN_DEPTH:
                span = tracer.next_span
                tracer.next_span += 1
            parent_span = stack[-1][3] if stack else -1
            frame = [callee, perf_counter(), 0.0, span]
            stack.append(frame)
            tracer.active[group] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[group] -= 1
                duration = end - frame[1]
                entry = tracer.stats.get((caller, callee))
                if entry is None:
                    entry = tracer.stats[(caller, callee)] = [0, 0.0, 0.0]
                entry[0] += 1
                if not tracer.active[group]:
                    entry[1] += duration
                entry[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if span >= 0:
                    tracer.spans.append((span, parent_span, callee, caller, frame[1], end))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if tracer.in_worker and not stack:
                tracer._dump()
            return result

        wrapper.__perfbench__ = True
        return wrapper

    # -- pool workers -------------------------------------------------------

    def _enter_worker(self) -> None:
        self.pid = os.getpid()
        self.in_worker = True
        self._reset()

    def _dump(self) -> None:
        if self.spool is None:
            return
        payload = {
            "stats": [[caller, callee, *v] for (caller, callee), v in self.stats.items()],
            "counts": dict(self.counts),
            "oov_types": sorted(self.oov_types),
        }
        path = self.spool / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)

    def collect(self) -> int:
        """Merge and delete worker spool files; return how many there were."""
        if self.spool is None:
            return 0
        files = sorted(self.spool.glob("*.json"))
        for path in files:
            payload = json.loads(path.read_text(encoding="utf-8"))
            for caller, callee, calls, inclusive, self_s in payload["stats"]:
                entry = self.stats.setdefault((caller, callee), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += self_s
            self.counts.update(payload["counts"])
            self.oov_types.update(payload["oov_types"])
            path.unlink()
        return len(files)

    # -- queries ------------------------------------------------------------

    def calls(self, *callees: str) -> int:
        return sum(v[0] for (_, name), v in self.stats.items() if name in callees)

    def seconds(self, *callees: str) -> float:
        """Inclusive time of ``callees``, not counting calls made while
        another member of the same group was active."""
        return sum(v[1] for (_, name), v in self.stats.items() if name in callees)

    def self_seconds(self, *, layer: str | None = None, callee: str | None = None) -> float:
        return sum(
            v[2] for (_, name), v in self.stats.items()
            if (layer is None or name.split(".", 1)[0] == layer) and (callee is None or name == callee)
        )

    def table(self) -> list[dict]:
        return [
            {"caller": caller, "callee": callee, "calls": v[0], "s": v[1], "self_s": v[2]}
            for (caller, callee), v in sorted(self.stats.items())
        ]


# -- observers: counts taken from arguments and results ----------------------


def _observe_levenshtein(tracer: Tracer, args, kwargs, result) -> None:
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    tracer.counts["levenshtein_char.cells"] += len(a) * len(b)
    if tracer.active["quality.spell_check"]:
        tracer.counts["spell_check.levenshtein_calls"] += 1


def _observe_spell_check(tracer: Tracer, args, kwargs, result) -> None:
    # The eligibility rule of draftkit.quality.spell_check, restated so the
    # count does not depend on how the checker finds its corrections.
    from draftkit.corpus import MASK_TOKEN
    from draftkit.resources import load_wordlist

    sentence = args[0] if args else kwargs["s"]
    dictionary = args[1] if len(args) > 1 else kwargs.get("dictionary")
    if dictionary is None:
        dictionary = load_wordlist()
    for token in sentence.tokens:
        if token.isalpha() and not token.isupper() and token != MASK_TOKEN:
            lowered = token.lower()
            if lowered not in dictionary:
                tracer.counts["oov_tokens"] += 1
                tracer.oov_types.add(lowered)
    tracer.counts["corrections"] += len(result.corrections)


def _observe_filter_pairs(tracer: Tracer, args, kwargs, result) -> None:
    kept, removed = result
    tracer.counts["filter_pairs.kept"] += len(kept)
    tracer.counts["filter_pairs.removed"] += len(removed)


_OBSERVERS = {
    "metrics.levenshtein_char": _observe_levenshtein,
    "quality.spell_check": _observe_spell_check,
    "quality.filter_pairs": _observe_filter_pairs,
}
