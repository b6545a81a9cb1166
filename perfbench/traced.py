"""Run one ``kgel`` command with spans recorded at module boundaries.

    python perfbench/traced.py SPANS_JSON RUN_ID ARGS...

ARGS go to ``kgel.cli.main`` unchanged. Every public name in BOUNDARIES is
replaced, in the module that calls it, by a wrapper that records a span: its
name, start, end and parent span; all spans of one process share RUN_ID.
``synthesize_corpus`` returns a generator, so its result is wrapped in an
iterator whose every step is a ``synthesis.generate`` span; the scorer that
``condition_on_mention`` returns is wrapped in one that counts the tokens it
scores. Spans stay in memory and are written to SPANS_JSON, with the counters,
when the command ends. The package itself is not edited, and a name missing
from its module is skipped and listed under ``unwrapped``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

# (module that calls the name, public name, span name)
BOUNDARIES = (
    ("kgel.cli", "parse_kg_dir", "ingest.parse_kg_dir"),
    ("kgel.cli", "parse_dataset", "ingest.parse_dataset"),
    ("kgel.cli", "synthesize_corpus", "synthesis.synthesize_corpus"),
    ("kgel.cli", "write_corpus", "synthesis.write_corpus"),
    ("kgel.cli", "corpus_targets", "synthesis.corpus_targets"),
    ("kgel.cli", "finetune_targets", "similarity.finetune_targets"),
    ("kgel.cli", "train", "ngram.train"),
    ("kgel.cli", "save_model", "ngram.save_model"),
    ("kgel.cli", "load_model", "ngram.load_model"),
    ("kgel.cli", "condition_on_mention", "ngram.condition_on_mention"),
    ("kgel.cli", "link_dataset", "linking.link_dataset"),
    ("kgel.cli", "write_predictions", "linking.write_predictions"),
    ("kgel.cli", "read_predictions", "evaluate.read_predictions"),
    ("kgel.cli", "report", "evaluate.report"),
    ("kgel.linking", "build_trie", "trie.build_trie"),
    ("kgel.linking", "build_lookup", "linking.build_lookup"),
    ("kgel.linking", "link_mention", "linking.link_mention"),
    ("kgel.linking", "constrained_beam_search", "trie.constrained_beam_search"),
    ("kgel.linking", "similarity", "similarity.similarity"),
)


class Tracer:
    """Spans as (id, parent id, name index, start ns, end ns); id 0 is the
    process itself."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counters: Counter = Counter()
        self._stack = [0]
        self._next_id = 1

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, perf_counter_ns()

    def end(self, name: int, span_id: int, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, self._stack[-1], name, start, end))

    def wrap(self, fn, name: str, post=None):
        index = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, start = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index, span_id, start)
            return result if post is None else post(result)

        return traced

    def dump(self, path: str, unwrapped: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "unwrapped": unwrapped,
                },
                fp,
            )


class TracedIterator:
    def __init__(self, tracer: Tracer, iterator, name: str):
        self._tracer = tracer
        self._iterator = iterator
        self._name = tracer.name_index(name)

    def __iter__(self):
        return self

    def __next__(self):
        span_id, start = self._tracer.begin()
        try:
            return next(self._iterator)
        finally:
            self._tracer.end(self._name, span_id, start)


class CountingScorer:
    """Forwards to the wrapped scorer; ``score_next`` is a span and adds the
    size of its candidate set to ``ngram.scored_tokens``."""

    def __init__(self, tracer: Tracer, scorer):
        self._tracer = tracer
        self._scorer = scorer
        self._score_next = tracer.wrap(scorer.score_next, "ngram.score_next")

    def score_next(self, prefix, candidates):
        self._tracer.counters["ngram.scored_tokens"] += len(candidates)
        return self._score_next(prefix, candidates)

    def __getattr__(self, name):
        return getattr(self._scorer, name)


def main(argv: list[str]) -> int:
    spans_path, run_id, *args = argv
    tracer = Tracer(run_id)
    seen: dict[str, object] = {}
    lookup = importlib.import_module("kgel.linking").build_lookup

    def keep(key):
        def post(result):
            seen[key] = result
            return result

        return post

    def trie_sizes(trie):
        tracer.counters["trie.nodes"] = trie.node_count
        tracer.counters["trie.root_fanout"] = len(trie.allowed_next(())[0])
        return trie

    post = {
        "parse_kg_dir": keep("kg"),
        "link_dataset": keep("predictions"),
        "synthesize_corpus": lambda it: TracedIterator(tracer, it, "synthesis.generate"),
        "condition_on_mention": lambda scorer: CountingScorer(tracer, scorer),
        "build_trie": trie_sizes,
    }
    unwrapped = []
    for module_name, name, span in BOUNDARIES:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            unwrapped.append(f"{module_name}.{name}")
            continue
        setattr(module, name, tracer.wrap(getattr(module, name), span, post.get(name)))

    code = importlib.import_module("kgel.cli").main(args)

    if "predictions" in seen:
        table = lookup(seen["kg"])
        candidates = [c for p in seen["predictions"] for c in p.candidates]
        tracer.counters["linking.candidates"] = len(candidates)
        tracer.counters["linking.ambiguous_candidates"] = sum(1 for c in candidates if table.is_ambiguous(c.surface))
    tracer.dump(spans_path, unwrapped)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
