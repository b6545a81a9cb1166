"""Subcommand front-end for the whole pipeline:

    kgel ingest      validate a KG directory and print its statistics
    kgel stats       dataset statistics
    kgel synthesize  generate a pre-training corpus
    kgel train-scorer  train the n-gram scorer
    kgel link        link dataset mentions to entities
    kgel evaluate    Recall@k report over a predictions file

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to stderr;
data goes to stdout or to the file named by --out. Output files start with a
header record echoing the run configuration (input paths and parameters; the
output path is excluded because it must not affect bytes).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from .errors import KgelError
from .evaluate import report
from .ingest import DATASET_FORMAT, KG_TSV_FORMAT, dataset_stats, parse_dataset, parse_kg_dir
from .kg import kg_stats
from .linking import PREDICTIONS_FORMAT, link_dataset, read_predictions, write_predictions
from .ngram import (
    DEFAULT_ORDER,
    NGRAM_FORMAT,
    condition_on_mention,
    finetune_targets,
    load_model,
    save_model,
    train,
)
from .synthesis import (
    CORPUS_FORMAT,
    DEFAULT_SYNONYM_CAP,
    DEFAULT_TRIPLES_PER_CONCEPT,
    MODES,
    corpus_targets,
    synthesize_corpus,
    write_corpus,
)
from .trie import TRIE_DUMP_FORMAT, UniformScorer

FORMATS = (KG_TSV_FORMAT, DATASET_FORMAT, CORPUS_FORMAT, NGRAM_FORMAT, PREDICTIONS_FORMAT, TRIE_DUMP_FORMAT)
DEFAULT_SEED = 42
DEFAULT_BEAM_WIDTH = 5
DEFAULT_TOP_K = 10


@dataclass
class RunConfig:
    """Provenance record echoed into output artifact headers."""

    command: str
    seed: int = DEFAULT_SEED
    mode: str | None = None
    cap: int | None = None
    k: int | None = None
    order: int | None = None
    beam_width: int | None = None
    top_k: int | None = None
    paths: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        for name in ("cap", "k", "order", "beam_width", "top_k"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1")

    def to_dict(self) -> dict:
        out: dict = {"command": self.command, "seed": self.seed}
        for name in ("mode", "cap", "k", "order", "beam_width", "top_k"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out.update(self.paths)
        return out


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_ingest(args) -> int:
    kg = parse_kg_dir(args.kg)
    _info(f"loaded {len(kg.entities)} entities, {len(kg.relations)} relations, {len(kg.triples)} triples")
    _emit(kg_stats(kg).to_dict())
    return 0


def cmd_stats(args) -> int:
    docs = parse_dataset(args.dataset)
    _emit(dataset_stats(docs).to_dict())
    return 0


def cmd_synthesize(args) -> int:
    config = RunConfig(
        command="synthesize", seed=args.seed, mode=args.mode, cap=args.cap, k=args.k,
        paths={"kg": args.kg},
    )
    config.validate()
    kg = parse_kg_dir(args.kg)
    samples = synthesize_corpus(kg, args.mode, cap=args.cap, k=args.k, seed=args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        count = write_corpus(samples, fp, config=config.to_dict())
    _info(f"wrote {count} samples to {args.out}")
    return 0


def cmd_train_scorer(args) -> int:
    if not args.corpus and not args.dataset:
        raise KgelError("nothing to train on: pass --corpus and/or --dataset with --kg")
    if args.dataset and not args.kg:
        raise KgelError("--dataset requires --kg to resolve gold entities")
    config = RunConfig(command="train-scorer", order=args.order, paths={})
    if args.corpus:
        config.paths["corpus"] = args.corpus
    if args.dataset:
        config.paths.update({"dataset": args.dataset, "kg": args.kg})
    config.validate()

    targets: list[str] = []
    if args.corpus:
        targets.extend(corpus_targets(args.corpus))
    if args.dataset:
        kg = parse_kg_dir(args.kg)
        docs = parse_dataset(args.dataset)
        targets.extend(finetune_targets(kg, docs))
    model = train(targets, args.order)
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        save_model(model, fp, config=config.to_dict())
    _info(f"trained order-{model.order} model over {model.vocab_size} token vocabulary")
    return 0


def cmd_link(args) -> int:
    config = RunConfig(
        command="link", beam_width=args.beam_width, top_k=args.top_k,
        paths={"kg": args.kg, "dataset": args.dataset},
    )
    if args.model:
        config.paths["model"] = args.model
    config.validate()
    kg = parse_kg_dir(args.kg)
    docs = parse_dataset(args.dataset)
    if args.model:
        model = load_model(args.model)
        scorer_factory = lambda surface: condition_on_mention(model, surface)
    else:
        uniform = UniformScorer()
        scorer_factory = lambda surface: uniform
    predictions = link_dataset(kg, docs, scorer_factory, beam_width=args.beam_width, top_k=args.top_k)
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        count = write_predictions(predictions, fp, config=config.to_dict())
    failed = sum(1 for prediction in predictions if not prediction.candidates)
    _info(f"linked {count} mentions to {args.out}; {failed} left without candidates")
    return 0


def _parse_ks(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise KgelError(f"--ks must be comma-separated integers, got {raw!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise KgelError("--ks values must be >= 1")
    return ks


def cmd_evaluate(args) -> int:
    predictions = read_predictions(args.preds)
    if args.gold:
        docs = parse_dataset(args.gold)
        expected = [(doc.doc_id, index, mention.gold) for doc in docs for index, mention in enumerate(doc.mentions)]
        got = [(p.doc_id, p.mention_index, p.gold) for p in predictions]
        if expected != got:
            raise KgelError("predictions do not align with the gold dataset (doc_id, mention_index, gold)")
    kg = parse_kg_dir(args.kg) if args.kg else None
    ks = _parse_ks(args.ks)
    result = report(predictions, ks, kg=kg)
    if result.empty_input:
        _info("warning: no mentions to evaluate")
    if args.csv:
        row = ",".join(f"{k},{result.recall_at[k]:.6f}" for k in sorted(result.recall_at))
        sys.stdout.write(row + "\n")
    else:
        _emit(result.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgel", description="KG corpus synthesis, constrained entity linking, evaluation")
    parser.add_argument(
        "--version", action="version",
        version=f"kgel {__version__} (formats: {', '.join(FORMATS)})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a KG directory and print statistics")
    p.add_argument("--kg", required=True, help="KG directory (concepts/synonyms/relations/triples TSVs)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--dataset", required=True, help="JSON-lines dataset file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synthesize", help="generate a pre-training corpus")
    p.add_argument("--kg", required=True)
    p.add_argument("--mode", choices=MODES, default="combined")
    p.add_argument("--cap", type=int, default=DEFAULT_SYNONYM_CAP, help="max synonym pairs per concept")
    p.add_argument("--k", type=int, default=DEFAULT_TRIPLES_PER_CONCEPT, help="max sampled triples per concept")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("train-scorer", help="train the n-gram scorer")
    p.add_argument("--corpus", help="pre-training corpus (JSON lines)")
    p.add_argument("--dataset", help="dataset whose mentions become linking-template lines")
    p.add_argument("--kg", help="KG directory (required with --dataset)")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_scorer)

    p = sub.add_parser("link", help="link dataset mentions to entities")
    p.add_argument("--kg", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", help="n-gram model file; omit for the uniform scorer")
    p.add_argument("--beam-width", type=int, default=DEFAULT_BEAM_WIDTH)
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("evaluate", help="Recall@k report over predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--gold", help="dataset file to cross-check alignment against")
    p.add_argument("--kg", help="KG directory for unresolved-gold and ambiguity counts")
    p.add_argument("--ks", default="1,5,10", help="comma-separated k values")
    p.add_argument("--csv", action="store_true", help="one-line CSV of (k, recall) pairs")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"kgel: error: {exc}", file=sys.stderr)
        return 1
    except KgelError as exc:
        print(f"kgel: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"kgel: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
