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
import gc
import io
import json
import os
import pickle
import signal
import stat
import sys
from array import array
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, TextIO

from . import __version__, linking
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
from .trie import UniformScorer

FORMATS = (KG_TSV_FORMAT, DATASET_FORMAT, CORPUS_FORMAT, NGRAM_FORMAT, PREDICTIONS_FORMAT)
DEFAULT_SEED = 42
DEFAULT_BEAM_WIDTH = 5
DEFAULT_TOP_K = 10


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(raw: str) -> int:
    """argparse type for counts and widths: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _open_output(path: str) -> TextIO:
    """Open an ``--out`` artifact for writing as a new file.

    Truncating a file whose pages are not yet on disk makes ext4 write them
    out first (``auto_da_alloc``), and the process waits for that; unlinking
    the old file lets the kernel drop its pages instead. Only a regular file
    with no other hard link is unlinked. A symlink, a hard-linked file or a
    non-regular file (``/dev/stdout``, a FIFO) is opened in place, as is a
    file whose directory refuses the unlink.
    """
    try:
        info = os.lstat(path)
    except OSError:
        info = None  # missing or unreachable: open() creates it or reports why
    if info is not None and stat.S_ISREG(info.st_mode) and info.st_nlink == 1:
        try:
            os.unlink(path)
        except PermissionError:
            pass
    return open(path, "w", encoding="utf-8", newline="")


class _ColumnPickler(pickle.Pickler):
    """Pickles each ``array`` as its index in ``columns``, so that its raw
    bytes can be sent apart from the pickle."""

    def __init__(self, fp):
        super().__init__(fp, pickle.HIGHEST_PROTOCOL)
        self.columns: list[array] = []

    def persistent_id(self, obj):
        if type(obj) is not array:
            return None
        self.columns.append(obj)
        return len(self.columns) - 1


def _read_column(fp, typecode: str, length: int) -> array:
    column = array(typecode, [0]) * length
    if fp.readinto(column) != len(column) * column.itemsize:
        raise EOFError
    return column


def _outcome(fn: Callable, args: tuple) -> tuple[bool, object]:
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _unpack(outcome: tuple[bool, object]):
    done, value = outcome
    if not done:
        raise value
    return value


@contextmanager
def _in_worker(fn: Callable, *args, overlap: bool = True) -> Iterator[Callable[[], object]]:
    """Run ``fn(*args)`` in one forked worker while the ``with`` block runs.
    The block gets a join function that returns what ``fn`` returned or
    raises what it raised, and may be called again. A worker the block did
    not join is killed; either way it is reaped before the block is left.

    The worker sends the typecode and length of each ``array`` in the
    result, their raw bytes, which the join reads straight into arrays, and
    then the pickle of the rest, which it reads from the pipe as it goes.
    Without ``os.fork``, or with ``overlap`` false, ``fn`` runs inline before
    the block, and what it raised is still raised only at the join, so
    callers keep one order of errors. The CLI starts no threads, so the fork
    copies a single-threaded process."""
    if not overlap or not hasattr(os, "fork"):
        outcome = _outcome(fn, args)
        yield lambda: _unpack(outcome)
        return
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as fp, open(write_end, "wb") as out:
        pid = os.fork()
        if pid == 0:
            try:
                # Without a read end of its own, a worker whose parent died
                # fails its first write instead of waiting for a reader.
                fp.close()
                pickled = io.BytesIO()
                pickler = _ColumnPickler(pickled)
                pickler.dump(_outcome(fn, args))
                pickle.dump([(column.typecode, len(column)) for column in pickler.columns], out)
                for column in pickler.columns:
                    column.tofile(out)
                out.write(pickled.getbuffer())
                out.close()
                os._exit(0)
            finally:
                os._exit(1)
        out.close()
        outcome = None

        def join():
            nonlocal outcome, pid
            if outcome is None:
                try:
                    columns = [_read_column(fp, *shape) for shape in pickle.load(fp)]
                    unpickler = pickle.Unpickler(fp)
                    unpickler.persistent_load = columns.__getitem__
                    outcome = unpickler.load()
                except (EOFError, pickle.UnpicklingError):
                    pass
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pid = 0
                if outcome is None:
                    outcome = False, KgelError(f"worker process exited with status {status} before sending a result")
            return _unpack(outcome)

        try:
            yield join
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
    config = {"command": "synthesize", "seed": args.seed, "mode": args.mode, "cap": args.cap, "k": args.k, "kg": args.kg}
    kg = parse_kg_dir(args.kg)
    samples = synthesize_corpus(kg, args.mode, cap=args.cap, k=args.k, seed=args.seed)
    with _open_output(args.out) as fp:
        count = write_corpus(samples, fp, config=config)
    _info(f"wrote {count} samples to {args.out}")
    return 0


def _finetune_lines(kg_dir: str, dataset: str) -> list[str]:
    """The dataset's linking-template lines. The graph and the documents they
    are drawn from are freed on return."""
    return finetune_targets(parse_kg_dir(kg_dir), parse_dataset(dataset))


def cmd_train_scorer(args) -> int:
    if not args.corpus and not args.dataset:
        raise KgelError("nothing to train on: pass --corpus and/or --dataset with --kg")
    if args.dataset and not args.kg:
        raise KgelError("--dataset requires --kg to resolve gold entities")
    # train-scorer takes no --seed; its header records the default anyway
    config = {"command": "train-scorer", "seed": DEFAULT_SEED, "order": args.order}
    if args.dataset:
        config.update({"dataset": args.dataset, "kg": args.kg})
    if args.corpus:
        config["corpus"] = args.corpus
    # A worker reads the KG and the dataset into the fine-tuning lines while
    # the corpus is read here as train consumes it; the lines are consumed
    # last. Counting thus holds a token stream, its counted runs and the
    # model's columns, not the graph or the corpus records. A KG or dataset
    # error comes before a corpus error, so a failed count joins the worker
    # before it reports its own error.
    finetuning = (
        _in_worker(_finetune_lines, args.kg, args.dataset, overlap=bool(args.corpus))
        if args.dataset else nullcontext(list)
    )
    with finetuning as finetune_lines:

        def targets() -> Iterator[str]:
            if args.corpus:
                yield from corpus_targets(args.corpus)
            yield from finetune_lines()

        try:
            model = train(targets(), args.order)
        except Exception:
            finetune_lines()
            raise
    with _open_output(args.out) as fp:
        save_model(model, fp, config=config)
    _info(f"trained order-{model.order} model over {model.vocab_size} token vocabulary")
    return 0


def cmd_link(args) -> int:
    # link takes no --seed; its header records the default anyway
    config = {
        "command": "link", "seed": DEFAULT_SEED, "beam_width": args.beam_width, "top_k": args.top_k,
        "kg": args.kg, "dataset": args.dataset,
    }
    if args.model:
        config["model"] = args.model
    # A worker loads the model while the KG, the dataset and the trie are
    # built here. It is joined after them, so their errors still come first,
    # and before any mention is decoded, so a bad model fails the command
    # instead of leaving every mention without candidates. build_trie is
    # called through kgel.linking, as link_dataset calls it, so that a
    # wrapper set on that module still sees the call.
    loading = _in_worker(load_model, args.model) if args.model else nullcontext(lambda: None)
    with loading as loaded_model:
        kg = parse_kg_dir(args.kg)
        docs = parse_dataset(args.dataset)
        trie = linking.build_trie(kg)
        model = loaded_model()
    if model is None:
        uniform = UniformScorer()
        scorer_factory = lambda surface: uniform
    else:
        scorer_factory = lambda surface: condition_on_mention(model, surface)

    def decode(part: list) -> list:
        return link_dataset(kg, part, scorer_factory, trie=trie, beam_width=args.beam_width, top_k=args.top_k)

    # A worker decodes the documents that hold the later half of the
    # mentions while the first half is decoded here; its predictions are
    # appended at the join. An error in the first half is raised before the
    # join, so it wins over the worker's, as in a serial run.
    total = sum(len(doc.mentions) for doc in docs)
    held = split = 0
    while 2 * held < total:
        held += len(docs[split].mentions)
        split += 1
    with _in_worker(decode, docs[split:], overlap=held < total) as decoded_later:
        predictions = decode(docs[:split])
        predictions += decoded_later()
    with _open_output(args.out) as fp:
        count = write_predictions(predictions, fp, config=config)
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
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_SYNONYM_CAP, help="max synonym pairs per concept")
    p.add_argument("--k", type=_positive_int, default=DEFAULT_TRIPLES_PER_CONCEPT, help="max sampled triples per concept")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("train-scorer", help="train the n-gram scorer")
    p.add_argument("--corpus", help="pre-training corpus (JSON lines)")
    p.add_argument("--dataset", help="dataset whose mentions become linking-template lines")
    p.add_argument("--kg", help="KG directory (required with --dataset)")
    p.add_argument("--order", type=_positive_int, default=DEFAULT_ORDER)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_scorer)

    p = sub.add_parser("link", help="link dataset mentions to entities")
    p.add_argument("--kg", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", help="n-gram model file; omit for the uniform scorer")
    p.add_argument("--beam-width", type=_positive_int, default=DEFAULT_BEAM_WIDTH)
    p.add_argument("--top-k", type=_positive_int, default=DEFAULT_TOP_K)
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
    # Nothing a subcommand builds (the KG's entities and triples, parsed
    # documents, tuples, frozen dataclasses; the trie and the model are array
    # columns) forms a reference cycle, so the cyclic collector's passes over
    # the millions of objects set-up allocates would free nothing. The
    # argparse parser holds the only cycles of a run, a few hundred objects.
    gc_was_enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
