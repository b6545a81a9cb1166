import gc
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import time
import weakref
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest

from conftest import TOY_DATASET, TOY_KG_DIR, build_linkbench

import kgel
import kgel.cli
from kgel.cli import main
from kgel.ingest import parse_dataset, parse_kg_dir, write_dataset, write_kg_dir
from kgel.linking import write_predictions
from kgel.ngram import condition_on_mention, finetune_targets, save_model, train
from kgel.synthesis import corpus_targets


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def bench_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    kg, docs = build_linkbench()
    write_kg_dir(kg, base / "kg")
    with open(base / "mentions.jsonl", "w", encoding="utf-8") as fp:
        write_dataset(docs, fp)
    return base


class TestTopLevel:
    def test_version(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0
        assert "kgel 0.1.0" in out
        assert "backend" not in out
        # Exactly the formats that some command reads or writes.
        # argparse wraps the version line
        assert re.findall(r"kgel-[\w-]+", out) == [
            "kgel-kg-tsv-v1", "kgel-dataset-jsonl-v1", "kgel-corpus-v1", "kgel-ngram-v1", "kgel-predictions-v1",
        ]
        assert "kgel-trie-dump-v1" not in out

    def test_python_dash_m_kgel(self):
        env = {**os.environ, "PYTHONPATH": str(Path(kgel.__file__).parents[1])}
        outputs = [
            subprocess.run([sys.executable, "-m", module, "--version"], capture_output=True, text=True, env=env)
            for module in ("kgel", "kgel.cli")
        ]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout != ""

    def test_unknown_flag_exits_1(self, capsys):
        code, out, err = run(capsys, "ingest", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1

    def test_data_error_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "ingest", "--kg", str(tmp_path / "nowhere"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("reader", ["kg", "model", "predictions", "corpus", "dataset"])
    def test_invalid_utf8_exits_2_with_file_and_line(self, capsys, tmp_path, reader):
        kg_dir = tmp_path / "kg"
        write_kg_dir(build_linkbench(3)[0], kg_dir)
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        if reader == "kg":
            bad = kg_dir / "synonyms.tsv"
            argv = ["ingest", "--kg", str(kg_dir)]
        elif reader == "model":
            bad = tmp_path / "model.tsv"
            argv = ["link", "--kg", str(kg_dir), "--dataset", str(dataset), "--model", str(bad),
                    "--out", str(tmp_path / "p.jsonl")]
        elif reader == "predictions":
            bad = tmp_path / "p.jsonl"
            argv = ["evaluate", "--preds", str(bad)]
        elif reader == "corpus":
            bad = tmp_path / "c.jsonl"
            argv = ["train-scorer", "--corpus", str(bad), "--out", str(tmp_path / "m.tsv")]
        else:
            bad = tmp_path / "d.jsonl"
            argv = ["stats", "--dataset", str(bad)]
        bad.write_bytes(b"C1000\tok\nC1001\tbad\xfe\n")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{bad}:2: invalid UTF-8 byte 0xfe" in err

    @pytest.mark.parametrize("command", ["ingest", "synthesize"])
    @pytest.mark.parametrize(
        "name, what, surface",
        [("concepts.tsv", "preferred name", " "), ("synonyms.tsv", "synonym", " "), ("synonyms.tsv", "synonym", "\u3000\x1c")],
        ids=["name", "synonym", "unicode_spaces"],
    )
    def test_surface_without_tokens_exits_2_with_file_and_line(self, capsys, tmp_path, command, name, what, surface):
        """A surface of whitespace alone would become an empty template or
        trie path; the KG reader rejects it at its line, before any stage
        uses it."""
        kg_dir = tmp_path / "kg"
        write_kg_dir(build_linkbench(3)[0], kg_dir)
        bad = kg_dir / name
        bad.write_text(f"C1000\tfirst\nC1001\t{surface}\n", encoding="utf-8")
        argv = {"ingest": ["ingest"], "synthesize": ["synthesize", "--mode", "synonym", "--out", str(tmp_path / "c.jsonl")]}
        code, _, err = run(capsys, *argv[command], "--kg", str(kg_dir))
        assert code == 2
        assert f"{bad}:2: {what} {surface!r} of 'C1001' has no tokens" in err
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize(
        "command, line",
        [
            ("stats", "[" * 100_000),
            ("stats", '{"doc_id": ' + "9" * 5_000 + "}"),
            ("evaluate", '{"doc_id": "d", "mention_index": Infinity, "gold": "C1", "candidates": []}'),
            ("train-scorer", '{"source": "a", "target": 5, "kind": "synonym", "concept": "C1"}'),
        ],
        ids=["deep_dataset", "long_int_dataset", "infinite_mention_index", "non_string_target"],
    )
    def test_undecodable_json_line_exits_2_with_file_and_line(self, capsys, tmp_path, command, line):
        # Line 1 is valid: a document, or the header record of the others.
        first = '{"doc_id": "d0", "text": "", "mentions": []}' if command == "stats" else '{"kgel": {}}'
        bad = tmp_path / "bad.jsonl"
        bad.write_text(first + "\n" + line + "\n", encoding="utf-8")
        flag = {"stats": "--dataset", "evaluate": "--preds", "train-scorer": "--corpus"}[command]
        argv = [command, flag, str(bad)] + (["--out", str(tmp_path / "m.tsv")] if command == "train-scorer" else [])
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{bad}:2: " in err

    @pytest.mark.parametrize(
        "line",
        [
            '{"doc_id": "d", "mention_index": 0, "gold": ["C1"], "candidates": []}',
            '{"doc_id": "d", "mention_index": 1.7, "gold": "C1", "candidates": []}',
            '{"doc_id": "d", "mention_index": 0, "gold": "C1", '
            '"candidates": [{"surface": "a", "entity": "C1", "score": NaN}]}',
            '{"doc_id": "d", "mention_index": -3, "gold": "C1", "candidates": []}',
            '{"doc_id": "d", "mention_index": 0, "gold": "C1", '
            '"candidates": [{"surface": "a", "entity": "C1", "score": 0.0, "extra": 1}]}',
        ],
        ids=["list_gold", "float_mention_index", "nan_score", "negative_mention_index", "extra_candidate_key"],
    )
    def test_predictions_field_of_wrong_type_exits_2(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kgel": {}}\n' + line + "\n", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--preds", str(bad), "--kg", str(TOY_KG_DIR))
        assert code == 2
        assert f"{bad}:2: " in err

    def test_repeated_prediction_exits_2(self, capsys, tmp_path):
        """A file whose first record appears twice is rejected, not scored as
        three mentions."""
        first = '{"doc_id": "d", "mention_index": 0, "gold": "C1", "candidates": [{"surface": "a", "entity": "C1", "score": 0.0}]}'
        second = '{"doc_id": "d", "mention_index": 1, "gold": "C2", "candidates": []}'
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(['{"kgel": {}}', first, second, first]) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--preds", str(bad), "--csv")
        assert (code, out) == (2, "")
        assert f"{bad}:4: repeated prediction for doc_id 'd', mention_index 0" in err

    @pytest.mark.parametrize(
        "command, line",
        [
            ("train-scorer", '{"kgel": 1, "source": "x", "target": "[BOS] evil [EOS]"}'),
            ("evaluate", '{"kgel": 7, "doc_id": "zz", "mention_index": 0, "gold": "C1", "candidates": []}'),
        ],
        ids=["corpus", "predictions"],
    )
    def test_kgel_key_after_first_record_exits_2(self, capsys, tmp_path, command, line):
        record = {
            "train-scorer": '{"source": "x", "target": "[BOS] a [EOS]", "kind": "synonym", "concept": "C1"}',
            "evaluate": '{"doc_id": "d", "mention_index": 0, "gold": "C1", "candidates": []}',
        }[command]
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kgel": {}}\n' + record + "\n" + line + "\n" + record + "\n", encoding="utf-8")
        if command == "train-scorer":
            argv = [command, "--corpus", str(bad), "--out", str(tmp_path / "m.tsv")]
        else:
            argv = [command, "--preds", str(bad)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{bad}:3: " in err

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("expected", [0, 1, 2])
    def test_restores_gc_state(self, capsys, tmp_path, enabled, expected):
        argv = {
            0: ["stats", "--dataset", str(TOY_DATASET)],
            1: ["synthesize", "--kg", str(TOY_KG_DIR), "--cap", "0", "--out", str(tmp_path / "c.jsonl")],
            2: ["stats", "--dataset", str(tmp_path / "nowhere.jsonl")],
        }[expected]
        was_enabled = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            code, _, _ = run(capsys, *argv)
            assert code == expected
            assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class TestPositiveOptions:
    BASE = {
        "synthesize": ["--kg", str(TOY_KG_DIR)],
        "train-scorer": ["--dataset", str(TOY_DATASET), "--kg", str(TOY_KG_DIR)],
        "link": ["--kg", str(TOY_KG_DIR), "--dataset", str(TOY_DATASET)],
    }

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, option",
        [
            ("synthesize", "--cap"),
            ("synthesize", "--k"),
            ("train-scorer", "--order"),
            ("link", "--beam-width"),
            ("link", "--top-k"),
        ],
    )
    def test_non_positive_value_exits_1_before_out_is_opened(self, capsys, tmp_path, command, option, value):
        out = tmp_path / "out"
        code, _, err = run(capsys, command, *self.BASE[command], option, value, "--out", str(out))
        assert code == 1
        assert "usage" in err and option in err
        assert not out.exists()


def written_config(capsys, tmp_path, *argv) -> dict:
    """The ``config`` of the header a command writes to its ``--out``."""
    out = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    first = out.read_text(encoding="utf-8").splitlines()[0]
    if first.startswith("kgel-ngram-v1\t"):
        return json.loads(first.split("\t", 1)[1])
    return json.loads(first)["kgel"]["config"]


class TestHeaderConfig:
    """The whole header config of each artifact: the command, its parameters,
    its input paths, and the default seed where the command takes none."""

    KG, DATASET = str(TOY_KG_DIR), str(TOY_DATASET)

    def test_synthesize(self, capsys, tmp_path):
        assert written_config(capsys, tmp_path, "synthesize", "--kg", self.KG) == {
            "command": "synthesize", "seed": 42, "mode": "combined", "cap": 20, "k": 8, "kg": self.KG,
        }

    def test_train_scorer_on_corpus(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus.jsonl")
        assert run(capsys, "synthesize", "--kg", self.KG, "--out", corpus)[0] == 0
        assert written_config(capsys, tmp_path, "train-scorer", "--corpus", corpus) == {
            "command": "train-scorer", "seed": 42, "order": 3, "corpus": corpus,
        }

    def test_train_scorer_on_everything(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus.jsonl")
        assert run(capsys, "synthesize", "--kg", self.KG, "--out", corpus)[0] == 0
        argv = ["train-scorer", "--corpus", corpus, "--dataset", self.DATASET, "--kg", self.KG, "--order", "2"]
        assert written_config(capsys, tmp_path, *argv) == {
            "command": "train-scorer", "seed": 42, "order": 2, "corpus": corpus, "dataset": self.DATASET, "kg": self.KG,
        }

    def test_link_with_model(self, capsys, tmp_path):
        model = str(tmp_path / "model.tsv")
        assert run(capsys, "train-scorer", "--dataset", self.DATASET, "--kg", self.KG, "--out", model)[0] == 0
        argv = ["link", "--kg", self.KG, "--dataset", self.DATASET, "--model", model, "--beam-width", "3"]
        assert written_config(capsys, tmp_path, *argv) == {
            "command": "link", "seed": 42, "beam_width": 3, "top_k": 10, "kg": self.KG, "dataset": self.DATASET,
            "model": model,
        }

    def test_link_without_model(self, capsys, tmp_path):
        assert written_config(capsys, tmp_path, "link", "--kg", self.KG, "--dataset", self.DATASET) == {
            "command": "link", "seed": 42, "beam_width": 5, "top_k": 10, "kg": self.KG, "dataset": self.DATASET,
        }


class TestIngestAndStats:
    def test_ingest_reports_stats(self, capsys):
        code, out, err = run(capsys, "ingest", "--kg", str(TOY_KG_DIR))
        assert code == 0
        stats = json.loads(out)
        assert stats["concepts"] == 5
        assert stats["relation_freq"] == {"r_causes": 2, "r_treats": 5}
        assert "5 entities" in err

    def test_dataset_stats(self, capsys):
        code, out, _ = run(capsys, "stats", "--dataset", str(TOY_DATASET))
        assert code == 0
        assert json.loads(out) == {"docs": 4, "mentions": 10, "entities": 6}


class TestSynthesize:
    def test_byte_identical_runs(self, capsys, tmp_path):
        args = ["synthesize", "--kg", str(TOY_KG_DIR), "--mode", "triple_line", "--seed", "7"]
        code_a, _, _ = run(capsys, *args, "--out", str(tmp_path / "a.jsonl"))
        code_b, _, _ = run(capsys, *args, "--out", str(tmp_path / "b.jsonl"))
        assert code_a == code_b == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_header_echoes_config(self, capsys, tmp_path):
        run(capsys, "synthesize", "--kg", str(TOY_KG_DIR), "--seed", "9", "--out", str(tmp_path / "c.jsonl"))
        header = json.loads((tmp_path / "c.jsonl").read_text().splitlines()[0])
        assert header["kgel"]["format"] == "kgel-corpus-v1"
        assert header["kgel"]["config"]["seed"] == 9
        assert header["kgel"]["config"]["mode"] == "combined"

    def test_bad_cap_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synthesize", "--kg", str(TOY_KG_DIR), "--cap", "0", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 1


class TestOutput:
    """``--out`` replaces an existing regular file with a new file and writes
    through symlinks, hard links and device files."""

    COMMANDS = {
        "synthesize": ["synthesize", "--kg", str(TOY_KG_DIR), "--seed", "3"],
        "train-scorer": ["train-scorer", "--dataset", str(TOY_DATASET), "--kg", str(TOY_KG_DIR)],
        "link": ["link", "--kg", str(TOY_KG_DIR), "--dataset", str(TOY_DATASET)],
    }
    STALE = b"an artifact of an earlier run\n" * 1000

    def fresh(self, capsys, tmp_path, command="synthesize"):
        path = tmp_path / f"fresh-{command}"
        assert run(capsys, *self.COMMANDS[command], "--out", str(path))[0] == 0
        return path.read_bytes()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rerun_writes_a_new_file(self, capsys, tmp_path, command):
        out = tmp_path / "out"
        out.write_bytes(self.STALE)
        with open(out, "rb") as old:
            assert run(capsys, *self.COMMANDS[command], "--out", str(out))[0] == 0
            assert old.read() == self.STALE
        assert out.read_bytes() == self.fresh(capsys, tmp_path, command)

    def test_symlink_is_written_through(self, capsys, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(self.STALE)
        link = tmp_path / "link"
        link.symlink_to(target)
        assert run(capsys, *self.COMMANDS["synthesize"], "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh(capsys, tmp_path)

    def test_hard_link_sees_new_bytes(self, capsys, tmp_path):
        out, other = tmp_path / "out", tmp_path / "other"
        out.write_bytes(self.STALE)
        os.link(out, other)
        assert run(capsys, *self.COMMANDS["synthesize"], "--out", str(out))[0] == 0
        assert os.path.samefile(out, other)
        assert other.read_bytes() == self.fresh(capsys, tmp_path)

    def test_dev_null(self, capsys):
        code, _, err = run(capsys, *self.COMMANDS["synthesize"], "--out", os.devnull)
        assert code == 0
        assert f"to {os.devnull}" in err
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_unlink_refused_falls_back_to_writing_in_place(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.write_bytes(self.STALE)
        inode = out.stat().st_ino
        refused = []

        def refuse(path, *args, **kwargs):
            refused.append(path)
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "unlink", refuse)
        assert run(capsys, *self.COMMANDS["synthesize"], "--out", str(out))[0] == 0
        monkeypatch.undo()
        assert refused == [str(out)]
        assert out.stat().st_ino == inode
        assert out.read_bytes() == self.fresh(capsys, tmp_path)

    def test_failed_synthesize_leaves_old_artifact_alone(self, capsys, tmp_path):
        kg_dir = tmp_path / "kg"
        shutil.copytree(TOY_KG_DIR, kg_dir)
        with open(kg_dir / "synonyms.tsv", "a", encoding="utf-8") as fp:
            fp.write("C0001\tthe [bos] thing\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(self.STALE)
        code, _, err = run(capsys, "synthesize", "--kg", str(kg_dir), "--out", str(out))
        assert code == 2
        assert "[bos]" in err
        assert out.read_bytes() == self.STALE


class TestTrainScorerStreaming:
    """``train-scorer`` streams the corpus into ``train`` while a worker reads
    the KG and the dataset into the fine-tuning lines, which ``train`` gets
    last. Without ``os.fork`` the KG and the dataset are read, and freed,
    first."""

    @pytest.fixture
    def corpus(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert run(capsys, "synthesize", "--kg", str(TOY_KG_DIR), "--out", str(path))[0] == 0
        return path

    def argv(self, corpus, out, kg=TOY_KG_DIR):
        return ["train-scorer", "--corpus", str(corpus), "--dataset", str(TOY_DATASET), "--kg", str(kg),
                "--out", str(out)]

    @pytest.fixture
    def train_calls(self, monkeypatch, tmp_path):
        """What ``train`` is called with, and whether each KG that
        ``parse_kg_dir`` returned in this process is still alive at that
        call. The pid of every process that parses a KG is appended to
        ``parse_pids`` in ``tmp_path``."""
        kg_refs, calls = [], []

        def parse_and_watch(path):
            kg = parse_kg_dir(path)
            kg_refs.append(weakref.ref(kg))
            with open(tmp_path / "parse_pids", "a", encoding="utf-8") as fp:
                fp.write(f"{os.getpid()}\n")
            return kg

        def train_and_watch(targets, order):
            calls.append({"targets": type(targets), "live_kgs": sum(ref() is not None for ref in kg_refs)})
            return train(targets, order)

        monkeypatch.setattr(kgel.cli, "parse_kg_dir", parse_and_watch)
        monkeypatch.setattr(kgel.cli, "train", train_and_watch)
        return kg_refs, calls

    def test_kg_is_freed_before_train_is_called(self, capsys, tmp_path, corpus, train_calls):
        kg_refs, calls = train_calls
        assert run(capsys, *self.argv(corpus, tmp_path / "m.tsv"))[0] == 0
        parse_pids = [int(pid) for pid in (tmp_path / "parse_pids").read_text(encoding="utf-8").split()]
        assert len(parse_pids) == 1
        if hasattr(os, "fork"):
            # Parsed in the worker: this process never holds the KG.
            assert parse_pids[0] != os.getpid() and kg_refs == []
        assert [call["live_kgs"] for call in calls] == [0]

    def test_kg_is_freed_before_train_is_called_without_fork(self, capsys, tmp_path, corpus, train_calls, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        kg_refs, calls = train_calls
        assert run(capsys, *self.argv(corpus, tmp_path / "m.tsv"))[0] == 0
        assert len(kg_refs) == 1
        assert [call["live_kgs"] for call in calls] == [0]

    def test_train_receives_an_iterator(self, capsys, tmp_path, corpus, train_calls):
        _, calls = train_calls
        assert run(capsys, *self.argv(corpus, tmp_path / "m.tsv"))[0] == 0
        assert len(calls) == 1
        assert issubclass(calls[0]["targets"], Iterator)

    def test_same_model_as_training_on_one_list(self, capsys, tmp_path, corpus):
        out = tmp_path / "m.tsv"
        assert run(capsys, *self.argv(corpus, out))[0] == 0
        targets = list(corpus_targets(corpus)) + finetune_targets(parse_kg_dir(TOY_KG_DIR), parse_dataset(TOY_DATASET))
        lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
        expected = io.StringIO()
        save_model(train(targets), expected)
        assert lines[1:] == expected.getvalue().splitlines(keepends=True)[1:]

    def test_kg_error_comes_before_corpus_error(self, capsys, tmp_path):
        kg_dir = tmp_path / "kg"
        shutil.copytree(TOY_KG_DIR, kg_dir)
        with open(kg_dir / "concepts.tsv", "a", encoding="utf-8") as fp:
            fp.write("C0001\tagain\n")
        bad_corpus = tmp_path / "corpus.jsonl"
        bad_corpus.write_text("not json\n", encoding="utf-8")
        code, _, err = run(capsys, *self.argv(bad_corpus, tmp_path / "m.tsv", kg=kg_dir))
        assert code == 2
        assert f"{kg_dir / 'concepts.tsv'}:6: duplicate concept id" in err
        assert str(bad_corpus) not in err

    @pytest.mark.parametrize("existing", [False, True], ids=["missing_out", "existing_out"])
    def test_malformed_last_corpus_line_leaves_out_alone(self, capsys, tmp_path, corpus, existing):
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        corpus.write_text("".join(lines) + '{"source": "x"}\n', encoding="utf-8")
        out = tmp_path / "m.tsv"
        if existing:
            out.write_bytes(TestOutput.STALE)
        code, _, err = run(capsys, *self.argv(corpus, out))
        assert code == 2
        assert f"{corpus}:{len(lines) + 1}: corpus record keys" in err
        if existing:
            assert out.read_bytes() == TestOutput.STALE
        else:
            assert not out.exists()


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorker:
    """``link`` loads the model, and decodes the later half of the mentions,
    and ``train-scorer`` builds the fine-tuning lines, in a forked worker, or
    inline without ``os.fork``. Either way the first error is the one a
    serial run meets first: KG, then dataset, then model, then the first
    half's mentions before the later half's, and KG or dataset before
    corpus. No process outlives a command."""

    @pytest.fixture(params=["fork", "inline"])
    def mode(self, request, monkeypatch):
        if request.param == "inline":
            monkeypatch.delattr(os, "fork", raising=False)
        elif not hasattr(os, "fork"):
            pytest.skip("no os.fork")
        return request.param

    @pytest.fixture
    def paths(self, capsys, tmp_path):
        """A toy KG, dataset, empty dataset, model and corpus, each next to a
        broken copy (``bad_*``), a missing model and a dataset whose mention
        holds a reserved template token."""
        paths = {
            "kg": TOY_KG_DIR, "dataset": TOY_DATASET, "empty": tmp_path / "empty.jsonl",
            "model": tmp_path / "model.tsv", "corpus": tmp_path / "corpus.jsonl",
            "bad_kg": tmp_path / "kg", "bad_dataset": tmp_path / "d.jsonl", "bad_model": tmp_path / "bad.tsv",
            "bad_corpus": tmp_path / "c.jsonl", "missing_model": tmp_path / "nowhere.tsv",
            "reserved_dataset": tmp_path / "r.jsonl",
        }
        paths["empty"].write_text("", encoding="utf-8")
        argv = ["train-scorer", "--dataset", str(TOY_DATASET), "--kg", str(TOY_KG_DIR), "--out", str(paths["model"])]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "synthesize", "--kg", str(TOY_KG_DIR), "--out", str(paths["corpus"]))[0] == 0
        shutil.copytree(TOY_KG_DIR, paths["bad_kg"])
        with open(paths["bad_kg"] / "concepts.tsv", "a", encoding="utf-8") as fp:
            fp.write("C0001\tagain\n")
        paths["bad_dataset"].write_text("not json\n", encoding="utf-8")
        paths["bad_model"].write_text("kgel-ngram-v1\n3\n1\n\ta\tmany\n", encoding="utf-8")
        paths["bad_corpus"].write_text("not json\n", encoding="utf-8")
        mention = {"start": 0, "end": 8, "surface": "[EOS] is", "gold": "C0001"}
        paths["reserved_dataset"].write_text(
            json.dumps({"doc_id": "r1", "text": "[EOS] is", "mentions": [mention]}) + "\n", encoding="utf-8"
        )
        return {name: str(path) for name, path in paths.items()}

    @pytest.mark.parametrize(
        "kg, dataset, model, expected",
        [
            ("bad_kg", "dataset", "bad_model", "{bad_kg}/concepts.tsv:6: duplicate concept id"),
            ("kg", "bad_dataset", "bad_model", "{bad_dataset}:1: invalid JSON"),
            ("kg", "empty", "bad_model", "{bad_model}:4: bad count"),
            ("kg", "empty", "missing_model", "No such file or directory: '{missing_model}'"),
        ],
        ids=["kg_before_model", "dataset_before_model", "model", "missing_model"],
    )
    def test_link_reports_the_first_error(self, capsys, tmp_path, mode, paths, kg, dataset, model, expected):
        out = tmp_path / "p.jsonl"
        argv = ["link", "--kg", paths[kg], "--dataset", paths[dataset], "--model", paths[model], "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.count("error") == 1 and expected.format(**paths) in err
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize(
        "kg, dataset, expected",
        [
            ("bad_kg", "dataset", "{bad_kg}/concepts.tsv:6: duplicate concept id"),
            ("kg", "bad_dataset", "{bad_dataset}:1: invalid JSON"),
            ("kg", "reserved_dataset", "reserved token [EOS] occurs in mention 0 of document 'r1'"),
        ],
        ids=["kg_before_corpus", "dataset_before_corpus", "reserved_token_before_corpus"],
    )
    def test_train_scorer_reports_the_first_error(self, capsys, tmp_path, mode, paths, kg, dataset, expected):
        out = tmp_path / "m.tsv"
        argv = ["train-scorer", "--corpus", paths["bad_corpus"], "--dataset", paths[dataset], "--kg", paths[kg],
                "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert expected.format(**paths) in err and paths["bad_corpus"] not in err
        assert not out.exists()
        assert_no_child_left()

    def test_train_scorer_rejects_a_reserved_token_in_a_mention(self, capsys, tmp_path, paths):
        out = tmp_path / "m.tsv"
        argv = ["train-scorer", "--dataset", paths["reserved_dataset"], "--kg", paths["kg"], "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "kgel: error: reserved token [EOS] occurs in mention 0 of document 'r1': '[EOS] is'" in err
        assert not out.exists()

    def test_link_leaves_a_reserved_token_mention_without_candidates(self, capsys, tmp_path, paths):
        out = tmp_path / "p.jsonl"
        argv = ["link", "--kg", paths["kg"], "--dataset", paths["reserved_dataset"], "--model", paths["model"]]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert "linked 1 mentions" in err and "1 left without candidates" in err
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[1])["candidates"] == []

    def test_link_writes_what_an_in_process_run_writes(self, capsys, tmp_path, mode, paths):
        out = tmp_path / "p.jsonl"
        argv = ["link", "--kg", paths["kg"], "--dataset", paths["dataset"], "--model", paths["model"]]
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        assert_no_child_left()
        model = kgel.load_model(paths["model"])
        predictions = kgel.link_dataset(
            parse_kg_dir(paths["kg"]), parse_dataset(paths["dataset"]), lambda m: condition_on_mention(model, m)
        )
        expected = io.StringIO()
        write_predictions(predictions, expected)
        assert out.read_text(encoding="utf-8").splitlines()[1:] == expected.getvalue().splitlines()

    def test_train_scorer_succeeds_without_leaving_a_child(self, capsys, tmp_path, mode, paths):
        argv = ["train-scorer", "--corpus", paths["corpus"], "--dataset", paths["dataset"], "--kg", paths["kg"]]
        assert run(capsys, *argv, "--out", str(tmp_path / "m.tsv"))[0] == 0
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_worker_that_dies_without_a_result_exits_2(self, capsys, tmp_path, monkeypatch, paths):
        monkeypatch.setattr(kgel.cli, "load_model", lambda path: os._exit(1))
        argv = ["link", "--kg", paths["kg"], "--dataset", paths["empty"], "--model", paths["model"]]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "p.jsonl"))
        assert code == 2
        assert "worker process exited with status 1 before sending a result" in err
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_interrupt_kills_the_worker(self, capsys, tmp_path, monkeypatch, paths):
        def interrupt(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(kgel.cli, "load_model", lambda path: time.sleep(60))
        monkeypatch.setattr(kgel.cli, "parse_dataset", interrupt)
        argv = ["link", "--kg", paths["kg"], "--dataset", paths["dataset"], "--model", paths["model"]]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--out", str(tmp_path / "p.jsonl")])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    # The toy dataset's documents d1 and d2 hold its first six mentions, the
    # first half; d3 and d4 hold the rest, which a forked worker decodes.
    @staticmethod
    def fail_on(monkeypatch, failures: dict) -> None:
        """Call ``failures[surface]()`` when the scorer for that mention surface is made."""
        conditioned = kgel.cli.condition_on_mention

        def condition(model, surface):
            if surface in failures:
                failures[surface]()
            return conditioned(model, surface)

        monkeypatch.setattr(kgel.cli, "condition_on_mention", condition)

    @staticmethod
    def raise_value_error(surface: str) -> Callable[[], None]:
        def fail():
            raise ValueError(f"no scorer for {surface}")

        return fail

    def link(self, capsys, tmp_path, paths):
        out = tmp_path / "p.jsonl"
        argv = ["link", "--kg", paths["kg"], "--dataset", paths["dataset"], "--model", paths["model"]]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert not out.exists()
        assert_no_child_left()
        return code, err

    def test_decode_error_in_the_later_half(self, capsys, tmp_path, monkeypatch, mode, paths):
        self.fail_on(monkeypatch, {"migraine": self.raise_value_error("migraine")})
        assert self.link(capsys, tmp_path, paths) == (1, "kgel: error: no scorer for migraine\n")

    def test_decode_error_in_the_first_half_wins(self, capsys, tmp_path, monkeypatch, mode, paths):
        self.fail_on(monkeypatch, {s: self.raise_value_error(s) for s in ("headache", "migraine")})
        assert self.link(capsys, tmp_path, paths) == (1, "kgel: error: no scorer for headache\n")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_decode_worker_that_dies_without_a_result_exits_2(self, capsys, tmp_path, monkeypatch, paths):
        self.fail_on(monkeypatch, {"migraine": lambda: os._exit(1)})
        code, err = self.link(capsys, tmp_path, paths)
        assert code == 2
        assert "worker process exited with status 1 before sending a result" in err

    def test_interrupt_while_decoding_kills_the_worker(self, capsys, tmp_path, monkeypatch, mode, paths):
        command = os.getpid()

        def interrupt():
            raise KeyboardInterrupt

        def stall():
            if os.getpid() != command:
                time.sleep(60)

        self.fail_on(monkeypatch, {"headache": interrupt, "migraine": stall})
        argv = ["link", "--kg", paths["kg"], "--dataset", paths["dataset"], "--model", paths["model"]]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--out", str(tmp_path / "p.jsonl")])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    @pytest.mark.parametrize("order", [3, 30], ids=["array_keys", "list_keys"])
    def test_model_columns_cross_the_pipe(self, tmp_path, order):
        model = train(["[BOS] a b c a b [EOS]", "[BOS] b c a [EOS]"], order)
        assert (type(model.row_keys) is list) == (order == 30)
        with kgel.cli._in_worker(lambda: model) as joined:
            again = joined()
        assert_no_child_left()
        assert again == model
        assert type(again.row_keys) is type(model.row_keys) and type(again.row_counts) is type(model.row_counts)
        assert getattr(again.row_keys, "typecode", None) == getattr(model.row_keys, "typecode", None)


class TestPipeline:
    def test_five_command_pipeline(self, capsys, bench_dirs, tmp_path):
        kg_dir = str(bench_dirs / "kg")
        dataset = str(bench_dirs / "mentions.jsonl")
        corpus = str(tmp_path / "corpus.jsonl")
        model = str(tmp_path / "model.tsv")
        preds = str(tmp_path / "preds.jsonl")

        assert run(capsys, "ingest", "--kg", kg_dir)[0] == 0
        assert run(capsys, "synthesize", "--kg", kg_dir, "--mode", "combined", "--out", corpus)[0] == 0
        assert run(
            capsys, "train-scorer", "--corpus", corpus, "--dataset", dataset, "--kg", kg_dir, "--out", model
        )[0] == 0
        assert run(capsys, "link", "--kg", kg_dir, "--dataset", dataset, "--model", model, "--out", preds)[0] == 0

        code, out, _ = run(capsys, "evaluate", "--preds", preds, "--gold", dataset, "--kg", kg_dir)
        assert code == 0
        result = json.loads(out)
        assert result["recall_at"]["1"] == 1.0
        assert result["mentions"] == 50
        assert result["unresolved_gold"] == 0

    def test_link_determinism(self, capsys, bench_dirs, tmp_path):
        kg_dir = str(bench_dirs / "kg")
        dataset = str(bench_dirs / "mentions.jsonl")
        model = str(tmp_path / "model.tsv")
        run(capsys, "train-scorer", "--dataset", dataset, "--kg", kg_dir, "--out", model)
        args = ["link", "--kg", kg_dir, "--dataset", dataset, "--model", model]
        run(capsys, *args, "--out", str(tmp_path / "one.jsonl"))
        run(capsys, *args, "--out", str(tmp_path / "again.jsonl"))
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "again.jsonl").read_bytes()

    def test_link_reports_mentions_without_candidates(self, capsys, bench_dirs, tmp_path):
        dataset = str(bench_dirs / "mentions.jsonl")
        code, out, err = run(
            capsys, "link", "--kg", str(bench_dirs / "kg"), "--dataset", dataset, "--out", str(tmp_path / "a.jsonl")
        )
        assert (code, out) == (0, "")
        assert "linked 50 mentions" in err and "0 left without candidates" in err
        # An empty KG gives an empty trie, on which every decode fails.
        empty_kg = tmp_path / "kg"
        empty_kg.mkdir()
        for name in ("concepts.tsv", "synonyms.tsv", "relations.tsv", "triples.tsv"):
            (empty_kg / name).write_text("", encoding="utf-8")
        code, out, err = run(
            capsys, "link", "--kg", str(empty_kg), "--dataset", dataset, "--out", str(tmp_path / "b.jsonl")
        )
        assert (code, out) == (0, "")
        assert "linked 50 mentions" in err and "50 left without candidates" in err

    def test_uniform_scorer_when_no_model(self, capsys, bench_dirs, tmp_path):
        code, _, _ = run(
            capsys, "link", "--kg", str(bench_dirs / "kg"), "--dataset", str(bench_dirs / "mentions.jsonl"),
            "--out", str(tmp_path / "preds.jsonl"),
        )
        assert code == 0

    def test_evaluate_csv(self, capsys, bench_dirs, tmp_path):
        kg_dir = str(bench_dirs / "kg")
        dataset = str(bench_dirs / "mentions.jsonl")
        model = str(tmp_path / "model.tsv")
        preds = str(tmp_path / "preds.jsonl")
        run(capsys, "train-scorer", "--dataset", dataset, "--kg", kg_dir, "--out", model)
        run(capsys, "link", "--kg", kg_dir, "--dataset", dataset, "--model", model, "--out", preds)
        code, out, _ = run(capsys, "evaluate", "--preds", preds, "--ks", "1,5", "--csv")
        assert code == 0
        assert out.strip() == "1,1.000000,5,1.000000"

    def test_evaluate_alignment_mismatch_exits_2(self, capsys, bench_dirs, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            '{"doc_id": "x", "mention_index": 0, "gold": "C1", "candidates": []}\n', encoding="utf-8"
        )
        code, _, err = run(capsys, "evaluate", "--preds", str(preds), "--gold", str(bench_dirs / "mentions.jsonl"))
        assert code == 2

    def test_train_scorer_requires_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "train-scorer", "--out", str(tmp_path / "m.tsv"))
        assert code == 2
        assert "nothing to train on" in err

    def test_bad_ks_exits_2(self, capsys, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"doc_id": "d", "mention_index": 0, "gold": "C1", "candidates": []}\n')
        code, _, err = run(capsys, "evaluate", "--preds", str(preds), "--ks", "1,zero")
        assert code == 2
        assert "--ks" in err

    def test_bad_beam_width_exits_1(self, capsys, bench_dirs, tmp_path):
        code, _, _ = run(
            capsys, "link", "--kg", str(bench_dirs / "kg"), "--dataset", str(bench_dirs / "mentions.jsonl"),
            "--beam-width", "0", "--out", str(tmp_path / "p.jsonl"),
        )
        assert code == 1
