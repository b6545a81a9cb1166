import json

import pytest

from conftest import TOY_DATASET, TOY_KG_DIR, build_linkbench

from kgel.cli import main
from kgel.ingest import write_dataset, write_kg_dir


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
        assert "kgel-ngram-v1" in out
        assert "backend" not in out

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

    @pytest.mark.parametrize("reader", ["kg", "model", "predictions"])
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
        else:
            bad = tmp_path / "p.jsonl"
            argv = ["evaluate", "--preds", str(bad)]
        bad.write_bytes(b"C1000\tok\nC1001\tbad\xfe\n")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{bad}:2: invalid UTF-8 byte 0xfe" in err


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
