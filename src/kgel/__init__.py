"""kgel: knowledge-graph corpus synthesis, constrained generative entity
linking over a surface-form trie, and Recall@k evaluation."""

__version__ = "0.1.0"

from .errors import KgelError
from .evaluate import EvalReport, recall_at_k, report
from .ingest import (
    DatasetStatsReport,
    Document,
    Mention,
    dataset_stats,
    parse_dataset,
    parse_kg_dir,
    write_dataset,
    write_kg_dir,
)
from .kg import (
    Entity,
    EntityId,
    KnowledgeGraph,
    Relation,
    StatsReport,
    Triple,
    build_kg,
    kg_stats,
)
from .linking import (
    Candidate,
    LinkedPrediction,
    build_lookup,
    link_dataset,
    link_mention,
    read_predictions,
    write_predictions,
)
from .ngram import NGramModel, condition_on_mention, finetune_targets, load_model, save_model
# the similarity function stays at kgel.similarity.similarity: re-exporting it
# here would shadow the submodule of the same name
from .similarity import edit_distance, select_target_synonym
from .synthesis import (
    TrainingSample,
    make_source,
    relation_probabilities,
    sample_triples,
    synonym_samples,
    synthesize_corpus,
    triple_samples_all,
    triple_samples_line,
    write_corpus,
)
from .trie import Scorer, TokenTrie, UniformScorer, build_trie, constrained_beam_search

__all__ = [
    "Candidate",
    "DatasetStatsReport",
    "Document",
    "Entity",
    "EntityId",
    "EvalReport",
    "KgelError",
    "KnowledgeGraph",
    "LinkedPrediction",
    "Mention",
    "NGramModel",
    "Relation",
    "Scorer",
    "StatsReport",
    "TokenTrie",
    "TrainingSample",
    "Triple",
    "UniformScorer",
    "build_kg",
    "build_lookup",
    "build_trie",
    "condition_on_mention",
    "constrained_beam_search",
    "dataset_stats",
    "edit_distance",
    "finetune_targets",
    "kg_stats",
    "link_dataset",
    "link_mention",
    "load_model",
    "make_source",
    "parse_dataset",
    "parse_kg_dir",
    "read_predictions",
    "recall_at_k",
    "relation_probabilities",
    "report",
    "sample_triples",
    "save_model",
    "select_target_synonym",
    "synonym_samples",
    "synthesize_corpus",
    "triple_samples_all",
    "triple_samples_line",
    "write_corpus",
    "write_dataset",
    "write_kg_dir",
    "write_predictions",
]
