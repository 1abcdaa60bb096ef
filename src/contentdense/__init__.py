"""Content-density detection for news leads.

Detects whether a short news text reports its key facts directly (is
"content-dense") using a heuristic overlap score against a reference
summary for labeling, three sparse feature representations (lexicon rate,
mutual-information vocabulary, parse production rules), linear classifiers
with feature-level and two-layer decision-level fusion, a cross-validation
and agreement-metric evaluation harness, and a summary-combination decision
rule. See README.md for the command-line walkthrough.
"""

from .combine import (
    SummaryPair,
    baseline_always_dense,
    baseline_article_length,
    binomial_superiority_check,
    load_pairs,
    save_pairs,
    score_pairs,
    sweep_cutoffs,
)
from .corpus import (
    AnnotatedLead,
    Parse,
    Sentence,
    WordPosTuple,
    default_lexicon_path,
    load_corpus,
    load_lexicon,
    parse_ptb_tree,
    save_corpus,
)
from .errors import ContentDenseError, ValidationError
from .evaluation import (
    CrossValidationResult,
    aggregate_annotations,
    confidence_stratified_accuracy,
    cross_validate,
    filter_amt_annotators,
    learning_curve,
    make_folds,
    pearson_correlation,
    percent_agreement_and_kappa,
    train_modes,
)
from .features import (
    FeatureBundle,
    build_feature_bundle,
    extract_production_rules,
    select_mi_vocabulary,
)
from .labeling import (
    CONTENT_DENSE,
    LABELS,
    NON_CONTENT_DENSE,
    content_density_score,
    labels_to_mapping,
    percentile_label,
    score_leads,
)
from .learn import (
    MODES,
    LeadClassifier,
    TrainConfig,
    load_classifier,
    save_classifier,
    train_decision_fusion,
    train_feature_fusion,
    train_single,
)
from .synthetic import PROFILES, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AnnotatedLead",
    "CONTENT_DENSE",
    "ContentDenseError",
    "CrossValidationResult",
    "FeatureBundle",
    "LABELS",
    "LeadClassifier",
    "MODES",
    "NON_CONTENT_DENSE",
    "PROFILES",
    "Parse",
    "Sentence",
    "SummaryPair",
    "TrainConfig",
    "ValidationError",
    "WordPosTuple",
    "aggregate_annotations",
    "baseline_always_dense",
    "baseline_article_length",
    "binomial_superiority_check",
    "build_feature_bundle",
    "confidence_stratified_accuracy",
    "content_density_score",
    "cross_validate",
    "default_lexicon_path",
    "extract_production_rules",
    "filter_amt_annotators",
    "generate_corpus",
    "labels_to_mapping",
    "learning_curve",
    "load_classifier",
    "load_corpus",
    "load_lexicon",
    "load_pairs",
    "make_folds",
    "parse_ptb_tree",
    "pearson_correlation",
    "percent_agreement_and_kappa",
    "percentile_label",
    "save_classifier",
    "save_corpus",
    "save_pairs",
    "score_leads",
    "score_pairs",
    "select_mi_vocabulary",
    "sweep_cutoffs",
    "train_decision_fusion",
    "train_feature_fusion",
    "train_modes",
    "train_single",
]
