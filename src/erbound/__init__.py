"""Pairwise entity resolution with estimated lower bounds on pairwise
precision, recall, and F1, computed from a small labeled validation set."""

from .bounds import (
    ValidationStats,
    compute_bound_report,
    estimate_test_class_balance,
    f1_lower_bound,
    precision_lower_bound,
    rebalance_precision,
    recall_lower_bound,
    wilson_interval,
)
from .dataset import (
    GoldTruth,
    Split,
    SplitSpec,
    generate_synthetic,
    load_gold,
    load_records_csv,
    split_dataset,
    synthetic_schema,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateDataError,
    ErboundError,
    SchemaError,
)
from .matching import (
    MatchModel,
    PairColumns,
    TrainConfig,
    condensed_pairwise_scores,
    score_pair,
    train_match_model,
)
from .records import (
    CATEGORICAL,
    NUMERIC,
    TEXT,
    Feature,
    FeatureSchema,
    Record,
)
from .resolver import resolve_from_condensed

__version__ = "0.1.0"
