"""Parameter-efficient abstractive QA toolkit.

Uniform table/text linearization into prompted sequences, a frozen toy
encoder-decoder with trainable bottleneck adapters, exact trainable
parameter accounting, adapter-ablation planning, and ROUGE/BLEU metrics.
"""

from .adapters import (
    AdapterSet,
    ModelDims,
    REFERENCE_DIMS,
    count_adapter_params,
)
from .assembly import InputSequence, assemble, truncate
from .linearize import (
    FlattenedTableText,
    flatten_headers,
    linearize,
)
from .metrics import (
    MetricReport,
    PRF,
    evaluate_pairs,
    evaluate_predictions,
    metric_tokenize,
    rouge_l,
    rouge_n,
    sacrebleu_corpus,
)
from .tables import Cell, ValidatedTable, validate_table
from .toymodel import (
    ToyConfig,
    ToyModel,
    TrainConfig,
    build_toy_model,
    freeze_report,
    grad_check,
    make_copy_task,
    train_adapters,
)

__version__ = "0.1.0"

__all__ = [
    "AdapterSet",
    "Cell",
    "FlattenedTableText",
    "InputSequence",
    "MetricReport",
    "ModelDims",
    "PRF",
    "REFERENCE_DIMS",
    "ToyConfig",
    "ToyModel",
    "TrainConfig",
    "ValidatedTable",
    "assemble",
    "build_toy_model",
    "count_adapter_params",
    "evaluate_pairs",
    "evaluate_predictions",
    "flatten_headers",
    "freeze_report",
    "grad_check",
    "linearize",
    "make_copy_task",
    "metric_tokenize",
    "rouge_l",
    "rouge_n",
    "sacrebleu_corpus",
    "train_adapters",
    "truncate",
    "validate_table",
]
