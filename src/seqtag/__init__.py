"""Character-aware dual-decoder GRU sequence labeller.

The public surface: corpus handling in `data`, the network in `model`,
optimisation in `training`, scoring in `metrics`, model files in
`serialization`, and the `seqtag` command in `cli`.
"""

from .data import (
    ColumnSpec,
    SyntheticSpec,
    TaggedSentence,
    Vocabulary,
    VocabSet,
    build_vocabularies,
    bucket_batches,
    encode_corpus,
    load_conll,
    make_synthetic_corpus,
    stream_chunks,
    write_conll,
)
from .metrics import EvalReport, bio_to_chunks, chunk_f1, concept_error_rate, token_accuracy
from .model import ModelDims, ModelParameters
from .serialization import load_model, save_model
from .training import (
    Corpus,
    TrainingConfig,
    evaluate,
    multi_run,
    run_gradient_check,
    train,
)

__version__ = "0.1.0"
