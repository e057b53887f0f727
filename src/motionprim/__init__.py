"""Discrete motion-primitive modeling for multi-channel inertial streams.

Windows of sensor data are cut into fixed-length segments, vector-quantized
against a learned codebook, embedded together with raw-segment statistics and
sensor metadata, and fed to a small transformer encoder trained with masked
token reconstruction and window classification. Everything runs in float64
numpy with hand-written backward passes so gradients can be verified against
finite differences.
"""

from .analysis import (
    FrequencyReport,
    SimilarityMatrix,
    TransitionMatrix,
    frequency,
    similarity,
    token_streams,
    transitions,
)
from .embedder import SequenceLayout, build_layout, embed_batch
from .encoder import GradCheckReport, encoder_backward, encoder_forward, grad_check
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    MetadataProviderError,
    MotionPrimError,
    NumericError,
)
from .ingest import (
    ChannelMetadata,
    DatasetManifest,
    SensorWindow,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    normalize_matrix,
    resample,
    segment_matrix,
    window,
)
from .metadata import (
    FileLookupProvider,
    HashProvider,
    MetadataVector,
    canonical_descriptor,
    make_provider,
)
from .model import (
    FINETUNE_WEIGHTS,
    PARAM_GROUPS,
    PRETRAIN_WEIGHTS,
    LossWeights,
    Model,
    ModelConfig,
    PreparedBatch,
    forward,
    gradient_suite,
    init_model,
    prepare_windows,
)
from .quantizer import init_codebook, nearest_prototypes, usage_report
from .training import (
    ENCODER_FINETUNE,
    LINEAR_PROBE,
    PRETRAIN_POLICY,
    AdamW,
    EvalMetrics,
    FreezePolicy,
    OptimizerConfig,
    checkpoint_hash,
    evaluate,
    finetune,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    stratified_split,
    tokenize_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ChannelMetadata",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "DatasetManifest",
    "ENCODER_FINETUNE",
    "EvalMetrics",
    "FINETUNE_WEIGHTS",
    "FileLookupProvider",
    "FreezePolicy",
    "FrequencyReport",
    "GradCheckReport",
    "HashProvider",
    "LINEAR_PROBE",
    "LossWeights",
    "MetadataProviderError",
    "MetadataVector",
    "Model",
    "ModelConfig",
    "MotionPrimError",
    "NumericError",
    "OptimizerConfig",
    "PARAM_GROUPS",
    "PRETRAIN_POLICY",
    "PRETRAIN_WEIGHTS",
    "PreparedBatch",
    "SensorWindow",
    "SequenceLayout",
    "SimilarityMatrix",
    "SyntheticSpec",
    "TransitionMatrix",
    "build_layout",
    "canonical_descriptor",
    "checkpoint_hash",
    "embed_batch",
    "encoder_backward",
    "encoder_forward",
    "evaluate",
    "finetune",
    "forward",
    "frequency",
    "generate_synthetic",
    "grad_check",
    "gradient_suite",
    "init_codebook",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "load_manifest",
    "make_provider",
    "nearest_prototypes",
    "normalize_matrix",
    "prepare_windows",
    "pretrain",
    "resample",
    "save_checkpoint",
    "segment_matrix",
    "similarity",
    "stratified_split",
    "token_streams",
    "tokenize_dataset",
    "transitions",
    "usage_report",
    "window",
]
