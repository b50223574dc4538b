"""evtensor: event-stream representation learning with a 3rd-order tensor network.

Pipeline: parse or synthesize a labeled event stream, binarize it into an
(I, J, N) tensor, fit three latent factors with the elastic-net regularized
alternating solver, then reuse the factors for per-event features
(classification) or per-event reconstruction scores (denoising).
"""

__version__ = "0.1.0"

from .denoise import DenoiseReport, filter_events, quantile_threshold, score_events
from .evaluation import (
    FeatureMatrix,
    SvmModel,
    auc,
    auc_gap,
    extract_features,
    sweep_lambdas,
    temporal_split,
    train_svm,
)
from .events import (
    NOISE_LABEL,
    EventStream,
    EventTensor,
    bin_to_tensor,
    parse_events,
    tensor_density,
    write_events_csv,
)
from .solver import (
    SolverConfig,
    SolverState,
    load_checkpoint,
    save_checkpoint,
    solve,
)
from .synth import ObjectSpec, SceneSpec, generate, load_scene_spec
from .tensor_ops import FactorTriple, f3tn_contract, frob_norm

__all__ = [
    "NOISE_LABEL",
    "DenoiseReport",
    "EventStream",
    "EventTensor",
    "FactorTriple",
    "FeatureMatrix",
    "ObjectSpec",
    "SceneSpec",
    "SolverConfig",
    "SolverState",
    "SvmModel",
    "auc",
    "auc_gap",
    "bin_to_tensor",
    "extract_features",
    "f3tn_contract",
    "filter_events",
    "frob_norm",
    "generate",
    "load_checkpoint",
    "load_scene_spec",
    "parse_events",
    "quantile_threshold",
    "save_checkpoint",
    "score_events",
    "solve",
    "sweep_lambdas",
    "temporal_split",
    "tensor_density",
    "train_svm",
    "write_events_csv",
]
