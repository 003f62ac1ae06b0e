"""Remote pulse estimation with configurable multiscale video transformers."""

from .errors import (ConfigurationError, DimensionError, EstimationError,
                     InputError, NumericError, PulseformerError)
from .metrics import ExperimentResult, compute_metrics, hr_from_signal, integrate_diff
from .model import ModelConfig, MultiscaleVideoTransformer, stage_grids
from .preprocess import SignalTrace, VideoClip, WindowExample, diff_labels, diffnorm_frames, make_example, resize_bilinear, standardize
from .search import SearchTrace, general_config, greedy_adapt
from .synth import HARD, SIMPLE, LabeledClip, SynthPreset, generate_clip, generate_dataset
from .tensor import Tensor, backward, record
from .training import AdamW, TrainConfig, evaluate, split_dataset, train_model

__version__ = "0.1.0"
