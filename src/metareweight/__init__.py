"""Meta-learned sample reweighting under label noise.

A small neural classifier is trained on corrupted labels while an auxiliary
weighting network (scalar loss in, scalar weight out) learns per-sample
importance weights through one-step-unrolled bilevel optimization.  The
package also ships exact-expectation oracles showing that with a symmetric
meta loss (mean absolute error) the weighting network can be driven by
*noisy* meta samples without changing the expected meta-gradient direction.
"""

__version__ = "0.1.0"

from .numkit import Rng
from .losses import LossKind, symmetry_sum
from .noise import NoiseKind, NoiseSpec, TransitionMatrix, build_transition, corrupt
from .nets import ClassifierNet, WeightNet
from .bilevel import TrainConfig, Variant, BilevelState, train
from .data import BlobSpec, SplitBundle, make_blobs, standardize
from .metrics import accuracy, auc_noisy_detection

__all__ = [
    "Rng",
    "LossKind", "symmetry_sum",
    "NoiseKind", "NoiseSpec", "TransitionMatrix", "build_transition", "corrupt",
    "ClassifierNet", "WeightNet",
    "TrainConfig", "Variant", "BilevelState", "train",
    "BlobSpec", "SplitBundle", "make_blobs", "standardize",
    "accuracy", "auc_noisy_detection",
]
