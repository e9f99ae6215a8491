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
from .noise import NoiseKind, NoiseSpec, build_transition, corrupt
from .bilevel import TrainConfig, Variant, train
from .data import BlobSpec, make_blobs, standardize

__all__ = [
    "Rng",
    "NoiseKind", "NoiseSpec", "build_transition", "corrupt",
    "TrainConfig", "Variant", "train",
    "BlobSpec", "make_blobs", "standardize",
]
