"""Micro facial expression recognition toolkit."""

import os

# One BLAS thread unless the environment chooses: the matmuls here are small
# enough that a second OpenBLAS thread can stall one for milliseconds, and
# --workers is how the CLI uses more cores.  Must run before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from .dataset import (
    GrayImage,
    LabeledSample,
    Manifest,
    ManifestError,
    PgmError,
    decode_pgm,
    encode_pgm,
    generate_synthetic,
    load_manifest,
    parse_jaffe_name,
    split,
)
from .evaluation import (
    ConfusionMatrix,
    MetricsReport,
    confusion,
    mae,
    metrics,
    multicrop_predict,
    nearest_feature_predict,
)
from .features import (
    avg_pool_resize,
    crop_regions,
    handcrafted_descriptor,
    hog_descriptor,
    lbp_histogram,
)
from .network import (
    FusionArch,
    MlpArch,
    ModelState,
    forward,
    he_std,
    init_model,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from .preprocess import (
    HomomorphicParams,
    PixelStats,
    apply_pixel_stats,
    fit_pixel_stats,
    hist_equalize,
    homomorphic_filter,
    normalize_per_image,
)
from .training import (
    TrainConfig,
    TrainLog,
    center_loss,
    cross_entropy,
    lr_schedule,
    sgd_momentum_step,
    train,
    update_centers,
)

__version__ = "0.1.0"
