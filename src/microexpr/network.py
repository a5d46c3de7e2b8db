"""Layer primitives with hand-derived backward passes, the three-branch
fusion classifier, and the tensor files that hold checkpoints and pixel
statistics.

All primitives follow the dtype of their inputs: float64 models support
finite-difference verification, float32 models train about 1.8 times
faster.  Parameters live in an ordered dict keyed by dotted names (the
checkpoint manifest order).  Gradient flow through the classifier combines
two upstream signals: the logit path and an auxiliary gradient injected at
the fused feature node.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .preprocess import PixelStats
from .rng import STREAM_INIT, substream

TENSOR_MAGIC = b"MFETENSOR1\n"


# ---------------------------------------------------------------------------
# Layer primitives.  Each forward returns (out, cache); each backward takes
# (dout, cache) and returns dx plus parameter gradients where applicable.


def dense_forward(x, w, b, rowwise=False):
    """x @ w + b.  A gemm rounds a row differently at different batch sizes;
    rowwise computes each row as its own vector-matrix product, the product
    a batch of one gets, so a row's result does not depend on its batch."""
    out = (x[:, None, :] @ w)[:, 0] if rowwise else x @ w
    return out + b, (x, w)


def dense_backward(dout, cache, input_grad=True):
    """Returns (dx, dw, db); dx is None when input_grad is false."""
    x, w = cache
    return dout @ w.T if input_grad else None, x.T @ dout, dout.sum(axis=0)


def conv2d_forward(x, w, b):
    """Valid-padding stride-1 correlation; x (B,C,H,W), w (F,C,kh,kw).  One
    batched matmul over the kh*kw slice copies of x gives NCHW output."""
    batch, in_c, h, width = x.shape
    filters, _, kh, kw = w.shape
    oh, ow = h - kh + 1, width - kw + 1
    cols = np.empty((batch, in_c, kh * kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = x[:, :, i : i + oh, j : j + ow]
    cols = cols.reshape(batch, in_c * kh * kw, oh * ow)
    out = w.reshape(filters, -1) @ cols
    out += b[:, None]
    return out.reshape(batch, filters, oh, ow), (x.shape, w, cols)


def conv2d_backward(dout, cache, input_grad=True):
    """Returns (dx, dw, db); dx is None when input_grad is false."""
    x_shape, w, cols = cache
    batch, in_c, h, width = x_shape
    filters, _, kh, kw = w.shape
    oh, ow = h - kh + 1, width - kw + 1
    dflat = dout.reshape(batch, filters, oh * ow)
    dw = (dflat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = dflat.sum(axis=(0, 2))
    if not input_grad:
        return None, dw, db
    dcols = (w.reshape(filters, -1).T @ dflat).reshape(batch, in_c, kh * kw, oh, ow)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, i * kw + j]
    return dx, dw, db


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(dout, mask):
    return dout * mask


def maxpool2_forward(x):
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.
    Ties route the gradient to the first maximum in tile order (0,0), (0,1),
    (1,0), (1,1): left within a tile row, then the upper row."""
    h, width = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    left, right = x[:, :, :h, 0:width:2], x[:, :, :h, 1:width:2]
    row_max = np.maximum(left, right)
    take_right = right > left
    upper, lower = row_max[:, :, 0::2], row_max[:, :, 1::2]
    take_lower = lower > upper
    return np.maximum(upper, lower), (x.shape, take_right, take_lower)


def maxpool2_backward(dout, cache):
    x_shape, take_right, take_lower = cache
    h, width = x_shape[2] // 2 * 2, x_shape[3] // 2 * 2
    drow = np.empty(take_right.shape, dtype=dout.dtype)
    np.multiply(dout, ~take_lower, out=drow[:, :, 0::2])
    np.multiply(dout, take_lower, out=drow[:, :, 1::2])
    dx = np.zeros(x_shape, dtype=dout.dtype)
    np.multiply(drow, ~take_right, out=dx[:, :, :h, 0:width:2])
    np.multiply(drow, take_right, out=dx[:, :, :h, 1:width:2])
    return dx


def dropout_forward(x, p, rng):
    """Inverted dropout: scale kept units by 1/(1-p) so eval needs no rescale."""
    if p == 0.0:
        return x, None
    mask = rng.random(x.shape) >= p
    return x * mask / (1.0 - p), (mask, p)


def dropout_backward(dout, cache):
    if cache is None:
        return dout
    mask, p = cache
    return dout * mask / (1.0 - p)


def flatten_forward(x):
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(dout, shape):
    return dout.reshape(shape)


def concat_forward(a, b):
    return np.concatenate([a, b], axis=1), a.shape[1]


def concat_backward(dout, split):
    return dout[:, :split], dout[:, split:]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; rows sum to 1."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def he_std(n_input: int) -> float:
    """Init std sqrt(2/fan_in); conv fan-in is kh*kw*in_channels."""
    if n_input < 1:
        raise ValueError("fan-in must be at least 1")
    return math.sqrt(2.0 / n_input)


# ---------------------------------------------------------------------------
# Architectures


@dataclass(frozen=True)
class FusionArch:
    """Three convolutional branches over in-network eye/face/mouth crops,
    fused pairwise through two dense stages into the final feature vector."""

    classes: int
    input_size: int = 42
    crop_rows: int = 14
    conv1_channels: int = 16
    conv2_channels: int = 32
    branch_units: int = 128
    fusion_units: int = 128
    dropout_p: float = 0.5

    kind = "fusion"

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0,1)")
        if self.crop_rows * 3 > self.input_size * 2:
            raise ValueError("crop_rows too large for input_size")
        for name, size in self._branch_inputs():
            if self._flat_units(size) <= 0:
                raise ValueError(f"branch {name} collapses to nothing")

    def _branch_inputs(self):
        return (
            ("eyes", (self.crop_rows, self.input_size)),
            ("face", (self.input_size, self.input_size)),
            ("mouth", (self.crop_rows, self.input_size)),
        )

    def _flat_units(self, size: tuple[int, int]) -> int:
        h, w = size
        h = (h - 2) // 2  # conv3 valid, then pool2
        w = (w - 2) // 2
        h = (h - 2) // 2
        w = (w - 2) // 2
        return self.conv2_channels * h * w

    @property
    def feature_dim(self) -> int:
        return self.fusion_units

    def head_param_names(self) -> tuple[str, ...]:
        return ("head.w", "head.b")

    def param_shapes(self) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, fan_in) in checkpoint manifest order."""
        shapes: list[tuple[str, tuple[int, ...], int]] = []
        for name, size in self._branch_inputs():
            c1, c2 = self.conv1_channels, self.conv2_channels
            shapes.append((f"{name}.conv1.w", (c1, 1, 3, 3), 9))
            shapes.append((f"{name}.conv1.b", (c1,), 0))
            shapes.append((f"{name}.conv2.w", (c2, c1, 3, 3), 9 * c1))
            shapes.append((f"{name}.conv2.b", (c2,), 0))
            flat = self._flat_units(size)
            shapes.append((f"{name}.fc.w", (flat, self.branch_units), flat))
            shapes.append((f"{name}.fc.b", (self.branch_units,), 0))
        shapes.append(("fuse1.w", (2 * self.branch_units, self.fusion_units), 2 * self.branch_units))
        shapes.append(("fuse1.b", (self.fusion_units,), 0))
        shapes.append(
            ("fuse2.w", (self.fusion_units + self.branch_units, self.fusion_units),
             self.fusion_units + self.branch_units)
        )
        shapes.append(("fuse2.b", (self.fusion_units,), 0))
        shapes.append(("head.w", (self.fusion_units, self.classes), self.fusion_units))
        shapes.append(("head.b", (self.classes,), 0))
        return shapes

    def describe(self) -> str:
        return (
            f"arch fusion classes={self.classes} input_size={self.input_size} "
            f"crop_rows={self.crop_rows} conv1_channels={self.conv1_channels} "
            f"conv2_channels={self.conv2_channels} branch_units={self.branch_units} "
            f"fusion_units={self.fusion_units} dropout_p={self.dropout_p!r}"
        )


@dataclass(frozen=True)
class MlpArch:
    """Dense classifier over a precomputed descriptor vector."""

    classes: int
    input_dim: int
    hidden_units: int = 256
    dropout_p: float = 0.5

    kind = "mlp"

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0,1)")

    @property
    def feature_dim(self) -> int:
        return self.hidden_units

    def head_param_names(self) -> tuple[str, ...]:
        return ("head.w", "head.b")

    def param_shapes(self) -> list[tuple[str, tuple[int, ...], int]]:
        return [
            ("hidden.w", (self.input_dim, self.hidden_units), self.input_dim),
            ("hidden.b", (self.hidden_units,), 0),
            ("head.w", (self.hidden_units, self.classes), self.hidden_units),
            ("head.b", (self.classes,), 0),
        ]

    def describe(self) -> str:
        return (
            f"arch mlp classes={self.classes} input_dim={self.input_dim} "
            f"hidden_units={self.hidden_units} dropout_p={self.dropout_p!r}"
        )


def _arch_from_description(line: str):
    tokens = line.split()
    archs = {"fusion": FusionArch, "mlp": MlpArch}
    if len(tokens) < 2 or tokens[0] != "arch" or tokens[1] not in archs:
        raise ValueError(f"bad arch descriptor {line!r}")
    kwargs = {}
    for tok in tokens[2:]:
        key, _, value = tok.partition("=")
        kwargs[key] = float(value) if key == "dropout_p" else int(value)
    try:
        return archs[tokens[1]](**kwargs)
    except TypeError as err:
        raise ValueError(f"bad arch descriptor {line!r}: {err}") from None


@dataclass
class ModelState:
    """Parameters, class centers and pixel statistics; no optimizer state."""

    arch: FusionArch | MlpArch
    params: dict[str, np.ndarray]
    centers: np.ndarray
    class_names: tuple[str, ...]
    pixel_stats: PixelStats | None = None


def init_model(arch, class_names, seed: int, dtype=np.float64) -> ModelState:
    """He-initialized weights, zero biases, zero centers.

    dtype float32 trains about 1.8 times faster; gradient verification wants
    the float64 default."""
    if len(class_names) != arch.classes:
        raise ValueError("class_names length must match arch.classes")
    rng = substream(seed, STREAM_INIT)
    params: dict[str, np.ndarray] = {}
    for name, shape, fan_in in arch.param_shapes():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.normal(0.0, he_std(fan_in), size=shape).astype(dtype)
    centers = np.zeros((arch.classes, arch.feature_dim), dtype=dtype)
    return ModelState(arch, params, centers, tuple(class_names))


def model_dtype(model: ModelState):
    return next(iter(model.params.values())).dtype


# ---------------------------------------------------------------------------
# Forward / backward


def _branch_forward(x2d, params, prefix, rowwise):
    # Each stage pools before its relu: relu is monotone, so it commutes with
    # max (ties included), and runs on a quarter of the elements.
    x = x2d[:, None, :, :]
    c1, cc1 = conv2d_forward(x, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    p1, pc1 = maxpool2_forward(c1)
    r1, mask1 = relu_forward(p1)
    c2, cc2 = conv2d_forward(r1, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    p2, pc2 = maxpool2_forward(c2)
    r2, mask2 = relu_forward(p2)
    flat, flat_shape = flatten_forward(r2)
    d, dc = dense_forward(flat, params[f"{prefix}.fc.w"], params[f"{prefix}.fc.b"], rowwise)
    act, mask3 = relu_forward(d)
    cache = (cc1, pc1, mask1, cc2, pc2, mask2, flat_shape, dc, mask3)
    return act, cache


def _branch_backward(dact, cache, grads, prefix):
    cc1, pc1, mask1, cc2, pc2, mask2, flat_shape, dc, mask3 = cache
    dd = relu_backward(dact, mask3)
    dflat, grads[f"{prefix}.fc.w"], grads[f"{prefix}.fc.b"] = dense_backward(dd, dc)
    dr2 = flatten_backward(dflat, flat_shape)
    dc2 = maxpool2_backward(relu_backward(dr2, mask2), pc2)
    dr1, grads[f"{prefix}.conv2.w"], grads[f"{prefix}.conv2.b"] = conv2d_backward(dc2, cc2)
    dc1 = maxpool2_backward(relu_backward(dr1, mask1), pc1)
    _, grads[f"{prefix}.conv1.w"], grads[f"{prefix}.conv1.b"] = conv2d_backward(
        dc1, cc1, input_grad=False)


def forward(model: ModelState, batch: np.ndarray, mode: str, rng=None):
    """Run the classifier.

    Fusion arch takes (B, input_size, input_size) images; mlp takes (B, D)
    descriptor rows.  Returns (logits, features, cache); features is the
    fused vector the center loss and nearest-feature prediction operate on.
    Train mode applies inverted dropout and needs an rng; eval mode is
    deterministic.  Mode "eval-rowwise" is eval with every dense layer run
    row by row: convolutions are per-item matmuls and pooling and relu are
    elementwise, so an item's outputs are then the same bits at every batch
    size, equal to its batch-1 eval forward.
    """
    if mode not in ("train", "eval", "eval-rowwise"):
        raise ValueError(f"unknown mode {mode!r}")
    arch = model.arch
    params = model.params
    train = mode == "train"
    rowwise = mode == "eval-rowwise"
    if train and arch.dropout_p > 0.0 and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")

    if arch.kind == "fusion":
        expected = (batch.shape[0], arch.input_size, arch.input_size)
        if batch.shape != expected:
            raise ValueError(f"batch shape {batch.shape}, expected {expected}")
        eyes = batch[:, : arch.crop_rows, :]
        mouth = batch[:, -arch.crop_rows :, :]
        eyes_act, eyes_cache = _branch_forward(eyes, params, "eyes", rowwise)
        face_act, face_cache = _branch_forward(batch, params, "face", rowwise)
        mouth_act, mouth_cache = _branch_forward(mouth, params, "mouth", rowwise)

        a1, split1 = concat_forward(eyes_act, face_act)
        f1, f1_dense = dense_forward(a1, params["fuse1.w"], params["fuse1.b"], rowwise)
        p1, f1_mask = relu_forward(f1)
        a2, split2 = concat_forward(p1, mouth_act)
        f2, f2_dense = dense_forward(a2, params["fuse2.w"], params["fuse2.b"], rowwise)
        features, f2_mask = relu_forward(f2)
    else:
        if batch.ndim != 2 or batch.shape[1] != arch.input_dim:
            raise ValueError(f"batch shape {batch.shape}, expected (B, {arch.input_dim})")
        h, h_dense = dense_forward(batch, params["hidden.w"], params["hidden.b"], rowwise)
        features, h_mask = relu_forward(h)

    if train:
        dropped, drop_cache = dropout_forward(features, arch.dropout_p, rng)
    else:
        dropped, drop_cache = features, None
    logits, head_dense = dense_forward(dropped, params["head.w"], params["head.b"], rowwise)

    if arch.kind == "fusion":
        cache = {
            "eyes": eyes_cache,
            "face": face_cache,
            "mouth": mouth_cache,
            "fuse1": (f1_dense, f1_mask, split1),
            "fuse2": (f2_dense, f2_mask, split2),
            "drop": drop_cache,
            "head": head_dense,
        }
    else:
        cache = {"hidden": (h_dense, h_mask), "drop": drop_cache, "head": head_dense}
    return logits, features, cache


def backward(model: ModelState, cache, dlogits: np.ndarray, dfeatures: np.ndarray):
    """Exact parameter gradients for dlogits through the head plus dfeatures
    injected at the feature node.  Requires a train-mode cache."""
    grads: dict[str, np.ndarray] = {}
    ddrop, grads["head.w"], grads["head.b"] = dense_backward(dlogits, cache["head"])
    dfeat = dropout_backward(ddrop, cache["drop"]) + dfeatures

    if model.arch.kind == "fusion":
        f2_dense, f2_mask, split2 = cache["fuse2"]
        df2 = relu_backward(dfeat, f2_mask)
        da2, grads["fuse2.w"], grads["fuse2.b"] = dense_backward(df2, f2_dense)
        dp1, dmouth = concat_backward(da2, split2)
        f1_dense, f1_mask, split1 = cache["fuse1"]
        df1 = relu_backward(dp1, f1_mask)
        da1, grads["fuse1.w"], grads["fuse1.b"] = dense_backward(df1, f1_dense)
        deyes, dface = concat_backward(da1, split1)
        _branch_backward(deyes, cache["eyes"], grads, "eyes")
        _branch_backward(dface, cache["face"], grads, "face")
        _branch_backward(dmouth, cache["mouth"], grads, "mouth")
    else:
        h_dense, h_mask = cache["hidden"]
        dh = relu_backward(dfeat, h_mask)
        _, grads["hidden.w"], grads["hidden.b"] = dense_backward(dh, h_dense, input_grad=False)
    return grads


# ---------------------------------------------------------------------------
# Tensor files, the one format of checkpoints and pixel statistics: a magic
# line, optional metadata lines, one `tensor <name> <d1,d2,...>` line per
# tensor, an `end` line, then little-endian float32 payloads in header order.


def _write_tensors(path, meta: list[str], entries: list[tuple[str, np.ndarray]]) -> None:
    lines = meta + [f"tensor {name} {','.join(str(d) for d in tensor.shape)}"
                    for name, tensor in entries] + ["end"]
    # Encoded before the file opens, so a non-ASCII header leaves no file.
    header = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC + header)
        for _, tensor in entries:
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def _read_tensors(path, meta_lines: int) -> tuple[list[str], dict[str, np.ndarray]]:
    """(metadata lines, {name: float32 array}) of a _write_tensors file whose
    first meta_lines header lines are metadata; a malformed file raises ValueError."""
    with open(path, "rb") as fh:
        remaining = os.fstat(fh.fileno()).st_size
        if fh.read(len(TENSOR_MAGIC)) != TENSOR_MAGIC:
            raise ValueError(f"{path}: not a microexpr tensor file (bad magic); to replace "
                             "an older version's file, re-run `microexpr preprocess` or `train`")
        lines = []
        for line in iter(fh.readline, b"end\n"):
            if not line.endswith(b"\n"):
                raise ValueError(f"{path}: tensor file header has no end line")
            # A non-ASCII header raises UnicodeDecodeError, a ValueError.
            lines.append(line[:-1].decode("ascii"))

        # Payloads follow in header order; each size is checked before its array exists.
        remaining -= fh.tell()
        tensors: dict[str, np.ndarray] = {}
        for line in lines[meta_lines:]:
            tokens = line.split()
            dims = tokens[2].split(",") if len(tokens) == 3 and tokens[0] == "tensor" else []
            if not dims or not all(d.isdigit() and int(d) > 0 for d in dims):
                raise ValueError(f"{path}: malformed tensor line {line!r}, expected "
                                 "'tensor <name> <d1,d2,...>' with positive integer dims")
            name, shape = tokens[1], tuple(int(d) for d in dims)
            if name in tensors:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            count = math.prod(shape)
            if remaining < 4 * count:
                raise ValueError(f"{path}: payload truncated at tensor {name!r}")
            tensors[name] = np.fromfile(fh, "<f4", count).reshape(shape)
            remaining -= 4 * count
    if remaining:
        raise ValueError(f"{path}: {remaining} payload bytes after the last tensor")
    return lines[:meta_lines], tensors


def _take(path, tensors: dict[str, np.ndarray], name: str, shape=None) -> np.ndarray:
    """Remove and return tensors[name], which must exist and have the shape."""
    if name not in tensors:
        raise ValueError(f"{path}: no tensor {name!r}")
    tensor = tensors.pop(name)
    if shape is not None and tensor.shape != shape:
        raise ValueError(f"{path}: tensor {name} has shape {tensor.shape}, expected {shape}")
    return tensor


def _stats_entries(stats: PixelStats) -> list[tuple[str, np.ndarray]]:
    return [("pixel_stats.mean", stats.mean), ("pixel_stats.std", stats.std),
            ("pixel_stats.epsilon", np.array([stats.epsilon]))]


def _stats_from_tensors(path, tensors: dict[str, np.ndarray]) -> PixelStats:
    """Remove the three pixel_stats.* tensors and build PixelStats from them."""
    mean = _take(path, tensors, "pixel_stats.mean")
    std = _take(path, tensors, "pixel_stats.std", mean.shape)
    return PixelStats(mean, std, float(_take(path, tensors, "pixel_stats.epsilon", (1,))[0]))


def save_checkpoint(path, model: ModelState) -> None:
    """Write the arch, class names, parameters, class centers and pixel
    statistics, which is all a ModelState holds: a checkpoint resumes no
    optimizer state.  Payloads are float32, so float64 reloads as float32."""
    entries = [(f"param:{name}", tensor) for name, tensor in model.params.items()]
    entries.append(("centers", model.centers))
    if model.pixel_stats is not None:
        entries += _stats_entries(model.pixel_stats)
    meta = [model.arch.describe(), "classes " + ",".join(model.class_names)]
    _write_tensors(path, meta, entries)


def load_checkpoint(path) -> ModelState:
    """Read a save_checkpoint file; a malformed one, or one with a non-finite
    parameter or center, raises ValueError."""
    meta, tensors = _read_tensors(path, 2)
    if len(meta) != 2 or not meta[1].startswith("classes "):
        raise ValueError(f"{path}: checkpoint header must be an arch line and a classes line")
    arch = _arch_from_description(meta[0])
    class_names = tuple(meta[1][len("classes ") :].split(","))
    if len(class_names) != arch.classes:
        raise ValueError(f"{path}: {len(class_names)} class names for {arch.classes} classes")
    params = {name: _take(path, tensors, f"param:{name}", shape)
              for name, shape, _ in arch.param_shapes()}
    centers = _take(path, tensors, "centers", (arch.classes, arch.feature_dim))
    named = [(f"param:{name}", tensor) for name, tensor in params.items()]
    for name, tensor in named + [("centers", centers)]:
        # min and max carry any NaN or infinity and allocate nothing.
        if not np.isfinite([tensor.min(), tensor.max()]).all():
            raise ValueError(f"{path}: tensor {name} holds non-finite values")
    stats = _stats_from_tensors(path, tensors) if "pixel_stats.mean" in tensors else None
    if tensors:
        raise ValueError(f"{path}: checkpoint has unexpected tensors {sorted(tensors)}")
    return ModelState(arch, params, centers, class_names, stats)


def save_pixel_stats(path, stats: PixelStats) -> None:
    _write_tensors(path, [], _stats_entries(stats))


def load_pixel_stats(path) -> PixelStats:
    """Read a save_pixel_stats file; a malformed one raises ValueError."""
    _, tensors = _read_tensors(path, 0)
    stats = _stats_from_tensors(path, tensors)
    if tensors:
        raise ValueError(f"{path}: pixel statistics file has unexpected tensors {sorted(tensors)}")
    return stats
