"""Layer primitives with hand-derived backward passes, the three-branch
fusion classifier, and checkpoint serialization.

All primitives follow the dtype of their inputs: float64 models support
finite-difference verification, float32 models train about three times
faster.  Parameters live in an ordered dict keyed by dotted names (the
checkpoint manifest order).  Gradient flow through the classifier combines
two upstream signals: the logit path and an auxiliary gradient injected at
the fused feature node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .preprocess import PixelStats
from .rng import STREAM_INIT, substream

CHECKPOINT_MAGIC = b"MFEDRL1\n"


# ---------------------------------------------------------------------------
# Layer primitives.  Each forward returns (out, cache); each backward takes
# (dout, cache) and returns dx plus parameter gradients where applicable.


def dense_forward(x, w, b):
    return x @ w + b, (x, w)


def dense_backward(dout, cache):
    x, w = cache
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def conv2d_forward(x, w, b):
    """Valid-padding stride-1 correlation; x (B,C,H,W), w (F,C,kh,kw)."""
    batch, in_c, h, width = x.shape
    filters, _, kh, kw = w.shape
    oh, ow = h - kh + 1, width - kw + 1
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * oh * ow, in_c * kh * kw)
    out = cols @ w.reshape(filters, -1).T + b
    out = out.reshape(batch, oh, ow, filters).transpose(0, 3, 1, 2)
    return out, (x.shape, w, cols)


def conv2d_backward(dout, cache):
    x_shape, w, cols = cache
    batch, in_c, h, width = x_shape
    filters, _, kh, kw = w.shape
    oh, ow = h - kh + 1, width - kw + 1
    dflat = dout.transpose(0, 2, 3, 1).reshape(batch * oh * ow, filters)
    dw = (dflat.T @ cols).reshape(w.shape)
    db = dflat.sum(axis=0)
    dwin = (dflat @ w.reshape(filters, -1)).reshape(batch, oh, ow, in_c, kh, kw)
    dwin = dwin.transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + oh, j : j + ow] += dwin[:, :, :, :, i, j]
    return dx, dw, db


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(dout, mask):
    return dout * mask


def maxpool2_forward(x):
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.
    Ties route the gradient to the first maximum."""
    batch, ch, h, width = x.shape
    hh, ww = h // 2, width // 2
    tiles = (
        x[:, :, : hh * 2, : ww * 2]
        .reshape(batch, ch, hh, 2, ww, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(batch, ch, hh, ww, 4)
    )
    idx = tiles.argmax(axis=-1)
    out = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]
    return out, (x.shape, idx)


def maxpool2_backward(dout, cache):
    x_shape, idx = cache
    batch, ch, h, width = x_shape
    hh, ww = h // 2, width // 2
    dtiles = np.zeros((batch, ch, hh, ww, 4), dtype=dout.dtype)
    np.put_along_axis(dtiles, idx[..., None], dout[..., None], axis=-1)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, :, : hh * 2, : ww * 2] = (
        dtiles.reshape(batch, ch, hh, ww, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(batch, ch, hh * 2, ww * 2)
    )
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
    if len(tokens) < 2 or tokens[0] != "arch":
        raise ValueError(f"bad arch descriptor {line!r}")
    kind = tokens[1]
    kwargs = {}
    for tok in tokens[2:]:
        key, _, value = tok.partition("=")
        kwargs[key] = float(value) if key == "dropout_p" else int(value)
    try:
        if kind == "fusion":
            return FusionArch(**kwargs)
        if kind == "mlp":
            return MlpArch(**kwargs)
    except TypeError as err:
        raise ValueError(f"bad arch descriptor {line!r}: {err}") from None
    raise ValueError(f"unknown arch kind {kind!r}")


@dataclass
class ModelState:
    arch: FusionArch | MlpArch
    params: dict[str, np.ndarray]
    momentum: dict[str, np.ndarray]
    centers: np.ndarray
    class_names: tuple[str, ...]
    pixel_stats: PixelStats | None = None


def init_model(arch, class_names, seed: int, dtype=np.float64) -> ModelState:
    """He-initialized weights, zero biases, zero momentum, zero centers.

    dtype float32 roughly halves training time; gradient verification wants
    the float64 default."""
    if len(class_names) != arch.classes:
        raise ValueError("class_names length must match arch.classes")
    rng = substream(seed, STREAM_INIT)
    params: dict[str, np.ndarray] = {}
    momentum: dict[str, np.ndarray] = {}
    for name, shape, fan_in in arch.param_shapes():
        if name.endswith(".b"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.normal(0.0, he_std(fan_in), size=shape).astype(dtype)
        momentum[name] = np.zeros(shape, dtype=dtype)
    centers = np.zeros((arch.classes, arch.feature_dim), dtype=dtype)
    return ModelState(arch, params, momentum, centers, tuple(class_names))


def model_dtype(model: ModelState):
    return next(iter(model.params.values())).dtype


# ---------------------------------------------------------------------------
# Forward / backward


def _branch_forward(x2d, params, prefix):
    x = x2d[:, None, :, :]
    c1, cc1 = conv2d_forward(x, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    r1, mask1 = relu_forward(c1)
    p1, pc1 = maxpool2_forward(r1)
    c2, cc2 = conv2d_forward(p1, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    r2, mask2 = relu_forward(c2)
    p2, pc2 = maxpool2_forward(r2)
    flat, flat_shape = flatten_forward(p2)
    d, dc = dense_forward(flat, params[f"{prefix}.fc.w"], params[f"{prefix}.fc.b"])
    act, mask3 = relu_forward(d)
    cache = (cc1, mask1, pc1, cc2, mask2, pc2, flat_shape, dc, mask3)
    return act, cache


def _branch_backward(dact, cache, grads, prefix):
    cc1, mask1, pc1, cc2, mask2, pc2, flat_shape, dc, mask3 = cache
    dd = relu_backward(dact, mask3)
    dflat, grads[f"{prefix}.fc.w"], grads[f"{prefix}.fc.b"] = dense_backward(dd, dc)
    dp2 = flatten_backward(dflat, flat_shape)
    dr2 = maxpool2_backward(dp2, pc2)
    dc2 = relu_backward(dr2, mask2)
    dp1, grads[f"{prefix}.conv2.w"], grads[f"{prefix}.conv2.b"] = conv2d_backward(dc2, cc2)
    dr1 = maxpool2_backward(dp1, pc1)
    dc1 = relu_backward(dr1, mask1)
    _, grads[f"{prefix}.conv1.w"], grads[f"{prefix}.conv1.b"] = conv2d_backward(dc1, cc1)


def forward(model: ModelState, batch: np.ndarray, mode: str, rng=None):
    """Run the classifier.

    Fusion arch takes (B, input_size, input_size) images; mlp takes (B, D)
    descriptor rows.  Returns (logits, features, cache); features is the
    fused vector the center loss and nearest-feature prediction operate on.
    Train mode applies inverted dropout and needs an rng; eval mode is
    deterministic.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    arch = model.arch
    params = model.params
    train = mode == "train"
    if train and arch.dropout_p > 0.0 and rng is None:
        raise ValueError("train-mode forward needs an rng for dropout")

    if arch.kind == "fusion":
        expected = (batch.shape[0], arch.input_size, arch.input_size)
        if batch.shape != expected:
            raise ValueError(f"batch shape {batch.shape}, expected {expected}")
        eyes = batch[:, : arch.crop_rows, :]
        mouth = batch[:, -arch.crop_rows :, :]
        eyes_act, eyes_cache = _branch_forward(eyes, params, "eyes")
        face_act, face_cache = _branch_forward(batch, params, "face")
        mouth_act, mouth_cache = _branch_forward(mouth, params, "mouth")

        a1, split1 = concat_forward(eyes_act, face_act)
        f1, f1_dense = dense_forward(a1, params["fuse1.w"], params["fuse1.b"])
        p1, f1_mask = relu_forward(f1)
        a2, split2 = concat_forward(p1, mouth_act)
        f2, f2_dense = dense_forward(a2, params["fuse2.w"], params["fuse2.b"])
        features, f2_mask = relu_forward(f2)
    else:
        if batch.ndim != 2 or batch.shape[1] != arch.input_dim:
            raise ValueError(f"batch shape {batch.shape}, expected (B, {arch.input_dim})")
        h, h_dense = dense_forward(batch, params["hidden.w"], params["hidden.b"])
        features, h_mask = relu_forward(h)

    if train:
        dropped, drop_cache = dropout_forward(features, arch.dropout_p, rng)
    else:
        dropped, drop_cache = features, None
    logits, head_dense = dense_forward(dropped, params["head.w"], params["head.b"])

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
        _, grads["hidden.w"], grads["hidden.b"] = dense_backward(dh, h_dense)
    return grads


# ---------------------------------------------------------------------------
# Checkpoint IO: magic line, text header (arch, classes, tensor manifest),
# then raw little-endian float32 payloads in manifest order.


def _tensor_manifest(model: ModelState) -> list[tuple[str, np.ndarray]]:
    entries = [(f"param:{name}", model.params[name]) for name in model.params]
    entries += [(f"momentum:{name}", model.momentum[name]) for name in model.momentum]
    entries.append(("centers", model.centers))
    if model.pixel_stats is not None:
        entries.append(("pixel_stats.mean", model.pixel_stats.mean))
        entries.append(("pixel_stats.std", model.pixel_stats.std))
        entries.append(("pixel_stats.epsilon", np.array([model.pixel_stats.epsilon])))
    return entries


def save_checkpoint(path, model: ModelState) -> None:
    entries = _tensor_manifest(model)
    header = [model.arch.describe(), "classes " + ",".join(model.class_names)]
    for name, tensor in entries:
        dims = ",".join(str(d) for d in tensor.shape)
        header.append(f"tensor {name} {dims}")
    header.append("end")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for _, tensor in entries:
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelState:
    """Read a save_checkpoint file; a malformed one raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError("not a model checkpoint (bad magic)")
    header_end = data.index(b"\nend\n", len(CHECKPOINT_MAGIC))
    lines = data[len(CHECKPOINT_MAGIC) : header_end].decode("ascii").splitlines()
    payload = data[header_end + len(b"\nend\n") :]

    if len(lines) < 2 or not lines[1].startswith("classes "):
        raise ValueError("checkpoint missing class names")
    arch = _arch_from_description(lines[0])
    class_names = tuple(lines[1][len("classes ") :].split(","))

    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for line in lines[2:]:
        tag, name, dims = line.split()
        if tag != "tensor":
            raise ValueError(f"unexpected header line {line!r}")
        shape = tuple(int(d) for d in dims.split(","))
        count = int(np.prod(shape))
        raw = payload[offset : offset + 4 * count]
        if len(raw) < 4 * count:
            raise ValueError(f"checkpoint payload truncated at tensor {name!r}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
        offset += 4 * count
    if offset != len(payload):
        raise ValueError(f"checkpoint has {len(payload) - offset} bytes after its last tensor")

    def tensor(name, shape=None):
        if name not in tensors:
            raise ValueError(f"checkpoint has no tensor {name!r}")
        if shape is not None and tensors[name].shape != shape:
            raise ValueError(f"tensor {name} has shape {tensors[name].shape}, arch wants {shape}")
        return tensors[name]

    params: dict[str, np.ndarray] = {}
    momentum: dict[str, np.ndarray] = {}
    for name, shape, _ in arch.param_shapes():
        params[name] = tensor(f"param:{name}", shape)
        momentum[name] = tensor(f"momentum:{name}", shape)
    stats = None
    if "pixel_stats.mean" in tensors:
        stats = PixelStats(
            tensor("pixel_stats.mean"),
            tensor("pixel_stats.std"),
            float(tensor("pixel_stats.epsilon", (1,))[0]),
        )
    centers = tensor("centers", (arch.classes, arch.feature_dim))
    return ModelState(arch, params, momentum, centers, class_names, stats)
