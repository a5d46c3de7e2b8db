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

import contextlib
import math
import mmap
import os
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .preprocess import PREPARED_SIZE, PixelStats, require_prepared
from .rng import STREAM_INIT, substream

TENSOR_MAGIC = b"MFETENSOR1\n"

# Batch items per im2col block of a convolution.  Batch-256 float32 fusion step, one BLAS
# thread, 2-vCPU host, four rounds: tracemalloc peak 97.2 MiB at 8-64 items (the face pool1
# backward's), 120.9 at 128, 175.5 unchunked; median step 267-322 ms at 8, 263-407 at 16,
# 276-382 at 32, 276-343 at 64, 323-447 at 128, 290-371 unchunked.
CONV_CHUNK = 32

# When a rowwise dense_forward packs its weight (_packed_rowwise).  A block of
# PACK_COLUMNS float32 columns is one 64-byte line per weight row.  With
# OpenBLAS 0.3.31, 16- to 128-column blocks gave every row the bits of its
# unpacked product, and 4- and 8-column blocks, or a width that is not a
# multiple of 16, did not.  Packed against unpacked ms on the descriptor MLP's
# 26300x256 float32 hidden.w (27 MB; one BLAS thread, 2-vCPU host, 2 MiB L2
# per core; medians of 7 interleaved rounds in a fast and a slow phase of the
# shared host): 1 row 11.5/2.4, 8 rows 17.9/20.0 and 27.7/22.3, 10 rows
# 19.9/22.7 and 28.6/29.8, 16 rows 24.4/40.3 and 35.5/44.6.  Every fusion
# layer is under PACK_MIN_BYTES: face fc.w, the largest, is 1.3 MB in float32.
PACK_COLUMNS = 16
PACK_MIN_BYTES = 4 << 20
PACK_MIN_ROWS = 10


# ---------------------------------------------------------------------------
# Layer primitives.  Each forward returns (out, cache); each backward takes
# (dout, cache) and returns dx plus parameter gradients where applicable.


def dense_forward(x, w, b, rowwise=False):
    """x @ w + b.  A gemm rounds a row differently at different batch sizes;
    rowwise computes each row as its own vector-matrix product, the product
    a batch of one gets, so a row's result does not depend on its batch.
    Eval forwards run rowwise; training keeps the faster gemm.  A rowwise
    product over a weight too large for cache, shared by enough rows, runs
    through _packed_rowwise."""
    if not rowwise:
        out = x @ w
    elif (len(x) >= PACK_MIN_ROWS and w.nbytes >= PACK_MIN_BYTES
          and w.shape[1] % PACK_COLUMNS == 0):
        out = _packed_rowwise(x, w)
    else:
        out = (x[:, None, :] @ w)[:, 0]
    return out + b, (x, w)


def _packed_rowwise(x, w):
    """(x[:, None, :] @ w)[:, 0], the same bits, with w read from memory once
    rather than once per row: each PACK_COLUMNS-wide column block of w is
    copied into one contiguous buffer, which stays in cache while every row
    is multiplied by it (the packing step of Goto and van de Geijn's gemm)."""
    out = np.empty((len(x), w.shape[1]), dtype=np.result_type(x, w))
    block = np.empty((w.shape[0], PACK_COLUMNS), dtype=w.dtype)
    for j in range(0, w.shape[1], PACK_COLUMNS):
        np.copyto(block, w[:, j : j + PACK_COLUMNS])
        np.matmul(x[:, None, :], block, out=out[:, None, j : j + PACK_COLUMNS])
    return out


def dense_backward(dout, cache, input_grad=True):
    """Returns (dx, dw, db); dx is None when input_grad is false."""
    x, w = cache
    return dout @ w.T if input_grad else None, x.T @ dout, dout.sum(axis=0)


def _column_blocks(x, kh, kw):
    """Yield (start, cols) per CONV_CHUNK items of x (B,C,H,W): cols (n, C*kh*kw, oh*ow)
    holds their kh*kw shifted windows (im2col), copied in one pass from a strided
    view of x into one buffer the next block overwrites."""
    batch, in_c, h, width = x.shape
    oh, ow = h - kh + 1, width - kw + 1
    sb, sc, sh, sw = x.strides
    # windows[n, c, i, j] is the (oh, ow) window at offset (i, j); nothing is copied yet.
    windows = as_strided(x, (batch, in_c, kh, kw, oh, ow), (sb, sc, sh, sw, sh, sw),
                         writeable=False)
    buf = np.empty((min(batch, CONV_CHUNK), in_c, kh, kw, oh, ow), dtype=x.dtype)
    for s in range(0, batch, CONV_CHUNK):
        cols = buf[: batch - s]
        np.copyto(cols, windows[s : s + len(cols)])
        yield s, cols.reshape(len(cols), in_c * kh * kw, oh * ow)


def conv2d_forward(x, w, b):
    """Valid-padding stride-1 correlation; x (B,C,H,W), w (F,C,kh,kw) gives
    NCHW output, one matmul per item over its im2col block.  The cache (x, w)
    holds x by reference and no columns, so x must not change before backward."""
    filters, _, kh, kw = w.shape
    oh, ow = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    out = np.empty((len(x), filters, oh * ow), dtype=np.result_type(w, x))
    for s, cols in _column_blocks(x, kh, kw):
        np.matmul(w.reshape(filters, -1), cols, out=out[s : s + len(cols)])
    out += b[:, None]
    return out.reshape(len(x), filters, oh, ow), (x, w)


def conv2d_backward(dout, cache, input_grad=True):
    """Returns (dx, dw, db); dx is None when input_grad is false.  Rebuilds
    the im2col columns from the cached input one block at a time and writes
    into nothing it was given, so a cache serves any number of backwards."""
    x, w = cache
    (filters, in_c, kh, kw), (oh, ow) = w.shape, dout.shape[2:]
    dflat = dout.reshape(len(x), filters, oh * ow)
    dw = np.zeros((1, filters, in_c * kh * kw), dtype=np.result_type(dout, x))
    dx = np.zeros(x.shape, dtype=dout.dtype) if input_grad else None
    for s, cols in _column_blocks(x, kh, kw):
        ds = dflat[s : s + len(cols)]
        # An axis-0 sum adds item by item from +0.0: carrying the total keeps the one-shot bits.
        dw = np.concatenate((dw, ds @ cols.transpose(0, 2, 1))).sum(axis=0, keepdims=True)
        if input_grad:
            dcols = (w.reshape(filters, -1).T @ ds).reshape(len(ds), in_c, kh * kw, oh, ow)
            for i in range(kh):
                for j in range(kw):
                    dx[s : s + len(ds), :, i : i + oh, j : j + ow] += dcols[:, :, i * kw + j]
    return dx, dw.reshape(w.shape), dflat.sum(axis=(0, 2))


def relu_forward(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(dout, mask):
    return dout * mask


def maxpool2_forward(x, routes=True):
    """2x2 max pooling, stride 2; odd trailing rows/cols are dropped.
    Ties route the gradient to the first maximum in tile order (0,0), (0,1),
    (1,0), (1,1): left within a tile row, then the upper row.  Without routes
    the cache is None: the output is the same, but no backward can use it."""
    h, width = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    left, right = x[:, :, :h, 0:width:2], x[:, :, :h, 1:width:2]
    row_max = np.maximum(left, right)
    upper, lower = row_max[:, :, 0::2], row_max[:, :, 1::2]
    out = np.maximum(upper, lower)
    if not routes:
        return out, None
    return out, (x.shape, right > left, lower > upper)


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
    fused pairwise through two dense stages into the final feature vector.

    input_size and crop_rows set the network window: the input_size square
    that augmentation, multicrop and nearest-feature cut from a prepared
    image (so at most PREPARED_SIZE), and the eye and mouth rows taken
    from its top and bottom."""

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
        if self.input_size > PREPARED_SIZE:
            raise ValueError(f"input_size must be at most {PREPARED_SIZE}")
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

    def param_shapes(self) -> list[tuple[str, tuple[int, ...], int]]:
        return [
            ("hidden.w", (self.input_dim, self.hidden_units), self.input_dim),
            ("hidden.b", (self.hidden_units,), 0),
            ("head.w", (self.hidden_units, self.classes), self.hidden_units),
            ("head.b", (self.classes,), 0),
        ]


def _describe_arch(arch) -> str:
    """The checkpoint's arch line: `arch <kind>`, then name=repr(value) for
    every field in declaration order."""
    return " ".join([f"arch {arch.kind}"]
                    + [f"{f.name}={getattr(arch, f.name)!r}" for f in fields(arch)])


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


def _branch_forward(x2d, params, prefix, mode):
    # Each stage pools before its relu: relu is monotone, so it commutes with
    # max (ties included), and runs on a quarter of the elements.  Only train
    # mode keeps the pools' gradient routes; eval runs the fc row by row.
    routes = mode == "train"
    x = x2d[:, None, :, :]
    c1, cc1 = conv2d_forward(x, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    p1, pc1 = maxpool2_forward(c1, routes)
    r1, mask1 = relu_forward(p1)
    c2, cc2 = conv2d_forward(r1, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    p2, pc2 = maxpool2_forward(c2, routes)
    r2, mask2 = relu_forward(p2)
    flat, flat_shape = flatten_forward(r2)
    d, dc = dense_forward(flat, params[f"{prefix}.fc.w"], params[f"{prefix}.fc.b"], not routes)
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
    Train mode applies inverted dropout and needs an rng.  Eval mode is
    deterministic and runs every dense layer row by row: convolutions are
    per-item matmuls and pooling and relu are elementwise, so an item's eval
    outputs are the same bits at every batch size, equal to its batch-1
    forward.  The cache records the mode; an eval cache holds no pooling
    routes and serves no backward.
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
        eyes_act, eyes_cache = _branch_forward(eyes, params, "eyes", mode)
        face_act, face_cache = _branch_forward(batch, params, "face", mode)
        mouth_act, mouth_cache = _branch_forward(mouth, params, "mouth", mode)

        a1, split1 = concat_forward(eyes_act, face_act)
        f1, f1_dense = dense_forward(a1, params["fuse1.w"], params["fuse1.b"], not train)
        p1, f1_mask = relu_forward(f1)
        a2, split2 = concat_forward(p1, mouth_act)
        f2, f2_dense = dense_forward(a2, params["fuse2.w"], params["fuse2.b"], not train)
        features, f2_mask = relu_forward(f2)
        cache = {"eyes": eyes_cache, "face": face_cache, "mouth": mouth_cache,
                 "fuse1": (f1_dense, f1_mask, split1), "fuse2": (f2_dense, f2_mask, split2)}
    else:
        if batch.ndim != 2 or batch.shape[1] != arch.input_dim:
            raise ValueError(f"batch shape {batch.shape}, expected (B, {arch.input_dim})")
        h, h_dense = dense_forward(batch, params["hidden.w"], params["hidden.b"], not train)
        features, h_mask = relu_forward(h)
        cache = {"hidden": (h_dense, h_mask)}

    # Eval drops nothing: dropout_forward passes p = 0 through untouched.
    dropped, cache["drop"] = dropout_forward(features, arch.dropout_p if train else 0.0, rng)
    logits, cache["head"] = dense_forward(dropped, params["head.w"], params["head.b"], not train)
    cache["mode"] = mode
    return logits, features, cache


def backward(model: ModelState, cache, dlogits: np.ndarray, dfeatures: np.ndarray):
    """Exact parameter gradients for dlogits through the head plus dfeatures
    injected at the feature node.  Requires a train-mode cache: an eval cache
    holds no pooling routes, and it raises ValueError."""
    if cache["mode"] != "train":
        raise ValueError("backward needs a train-mode cache")
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
# The writer ends the last tensor line with spaces so that the payloads start
# at a multiple of PAYLOAD_ALIGN bytes; readers split header lines on
# whitespace, so files without that padding read the same.

PAYLOAD_ALIGN = 64


def _write_tensors(path, meta: list[str], entries: list[tuple[str, np.ndarray]]) -> None:
    """Write to a temporary file beside path and rename it over path, so a
    reader that has mapped the old file keeps it, and a failed write leaves
    the old file whole and no temporary file."""
    lines = meta + [f"tensor {name} {','.join(str(d) for d in tensor.shape)}"
                    for name, tensor in entries]
    # Encoded before the file opens, so a non-ASCII header leaves no file.
    header = TENSOR_MAGIC + "".join(f"{line}\n" for line in lines).encode("ascii")
    if entries:
        header = header[:-1] + b" " * (-(len(header) + len(b"end\n")) % PAYLOAD_ALIGN) + b"\n"
    header += b"end\n"
    target = os.path.realpath(path)  # a symlink keeps pointing at the new file
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write(header)
            for _, tensor in entries:
                fh.write(np.ascontiguousarray(tensor, dtype="<f4"))
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def _read_tensors(path, meta_lines: int) -> tuple[list[str], dict[str, np.ndarray]]:
    """(metadata lines, {name: float32 array}) of a _write_tensors file whose
    first meta_lines header lines are metadata; a malformed file raises ValueError.
    The arrays are copy-on-write views of the mapped file: writable, and a write
    changes only this process's copy.  A payload that is not 4-byte aligned,
    as in files written before the padding, is copied."""
    with open(path, "rb") as fh:
        if fh.read(len(TENSOR_MAGIC)) != TENSOR_MAGIC:
            raise ValueError("not a microexpr tensor file (bad magic); to replace an older "
                             "version's file, re-run `microexpr preprocess` or `train`")
        lines = []
        for line in iter(fh.readline, b"end\n"):
            if not line.endswith(b"\n"):
                raise ValueError("tensor file header has no end line")
            # A non-ASCII header raises UnicodeDecodeError, a ValueError.
            lines.append(line[:-1].decode("ascii"))

        # Payloads follow in header order; each size is checked before its view exists.
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        offset, size = fh.tell(), len(data)
        tensors: dict[str, np.ndarray] = {}
        for line in lines[meta_lines:]:
            tokens = line.split()
            dims = tokens[2].split(",") if len(tokens) == 3 and tokens[0] == "tensor" else []
            if not dims or not all(d.isdigit() and int(d) > 0 for d in dims):
                raise ValueError(f"malformed tensor line {line!r}, expected "
                                 "'tensor <name> <d1,d2,...>' with positive integer dims")
            name, shape = tokens[1], tuple(int(d) for d in dims)
            if name in tensors:
                raise ValueError(f"duplicate tensor {name!r}")
            count = math.prod(shape)
            if size - offset < 4 * count:
                raise ValueError(f"payload truncated at tensor {name!r}")
            view = np.frombuffer(data, "<f4", count, offset).reshape(shape)
            tensors[name] = np.require(view, requirements="A")
            offset += 4 * count
    if offset != size:
        raise ValueError(f"{size - offset} payload bytes after the last tensor")
    return lines[:meta_lines], tensors


def _take(tensors: dict[str, np.ndarray], name: str, shape=None) -> np.ndarray:
    """Remove and return tensors[name], which must exist and have the shape."""
    if name not in tensors:
        raise ValueError(f"no tensor {name!r}")
    tensor = tensors.pop(name)
    if shape is not None and tensor.shape != shape:
        raise ValueError(f"tensor {name} has shape {tensor.shape}, expected {shape}")
    return tensor


def _stats_entries(stats: PixelStats) -> list[tuple[str, np.ndarray]]:
    return [("pixel_stats.mean", stats.mean), ("pixel_stats.std", stats.std),
            ("pixel_stats.epsilon", np.array([stats.epsilon]))]


def _stats_from_tensors(tensors: dict[str, np.ndarray]) -> PixelStats:
    """Remove the three pixel_stats.* tensors and build PixelStats from them."""
    mean = _take(tensors, "pixel_stats.mean")
    std = _take(tensors, "pixel_stats.std", mean.shape)
    return PixelStats(mean, std, float(_take(tensors, "pixel_stats.epsilon", (1,))[0]))


def save_checkpoint(path, model: ModelState) -> None:
    """Write the arch, class names, parameters, class centers and pixel
    statistics, which is all a ModelState holds: a checkpoint resumes no
    optimizer state.  Payloads are float32, so float64 reloads as float32."""
    entries = [(f"param:{name}", tensor) for name, tensor in model.params.items()]
    entries.append(("centers", model.centers))
    if model.pixel_stats is not None:
        entries += _stats_entries(model.pixel_stats)
    meta = [_describe_arch(model.arch), "classes " + ",".join(model.class_names)]
    _write_tensors(path, meta, entries)


def load_checkpoint(path) -> ModelState:
    """Read a save_checkpoint file; a malformed one, or one with a non-finite
    parameter or center or pixel statistics not of the prepared shape,
    raises ValueError."""
    meta, tensors = _read_tensors(path, 2)
    if len(meta) != 2 or not meta[1].startswith("classes "):
        raise ValueError("checkpoint header must be an arch line and a classes line")
    arch = _arch_from_description(meta[0])
    class_names = tuple(meta[1][len("classes ") :].split(","))
    if len(class_names) != arch.classes:
        raise ValueError(f"{len(class_names)} class names for {arch.classes} classes")
    params = {name: _take(tensors, f"param:{name}", shape)
              for name, shape, _ in arch.param_shapes()}
    centers = _take(tensors, "centers", (arch.classes, arch.feature_dim))
    named = [(f"param:{name}", tensor) for name, tensor in params.items()]
    for name, tensor in named + [("centers", centers)]:
        # min and max carry any NaN or infinity and allocate nothing.
        if not np.isfinite([tensor.min(), tensor.max()]).all():
            raise ValueError(f"tensor {name} holds non-finite values")
    stats = _stats_from_tensors(tensors) if "pixel_stats.mean" in tensors else None
    if stats is not None:
        require_prepared(stats.mean.shape, "pixel statistics")
    if tensors:
        raise ValueError(f"checkpoint has unexpected tensors {sorted(tensors)}")
    return ModelState(arch, params, centers, class_names, stats)


def save_pixel_stats(path, stats: PixelStats) -> None:
    _write_tensors(path, [], _stats_entries(stats))


def load_pixel_stats(path) -> PixelStats:
    """Read a save_pixel_stats file; a malformed one raises ValueError."""
    _, tensors = _read_tensors(path, 0)
    stats = _stats_from_tensors(tensors)
    if tensors:
        raise ValueError(f"pixel statistics file has unexpected tensors {sorted(tensors)}")
    return stats
