"""Configurable four-stage multiscale spatiotemporal transformer.

A strided patchify stem projects the clip to a coarse token grid; four
stages of shape-preserving pre-norm transformer blocks are separated by
strided, channel-doubling convolutions where all multiscale hierarchy
lives. The scaling strategy selects which of the three transitions also
halve the temporal extent. Prediction is either a full-length waveform
(temporal upsampling head) or a single rate per clip (token averaging).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import nn_ops, tensor as T
from .errors import ConfigurationError, DimensionError
from .nn_ops import RelativeBias
from .tensor import Tensor

OUTPUT_FORMATS = ("Signal", "HR")
FRAME_FORMATS = ("Raw", "DiffNorm")
POS_ENCODINGS = ("ABS", "REL", "CPE")

# transition indices (stage i -> i+1) that additionally halve time, per strategy
TEMPORAL_SCHEDULE: dict[int, tuple[int, ...]] = {
    0: (),
    1: (0,),
    2: (1,),
    3: (2,),
    4: (0, 1),
    5: (0, 2),
    6: (1, 2),
}

STEM_KERNEL = (3, 7, 7)
STEM_STRIDE = (2, 4, 4)
STEM_PAD = (1, 3, 3)
INIT_STD = 0.02


def scaling_label(sid: int) -> str:
    return f"Scale-{sid}"


def parse_scaling(label) -> int:
    """A strategy id from an int or a ``"Scale-N"`` label; anything else is rejected."""
    sid = label
    if isinstance(label, str):
        sid = next((k for k in TEMPORAL_SCHEDULE if scaling_label(k) == label), None)
    if type(sid) is not int or sid not in TEMPORAL_SCHEDULE:
        raise ConfigurationError(f"unknown scaling strategy {label!r}")
    return sid


def config_field(key: str, value, default, error: type[Exception]):
    """``value`` as config field ``key``, in its ``default``'s type, or ``error``.

    A bool is never a number. An int field takes numpy integers too, a float
    field integers too, and a tuple field a tuple or list of as many integers.
    """
    def integer(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

    if isinstance(default, tuple):
        want = f"{len(default)} integers"
        if isinstance(value, (tuple, list)) and len(value) == len(default) and all(
                map(integer, value)):
            return tuple(map(int, value))
    elif isinstance(default, (bool, str)):
        want = f"a {type(default).__name__}"
        if type(value) is type(default):
            return value
    elif isinstance(default, int):
        want = "an integer"
        if integer(value):
            return int(value)
    else:
        want = "a number"
        if isinstance(value, (float, np.floating)) or (
                integer(value) and abs(value) <= sys.float_info.max):
            return float(value)
    raise error(f"{key} {value!r} must be {want}")


@dataclass
class ModelConfig:
    """One point of the preprocessing/architecture design space."""

    input_dims: tuple[int, int, int] = (120, 64, 64)
    output_format: str = "Signal"
    frame_format: str = "DiffNorm"
    signal_norm: bool = True
    pos_encoding: str = "REL"
    scaling: int = 2
    base_width: int = 32
    stage_depths: tuple[int, int, int, int] = (1, 1, 2, 1)
    heads_per_stage: tuple[int, int, int, int] = (1, 2, 4, 8)
    mlp_ratio: float = 4.0

    def copy(self, **changes) -> "ModelConfig":
        return replace(self, **changes)

    def validate(self) -> "ModelConfig":
        """Check every field and return self; a ``"Scale-N"`` label becomes its id, and
        every other field its ``config_field`` value."""
        for f in fields(self):
            if f.name != "scaling":
                setattr(self, f.name, config_field(f.name, getattr(self, f.name), f.default,
                                                   ConfigurationError))
        t, h, w = self.input_dims
        if min(t, h, w) < 1:
            raise ConfigurationError(f"input dims {self.input_dims} must be positive")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigurationError(f"unknown output format {self.output_format!r}")
        if self.frame_format not in FRAME_FORMATS:
            raise ConfigurationError(f"unknown frame format {self.frame_format!r}")
        if self.pos_encoding not in POS_ENCODINGS:
            raise ConfigurationError(f"unknown positional encoding {self.pos_encoding!r}")
        self.scaling = parse_scaling(self.scaling)
        n_temporal = len(TEMPORAL_SCHEDULE[self.scaling])
        t_div = 2 * 2 ** n_temporal
        if t % t_div != 0:
            raise ConfigurationError(
                f"temporal extent {t} must be divisible by {t_div} for {scaling_label(self.scaling)}")
        if h % 32 != 0 or w % 32 != 0:
            raise ConfigurationError(f"spatial extents {h}x{w} must be divisible by 32")
        if any(d < 0 for d in self.stage_depths):
            raise ConfigurationError(f"stage depths {self.stage_depths} must be 4 non-negative ints")
        if self.base_width < 1:
            raise ConfigurationError(f"base width {self.base_width} must be positive")
        for i, heads in enumerate(self.heads_per_stage):
            width = self.base_width * 2 ** i   # the stage's width, as the model builds it
            if heads < 1 or width % heads != 0:
                raise ConfigurationError(
                    f"stage-{i + 1} width {width} not divisible by its heads {heads}")
        if not math.isfinite(self.mlp_ratio) or self.mlp_ratio <= 0:
            raise ConfigurationError(f"mlp_ratio {self.mlp_ratio} must be positive and finite")
        try:   # the widest stage (8x base width) needs a finite MLP width too
            hidden = [round(c * self.mlp_ratio) for c in (self.base_width, 8 * self.base_width)]
        except OverflowError as e:
            raise ConfigurationError(f"mlp_ratio {self.mlp_ratio} overflows the MLP width "
                                     f"at base width {self.base_width}") from e
        if hidden[0] < 1:
            raise ConfigurationError(
                f"mlp_ratio {self.mlp_ratio} gives an empty MLP at base width {self.base_width}")
        return self


def stage_grids(cfg: ModelConfig) -> list[tuple[int, int, int]]:
    """Token grid inside each of the four stages (stem output first)."""
    t, h, w = cfg.input_dims
    g = (t // 2, h // 4, w // 4)
    grids = [g]
    temporal = TEMPORAL_SCHEDULE[parse_scaling(cfg.scaling)]
    for i in range(3):
        g = (g[0] // 2 if i in temporal else g[0], g[1] // 2, g[2] // 2)
        grids.append(g)
    return grids


def head_upsample_count(cfg: ModelConfig) -> int:
    """Temporal x2 upsamplings that restore T: the stem and each temporal transition halve it."""
    return 1 + len(TEMPORAL_SCHEDULE[parse_scaling(cfg.scaling)])


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) with resampling outside two standard deviations.

    Each round re-draws only the entries still out of range, in ascending
    flat order, so it takes the same draws into the same slots as
    re-scanning the whole array would.
    """
    x = rng.normal(0.0, std, size=shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * std)
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2 * std]
    return x


def _copy_checked(name: str, value: np.ndarray, dest: np.ndarray) -> None:
    """dest[...] = value cast to dest's dtype, if the shapes agree and it is finite."""
    if value.shape != dest.shape:
        raise ConfigurationError(
            f"checkpoint shape mismatch for {name}: {value.shape} vs {dest.shape}")
    with np.errstate(over="ignore"):   # overflow shows as inf, rejected below
        value = value.astype(dest.dtype)
    if not np.isfinite(value).all():
        raise ConfigurationError(f"checkpoint array {name} is not finite as {dest.dtype}")
    dest[...] = value


class _ParamStore:
    """Ordered named parameters plus non-trainable buffers."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self.params:
            raise ConfigurationError(f"duplicate parameter name {name}")
        t = Tensor(value, requires_grad=True)
        self.params[name] = t
        return t


def _mlp(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor,
         w2: Tensor, b2: Tensor) -> Tensor:
    h = T.gelu(T.linear(nn_ops.layernorm(x, ln_g, ln_b), w1, b1))
    return T.linear(h, w2, b2)


class _Block:
    """Pre-norm transformer block: x + Attn(LN(x)); x + MLP(LN(x)).

    The MLP branch runs under ``tensor.checkpoint``, so training keeps none
    of its hidden-width arrays until the backward rebuilds them. The
    attention branch is recorded: rebuilding it would run ``attention_core``
    twice.
    """

    def __init__(self, store: _ParamStore, prefix: str, dim: int, heads: int,
                 mlp_ratio: float, rng: np.random.Generator):
        self.heads = heads
        p = store.add
        self.ln1_g = p(f"{prefix}.ln1.gamma", np.ones(dim))
        self.ln1_b = p(f"{prefix}.ln1.beta", np.zeros(dim))
        self.proj = {}
        for nm in ("q", "k", "v", "o"):
            self.proj[nm] = (p(f"{prefix}.attn.w{nm}", trunc_normal(rng, (dim, dim))),
                             p(f"{prefix}.attn.b{nm}", np.zeros(dim)))
        self.ln2_g = p(f"{prefix}.ln2.gamma", np.ones(dim))
        self.ln2_b = p(f"{prefix}.ln2.beta", np.zeros(dim))
        hidden = int(round(dim * mlp_ratio))
        self.fc1_w = p(f"{prefix}.mlp.fc1.w", trunc_normal(rng, (hidden, dim)))
        self.fc1_b = p(f"{prefix}.mlp.fc1.b", np.zeros(hidden))
        self.fc2_w = p(f"{prefix}.mlp.fc2.w", trunc_normal(rng, (dim, hidden)))
        self.fc2_b = p(f"{prefix}.mlp.fc2.b", np.zeros(dim))

    def __call__(self, x: Tensor, rel: RelativeBias | None) -> Tensor:
        a = nn_ops.layernorm(x, self.ln1_g, self.ln1_b)
        a = nn_ops.attention(a, *self.proj["q"], *self.proj["k"], *self.proj["v"],
                             *self.proj["o"], heads=self.heads, rel=rel)
        x = T.add(x, a)
        m = T.checkpoint(_mlp, x, self.ln2_g, self.ln2_b, self.fc1_w, self.fc1_b,
                         self.fc2_w, self.fc2_b)
        return T.add(x, m)


class MultiscaleVideoTransformer:
    """The full model; construction is a pure function of (config, seed).

    Parameters are stored in the compute dtype current at construction.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg.validate()
        try:
            self._build(cfg, seed)
        except (MemoryError, ValueError) as e:   # numpy's ValueError: beyond its index range
            raise ConfigurationError(
                f"base width {cfg.base_width} needs more memory than is available "
                f"for the model's parameters") from e

    def _build(self, cfg: ModelConfig, seed: int) -> None:
        self.grids = stage_grids(cfg)
        self.channels = [cfg.base_width * 2 ** i for i in range(4)]
        self.store = _ParamStore()
        rng = np.random.default_rng(seed)
        p = self.store.add
        d = cfg.base_width

        self.stem_w = p("stem.w", trunc_normal(rng, (d, 3) + STEM_KERNEL))
        self.stem_b = p("stem.b", np.zeros(d))

        # encoding parameters are zero-initialised and draw nothing from rng,
        # so differently-encoded models share the remaining weight stream
        self.abs_table = None
        self.cpe_w = None
        if cfg.pos_encoding == "ABS":
            self.abs_table = p("pos.abs", np.zeros((d,) + self.grids[0]))
        elif cfg.pos_encoding == "CPE":
            self.cpe_w = p("pos.cpe.w", np.zeros((d, 3, 3, 3)))

        self.rel: list[RelativeBias | None] = [None] * 4
        if cfg.pos_encoding == "REL":
            for i in range(4):
                rb = RelativeBias(cfg.heads_per_stage[i], self.grids[i])
                self.rel[i] = rb
                self.store.params[f"stage{i + 1}.rel.t"] = rb.table_t
                self.store.params[f"stage{i + 1}.rel.h"] = rb.table_h
                self.store.params[f"stage{i + 1}.rel.w"] = rb.table_w

        self.stages: list[list[_Block]] = []
        self.trans_w: list[Tensor] = []
        self.trans_b: list[Tensor] = []
        for i in range(4):
            ch = self.channels[i]
            blocks = [_Block(self.store, f"stage{i + 1}.block{j}", ch,
                             cfg.heads_per_stage[i], cfg.mlp_ratio, rng)
                      for j in range(cfg.stage_depths[i])]
            self.stages.append(blocks)
            if i < 3:
                self.trans_w.append(p(f"transition{i + 1}.w",
                                      trunc_normal(rng, (2 * ch, ch, 3, 3, 3))))
                self.trans_b.append(p(f"transition{i + 1}.b", np.zeros(2 * ch)))

        ch = self.channels[-1]
        self.head_convs: list[tuple[Tensor, Tensor]] = []
        self.head_bns: list[tuple[Tensor, Tensor]] = []
        if cfg.output_format == "Signal":
            for k in range(head_upsample_count(cfg)):
                self.head_convs.append((p(f"head.up{k}.conv.w",
                                          trunc_normal(rng, (ch, ch, 3, 1, 1))),
                                        p(f"head.up{k}.conv.b", np.zeros(ch))))
                self.head_bns.append((p(f"head.up{k}.bn.gamma", np.ones(ch)),
                                      p(f"head.up{k}.bn.beta", np.zeros(ch))))
                self.store.buffers[f"head.up{k}.bn.running_mean"] = np.zeros(ch)
                self.store.buffers[f"head.up{k}.bn.running_var"] = np.ones(ch)
        self.out_w = p("head.out.w", trunc_normal(rng, (1, ch)))
        self.out_b = p("head.out.b", np.zeros(1))

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        return self.store.params

    def named_arrays(self) -> dict[str, np.ndarray]:
        """All state needed to reconstruct the model: weights plus buffers."""
        out = {name: t.data for name, t in self.store.params.items()}
        out.update(self.store.buffers)
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy named arrays into the parameters and buffers, cast to their dtypes.

        The names must be exactly those of ``named_arrays()``. Every array
        must be finite once cast: a float64 value beyond the float32 range
        would become inf in a float32 parameter.
        """
        dests = self.named_arrays()
        for kind, names in (("missing", dests.keys() - arrays.keys()),
                            ("unexpected", arrays.keys() - dests.keys())):
            if names:
                raise ConfigurationError(
                    f"checkpoint has {len(names)} {kind} array(s), first {min(names)}")
        for name, dest in dests.items():
            _copy_checked(name, arrays[name], dest)

    # -- forward ------------------------------------------------------------

    def _tokens(self, x: Tensor) -> Tensor:
        n, c, t, h, w = x.shape
        return T.reshape(T.transpose(x, (0, 2, 3, 4, 1)), (n, t * h * w, c))

    def _grid(self, x: Tensor, grid, channels) -> Tensor:
        n = x.shape[0]
        t, h, w = grid
        return T.transpose(T.reshape(x, (n, t, h, w, channels)), (0, 4, 1, 2, 3))

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        cfg = self.cfg
        t_in, h_in, w_in = cfg.input_dims
        if x.ndim != 5 or x.shape[1:] != (3, t_in, h_in, w_in):
            raise DimensionError(
                f"input {x.shape} does not match configured dims (N, 3, {t_in}, {h_in}, {w_in})")

        def section(name, fn, *args, **kw):
            try:
                return fn(*args, **kw)
            except (DimensionError, ConfigurationError) as e:
                raise type(e)(f"{name}: {e}") from e

        g = section("patchify_stem", nn_ops.conv3d, x, self.stem_w, self.stem_b,
                    stride=STEM_STRIDE, pad=STEM_PAD)
        if self.abs_table is not None:
            g = section("pos_encoding", T.add_embedding, g, self.abs_table)
        elif self.cpe_w is not None:
            g = section("pos_encoding", lambda: T.add(g, nn_ops.depthwise_conv3d(g, self.cpe_w)))

        for i in range(4):
            ch = self.channels[i]
            if self.stages[i]:
                tok = self._tokens(g)
                for j, blk in enumerate(self.stages[i]):
                    tok = section(f"stage{i + 1}.block{j}", blk, tok, self.rel[i])
                g = self._grid(tok, self.grids[i], ch)
            if i < 3:
                temporal = i in TEMPORAL_SCHEDULE[cfg.scaling]
                g = section(f"transition{i + 1}", nn_ops.conv3d, g,
                            self.trans_w[i], self.trans_b[i],
                            stride=(2 if temporal else 1, 2, 2), pad=(1, 1, 1))

        if cfg.output_format == "HR":
            pooled = T.mean(g, axes=(2, 3, 4))
            out = T.linear(pooled, self.out_w, self.out_b)
            return T.reshape(out, (x.shape[0],))

        for k in range(len(self.head_convs)):
            g = section(f"head.up{k}", self._upsample_module, g, k, training)
        g = T.mean(g, axes=(3, 4))                       # (N, C, T)
        g = T.transpose(g, (0, 2, 1))                    # (N, T, C)
        out = T.linear(g, self.out_w, self.out_b)        # (N, T, 1)
        return T.reshape(out, (x.shape[0], t_in))

    def _upsample_module(self, g: Tensor, k: int, training: bool) -> Tensor:
        g = nn_ops.nearest_upsample3d(g)
        w, b = self.head_convs[k]
        g = nn_ops.conv3d(g, w, b, stride=(1, 1, 1), pad=(1, 0, 0))
        gamma, beta = self.head_bns[k]
        buf = self.store.buffers
        g = nn_ops.batchnorm3d(g, gamma, beta, buf[f"head.up{k}.bn.running_mean"],
                               buf[f"head.up{k}.bn.running_var"], training=training)
        return T.elu(g)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward pass of one (C, T, H, W) window inside nn_ops.one_blas_thread."""
        with nn_ops.one_blas_thread():
            return self.forward(Tensor(x[None])).data[0]
