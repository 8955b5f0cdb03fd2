"""Bottleneck adapter blocks and exact trainable-parameter accounting.

An adapter is a residual two-layer bottleneck: down-project the model
width d to a narrow b, apply a rectifier, project back up, add the input.
One adapter holds 2*d*b + b + d parameters; a transformer layer carries
two of them (after the attention block and after the feed-forward block),
so accounting reduces to counting active layers.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import InputError, check_int


class DimensionMismatch(InputError):
    """Adapter parameters do not agree with the input width."""


@dataclass(frozen=True)
class ModelDims:
    """Widths and layer counts an adapter configuration is counted against."""

    d_model: int
    bottleneck: int
    n_encoder_layers: int
    n_decoder_layers: int
    adapters_per_layer: int = 2
    base_total_params: int = 0

    def __post_init__(self):
        for name in ("d_model", "bottleneck", "n_encoder_layers", "n_decoder_layers", "adapters_per_layer"):
            check_int(name, getattr(self, name))
        check_int("base_total_params", self.base_total_params, allow_zero=True)

    @property
    def params_per_adapter(self) -> int:
        return 2 * self.d_model * self.bottleneck + self.bottleneck + self.d_model

    @property
    def params_per_layer(self) -> int:
        return self.adapters_per_layer * self.params_per_adapter

    @property
    def n_layers(self) -> int:
        return self.n_encoder_layers + self.n_decoder_layers

    @property
    def first_decoder_layer(self) -> int:
        """Decoder layers continue the encoder numbering (12.. in the
        reference configuration)."""
        return self.n_encoder_layers

    def encoder_layer_indices(self) -> range:
        return range(0, self.n_encoder_layers)

    def decoder_layer_indices(self) -> range:
        return range(self.first_decoder_layer, self.first_decoder_layer + self.n_decoder_layers)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelDims":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown dims keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
        if missing:
            raise InputError(f"missing dims keys: {missing}")
        return cls(**obj)


# Full-scale reference configuration: width 1024, bottleneck 64, 12+12
# layers, 2 adapters per layer, 406,291,456 base parameters.
REFERENCE_DIMS = ModelDims(
    d_model=1024,
    bottleneck=64,
    n_encoder_layers=12,
    n_decoder_layers=12,
    adapters_per_layer=2,
    base_total_params=406_291_456,
)


@dataclass(frozen=True)
class AdapterSet:
    """Which layers carry adapters, by absolute layer index.

    Encoder layers are numbered 0..n_enc-1 and decoder layers continue at
    n_enc (12..23 in the reference configuration).
    """

    encoder_layers: frozenset[int]
    decoder_layers: frozenset[int]

    @classmethod
    def of(cls, encoder_layers=(), decoder_layers=()) -> "AdapterSet":
        return cls(frozenset(encoder_layers), frozenset(decoder_layers))

    @classmethod
    def full(cls, dims: ModelDims) -> "AdapterSet":
        return cls(
            frozenset(dims.encoder_layer_indices()),
            frozenset(dims.decoder_layer_indices()),
        )

    @classmethod
    def empty(cls) -> "AdapterSet":
        return cls(frozenset(), frozenset())

    def check(self, dims: ModelDims) -> "AdapterSet":
        bad_enc = self.encoder_layers - set(dims.encoder_layer_indices())
        if bad_enc:
            raise InputError(f"encoder layer indices out of range: {sorted(bad_enc)}")
        bad_dec = self.decoder_layers - set(dims.decoder_layer_indices())
        if bad_dec:
            raise InputError(f"decoder layer indices out of range: {sorted(bad_dec)}")
        return self

    @property
    def n_active_layers(self) -> int:
        return len(self.encoder_layers) + len(self.decoder_layers)


def count_adapter_params(dims: ModelDims, adapter_set: AdapterSet) -> tuple[int, float]:
    """Exact trainable-parameter count and percentage of the base model.

    count = active layers * adapters per layer * (2*d*b + b + d); the
    percentage is 100 * count / base_total_params rounded to 2 decimals.
    """
    adapter_set.check(dims)
    count = adapter_set.n_active_layers * dims.params_per_layer
    if dims.base_total_params > 0:
        percent = round(100.0 * count / dims.base_total_params, 2)
    else:
        percent = 0.0
    return count, percent


@dataclass
class AdapterParams:
    """Weights of one bottleneck adapter: w_down (d, b), b_down (b,),
    w_up (b, d), b_up (d,).

    A tensor may carry leading axes that stack copies of it, one per copy
    of the adapter (``toymodel.grad_check`` stacks perturbed copies this
    way); they broadcast against the batch axes of the input.
    """

    w_down: np.ndarray
    b_down: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray

    def __post_init__(self):
        d, b = self.w_down.shape[-2:]
        if (self.b_down.shape[-1:] != (b,) or self.w_up.shape[-2:] != (b, d)
                or self.b_up.shape[-1:] != (d,)):
            raise DimensionMismatch(
                f"inconsistent adapter shapes: w_down {self.w_down.shape}, "
                f"b_down {self.b_down.shape}, w_up {self.w_up.shape}, b_up {self.b_up.shape}"
            )

    @property
    def d_model(self) -> int:
        return self.w_down.shape[-2]

    @property
    def bottleneck(self) -> int:
        return self.w_down.shape[-1]

    @property
    def n_params(self) -> int:
        return self.w_down.size + self.b_down.size + self.w_up.size + self.b_up.size

    @classmethod
    def near_identity(cls, d: int, b: int, rng: np.random.Generator, dtype=np.float64) -> "AdapterParams":
        """Random down-projection, zero up-projection: the adapter starts as
        an exact identity map."""
        return cls(
            w_down=(rng.standard_normal((d, b)) / np.sqrt(d)).astype(dtype),
            b_down=np.zeros(b, dtype=dtype),
            w_up=np.zeros((b, d), dtype=dtype),
            b_up=np.zeros(d, dtype=dtype),
        )


def adapter_forward(x: np.ndarray, params: AdapterParams) -> np.ndarray:
    """Residual bottleneck map: x + (relu(x @ w_down + b_down) @ w_up + b_up).

    Accepts a single vector of width d or any batch shaped (..., d).
    """
    return adapter_activations(x, params)[0]


def adapter_activations(x: np.ndarray, params: AdapterParams) -> tuple[np.ndarray, np.ndarray]:
    """The adapter output together with its rectified bottleneck
    activation, which a hand-written backward pass needs."""
    x = np.asarray(x)
    if x.shape[-1] != params.d_model:
        raise DimensionMismatch(
            f"input width {x.shape[-1]} does not match adapter width {params.d_model}"
        )
    hidden = np.maximum(x @ params.w_down + params.b_down, 0.0)
    return x + (hidden @ params.w_up + params.b_up), hidden
