"""Exact trainable-parameter accounting for bottleneck adapters.

An adapter (``toymodel.AdapterModule``) is a residual two-layer
bottleneck: down-project the model width d to a narrow b, apply a
rectifier, project back up, add the input. One adapter holds
2*d*b + b + d parameters; a transformer layer carries two of them (after
the attention block and after the feed-forward block), so accounting
reduces to counting active layers.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from .errors import InputError, SchemaError, check_int

# Layers per stack (encoder or decoder) at most. Layer sets and plans grow
# with the count: the grid manifest is 4.0 MB at 128 a side, 31.5 MB at 256.
MAX_STACK_LAYERS = 128


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
        for name in ("d_model", "bottleneck", "adapters_per_layer"):
            check_int(name, getattr(self, name))
        for name in ("n_encoder_layers", "n_decoder_layers"):
            check_int(name, getattr(self, name), at_most=MAX_STACK_LAYERS)
        check_int("base_total_params", self.base_total_params, allow_zero=True)

    @property
    def params_per_adapter(self) -> int:
        return adapter_params(self.d_model, self.bottleneck)

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
    def from_json_dict(cls, obj: object) -> "ModelDims":
        if not isinstance(obj, dict):
            raise SchemaError("dims config must be a JSON object")
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

    def __sub__(self, other: "AdapterSet") -> "AdapterSet":
        return AdapterSet(self.encoder_layers - other.encoder_layers,
                          self.decoder_layers - other.decoder_layers)


def adapter_params(d_model: int, bottleneck: int) -> int:
    """The scalars of one adapter: 2*d*b + b + d, from its sizes alone."""
    return 2 * d_model * bottleneck + bottleneck + d_model


def percent_of_base(count: int, base: int) -> float:
    """100 * count / base rounded to 2 decimals, or 0.0 with no base."""
    return round(100.0 * count / base, 2) if base > 0 else 0.0


def count_adapter_params(dims: ModelDims, adapter_set: AdapterSet) -> tuple[int, float]:
    """Exact trainable-parameter count and its ``percent_of_base`` of
    ``base_total_params``.

    count = active layers * adapters per layer * (2*d*b + b + d).
    """
    adapter_set.check(dims)
    count = adapter_set.n_active_layers * dims.params_per_layer
    return count, percent_of_base(count, dims.base_total_params)

