"""Adapter-pruning experiment plans and their parameter budgets.

Pruning always removes a contiguous block of layers starting at the first
layer of each module. The uniform plan strips encoder and decoder in
lockstep (one experiment per depth); the grid plan crosses all removals of
the last-half levels of the encoder with those of the decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .adapters import AdapterSet, ModelDims, REFERENCE_DIMS, count_adapter_params
from .errors import InputError


@dataclass(frozen=True)
class AblationConfig:
    """Layers to strip: contiguous ranges anchored at each module's first
    layer (either may be empty)."""

    removed_encoder: tuple[int, ...]
    removed_decoder: tuple[int, ...]
    label: str

    @classmethod
    def make(cls, removed_encoder: range, removed_decoder: range) -> "AblationConfig":
        def fmt(r: range) -> str:
            return f"{r.start}-{r.stop - 1}" if len(r) else "-"

        return cls(
            removed_encoder=tuple(removed_encoder),
            removed_decoder=tuple(removed_decoder),
            label=f"({fmt(removed_encoder)}, {fmt(removed_decoder)})",
        )


def uniform_ablation_plan(dims: ModelDims = REFERENCE_DIMS) -> list[AblationConfig]:
    """Remove encoder layers 0..k and decoder layers in lockstep for every
    depth k; the last entry strips every adapter."""
    if dims.n_encoder_layers != dims.n_decoder_layers:
        raise InputError(
            "uniform ablation needs matching encoder/decoder layer counts, got "
            f"{dims.n_encoder_layers} and {dims.n_decoder_layers}"
        )
    first_dec = dims.first_decoder_layer
    return [
        AblationConfig.make(range(0, k + 1), range(first_dec, first_dec + k + 1))
        for k in range(dims.n_encoder_layers)
    ]


def grid_ablation_plan(dims: ModelDims = REFERENCE_DIMS) -> list[AblationConfig]:
    """Cross every last-half encoder removal with every last-half decoder
    removal, row-major: the decoder removal is held fixed while the encoder
    removal deepens, starting from the shallowest pair."""
    first_dec = dims.first_decoder_layer
    encoder_ends = range(dims.n_encoder_layers // 2, dims.n_encoder_layers)
    decoder_ends = range(first_dec + dims.n_decoder_layers // 2,
                         first_dec + dims.n_decoder_layers)
    return [
        AblationConfig.make(range(0, q + 1), range(first_dec, s + 1))
        for s in decoder_ends
        for q in encoder_ends
    ]


def apply_ablation(adapter_set: AdapterSet, config: AblationConfig) -> AdapterSet:
    """Drop the removed layers from the set; idempotent."""
    return adapter_set - AdapterSet.of(config.removed_encoder, config.removed_decoder)


def cost_plan(plan: list[AblationConfig], dims: ModelDims = REFERENCE_DIMS) -> list[dict]:
    """Attach (trainable count, percent) to each config, as manifest rows."""
    rows = []
    for config in plan:
        remaining = apply_ablation(AdapterSet.full(dims), config)
        count, percent = count_adapter_params(dims, remaining)
        rows.append(
            {
                "label": config.label,
                "removed_encoder": list(config.removed_encoder),
                "removed_decoder": list(config.removed_decoder),
                "trainable": count,
                "percent": percent,
            }
        )
    return rows


def manifest_lines(rows: list[dict]) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)
