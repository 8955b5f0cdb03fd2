"""Reference implementation of the gradient audit, for differential tests.

``grad_check_per_scalar`` is the simple audit that the batched
``adapterqa.toymodel.grad_check`` replaces: two full forwards per trainable
scalar, each from the prefix of the scalar's own layer, one scalar at a
time. Every floating-point step is the same as the batched path's, so the
two reports must agree exactly, never approximately.
"""

from __future__ import annotations

import math

from adapterqa.toymodel import GradCheckReport, ToyModel


def grad_check_per_scalar(model: ToyModel, source_ids, target_ids,
                          eps: float = 1e-5) -> GradCheckReport:
    model.forward_backward(source_ids, target_ids)
    analytic = {p.name: p.grad for p in model.trainable_parameters()}
    per_parameter: dict[str, float] = {}
    worst_name = ""
    worst_err = 0.0
    n_checked = 0
    for index, layer in enumerate([*model.encoder, *model.decoder]):
        params = [p for p in layer.parameters() if p.trainable]
        if not params:
            continue
        prefix = model.prefix(source_ids, target_ids, index)
        for param in params:
            flat = param.value.reshape(-1)
            flat_analytic = analytic[param.name].reshape(-1)
            param_err = 0.0
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                loss_plus, _ = model.forward(source_ids, target_ids, prefix)
                flat[i] = original - eps
                loss_minus, _ = model.forward(source_ids, target_ids, prefix)
                flat[i] = original
                numeric = (loss_plus - loss_minus) / (2.0 * eps)
                a = flat_analytic[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
                # A NaN error fails the audit: once seen, the tensor reports NaN.
                if math.isnan(err) or err > param_err:
                    param_err = err
                n_checked += 1
            per_parameter[param.name] = param_err
            # The first NaN tensor is the worst; before one, the last largest.
            if not math.isnan(worst_err) and (math.isnan(param_err) or param_err >= worst_err):
                worst_err = param_err
                worst_name = param.name
    return GradCheckReport(
        max_rel_error=worst_err,
        worst_parameter=worst_name,
        n_params_checked=n_checked,
        eps=eps,
        per_parameter=per_parameter,
    )
