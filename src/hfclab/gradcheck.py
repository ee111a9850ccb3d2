"""Finite-difference verification suite.

Checks every registered tensor op, both attention blocks, and every training
loss (gradient taken with respect to every model parameter) on a fixed micro
model with 8-wide embeddings, 2 heads, one block of each kind, 4 patches and
3 classes. Reweighting statistics are computed once at the base point and held
constant, matching their stop-gradient semantics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses as LS
from .autodiff import Tensor
from .model import (AggregationBlock, IncrementalModel, ModelConfig, SelfAttentionBlock,
                    _block_specs, draw_parameters)

MICRO_CONFIG = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=8,
                           heads=2, msa_blocks=1, tsa_blocks=1)
MICRO_CLASSES = 3
PARAM_FLOOR = 1e-6  # scaled by max(1, |loss|) in max_param_rel_err


@dataclass
class CheckResult:
    name: str
    rel_err: float


def _op_cases(rng: np.random.Generator) -> list[tuple[str, Callable, np.ndarray]]:
    # selector constants are drawn once; the closures must be pure in t
    add_sel = ad.constant(rng.normal(size=(3, 2)))
    concat_sel = ad.constant(rng.normal(size=(6, 2)))
    softmax_sel = ad.constant(rng.normal(size=(2, 4)))
    ln_sel = ad.constant(rng.normal(size=(2, 4)))
    ln_gain = ad.constant(np.ones(4))
    ln_bias = ad.constant(np.zeros(4))
    # cases added later draw from their own generators, so the others keep their inputs
    own = np.random.default_rng
    tile_sel = ad.constant(own(106).normal(size=(6, 3)))
    affine_sel = ad.constant(own(108).normal(size=(3, 3)))
    return [
        ("op.add", lambda t: ad.sum_(ad.mul(ad.add(t, add_sel), t)),
         rng.normal(size=(3, 2))),
        ("op.mul", lambda t: ad.sum_(ad.mul(t, ad.mul(t, t))), rng.normal(size=(2, 3))),
        ("op.div", lambda t: ad.sum_(ad.div(ad.constant(np.ones((2, 2))),
                                            ad.add_const(ad.mul(t, t), 1.0))),
         rng.normal(size=(2, 2))),
        ("op.scale", lambda t: ad.sum_(ad.scale(ad.mul(t, t), -1.5)), rng.normal(size=4)),
        ("op.add_const", lambda t: ad.sum_(ad.mul(ad.add_const(t, 0.7), t)),
         own(105).normal(size=(3, 2))),
        ("op.log", lambda t: ad.sum_(ad.log(ad.add_const(ad.mul(t, t), 0.5))),
         rng.normal(size=5)),
        ("op.exp", lambda t: ad.sum_(ad.exp(t)), rng.normal(size=4)),
        ("op.power", lambda t: ad.sum_(ad.power(ad.add_const(ad.mul(t, t), 0.3), 0.7)),
         rng.normal(size=4)),
        ("op.gelu", lambda t: ad.sum_(ad.gelu(t)), rng.normal(size=6)),
        ("op.concat", lambda t: ad.sum_(ad.mul(ad.concat([t, ad.scale(t, 2.0)], axis=0),
                                               concat_sel)),
         rng.normal(size=(3, 2))),
        ("op.split", lambda t: ad.sum_(ad.mul(*ad.split(t, [2, 2], axis=1))),
         rng.normal(size=(3, 4))),
        ("op.transpose", lambda t: ad.sum_(ad.matmul(ad.transpose(t), t)),
         rng.normal(size=(3, 2))),
        ("op.reshape", lambda t: ad.sum_(ad.matmul(ad.reshape(t, (2, 3)),
                                                   ad.reshape(t, (3, 2)))),
         rng.normal(size=6)),
        ("op.tile_rows", lambda t: ad.sum_(ad.mul(ad.tile_rows(t, 3), tile_sel)),
         own(107).normal(size=(2, 3))),
        ("op.matmul", lambda t: ad.sum_(ad.matmul(t, ad.mul(t, t))), rng.normal(size=(3, 3))),
        # t feeds the input, the weight, (through a column sum) the bias and the skip of an
        # inner product, and the input, weight and skip of a bias-free outer one
        ("op.matmul_addends", lambda t: ad.sum_(ad.mul(
            ad.matmul(t, t, skip=ad.matmul(t, t, ad.sum_(t, axis=0), skip=t)), affine_sel)),
         own(109).normal(size=(3, 3))),
        ("op.sum", lambda t: ad.sum_(ad.exp(ad.sum_(t, axis=0))), rng.normal(size=(3, 2))),
        ("op.mean", lambda t: ad.mean(ad.mul(t, t)), rng.normal(size=(3, 4))),
        ("op.softmax", lambda t: ad.sum_(ad.mul(ad.softmax(t, axis=1), softmax_sel)),
         rng.normal(size=(2, 4))),
        ("op.layer_norm", lambda t: ad.sum_(ad.mul(ad.layer_norm(t, ln_gain, ln_bias),
                                                   ln_sel)),
         rng.normal(size=(2, 4))),
        ("op.attention", _attention_case(rng), rng.normal(size=(4, 3))),
        ("op.attention_heads", _attention_case(own(103), heads=2), own(104).normal(size=(4, 6))),
    ]


def _attention_case(rng: np.random.Generator, heads: int = 1) -> Callable:
    """Gradient wrt q of batch-2 attention with head width 3."""
    width = 3 * heads
    k0 = ad.constant(rng.normal(size=(6, width)))
    v0 = ad.constant(rng.normal(size=(6, width)))
    sel = ad.constant(rng.normal(size=(4, width)))

    return lambda t: ad.sum_(ad.mul(ad.attention(t, k0, v0, batch=2, heads=heads), sel))


def _block_cases(rng: np.random.Generator) -> list[tuple[str, Callable, np.ndarray]]:
    msa = SelfAttentionBlock(MICRO_CONFIG, draw_parameters(
        _block_specs(MICRO_CONFIG, "msa"), np.random.default_rng(101)))
    tsa = AggregationBlock(MICRO_CONFIG, draw_parameters(
        _block_specs(MICRO_CONFIG, "tsa"), np.random.default_rng(102)))
    sel_seq = ad.constant(rng.normal(size=(3, 8)))
    sel_row = ad.constant(rng.normal(size=(1, 8)))
    z_fixed = ad.constant(rng.normal(size=(5, 8)))
    e_fixed = ad.constant(rng.normal(size=(1, 8)))
    return [
        ("block.msa", lambda t: ad.sum_(ad.mul(msa.forward_rows(t, 1), sel_seq)),
         rng.normal(size=(3, 8))),
        ("block.tsa_query", lambda t: ad.sum_(ad.mul(tsa.forward_rows(t, z_fixed, 1), sel_row)),
         rng.normal(size=(1, 8))),
        ("block.tsa_context", lambda t: ad.sum_(ad.mul(tsa.forward_rows(e_fixed, t, 1), sel_row)),
         rng.normal(size=(5, 8))),
    ]


def max_param_rel_err(loss_fn: Callable[[], Tensor], params: dict[str, Tensor]) -> float:
    """Central differences over every coordinate of every parameter tensor.

    The denominator floor reflects what central differences can resolve: the
    cancellation noise is about eps * |f| / FD_STEP per estimate, so the floor
    scales with the loss magnitude and coordinates whose gradients sit below
    it are compared absolutely at that resolution rather than relatively.
    """
    for p in params.values():
        p.zero_grad()
    loss0 = loss_fn()
    ad.backward(loss0)
    floor = PARAM_FLOOR * max(1.0, abs(loss0.item()))
    grads = {name: p.grad.copy() for name, p in params.items()}
    # p.data.reshape(-1) is a view, so bumping it perturbs the live parameter;
    # np.max, unlike max(), keeps a NaN error so the check fails
    return float(np.max([ad._central_difference_error(lambda: loss_fn().item(),
                                                      p.data.reshape(-1),
                                                      grads[name].reshape(-1), floor)
                         for name, p in params.items()]))


def _micro_setup():
    """Live 3-class model mid-stream: 2 old classes plus 1 new, frozen teacher."""
    rng = np.random.default_rng(1234)
    model = IncrementalModel(MICRO_CONFIG, MICRO_CLASSES, np.random.default_rng(7))
    teacher = IncrementalModel(MICRO_CONFIG, 2, np.random.default_rng(8))
    images = rng.uniform(size=(3, 1, 8, 8))
    labels = np.array([0, 1, 2])
    class_to_task = np.array([0, 0, 1])
    old_probs = np.stack([teacher.predict(img) for img in images])
    return model, images, labels, class_to_task, old_probs


def _loss_cases() -> list[tuple[str, Callable[[], Tensor], dict[str, Tensor]]]:
    model, images, labels, class_to_task, old_probs = _micro_setup()
    params = model.parameters()

    def fresh_batch() -> LS.BatchView:
        logits, _ = model.forward_batch(images)
        probs = ad.softmax(logits, axis=1)
        return LS.BatchView(probs, labels, class_to_task, 2, 1, old_probs)

    base = fresh_batch()
    sharp0 = LS.gradient_stats(base)
    targets0 = LS.relation_groundtruth(base)

    def ce_fn():
        return LS.ce_loss(fresh_batch())

    def gfc_fn():
        return LS.gfc_loss(fresh_batch(), sharp0)

    def grd_fn():
        batch = fresh_batch()
        protos, refs = LS.relation_prototypes(batch, targets0)
        return LS.grd_loss(batch, sharp0, protos, refs)

    def objective_fn():
        return LS.objective(fresh_batch(), sharp0, 1.0, 1.0)

    return [
        ("loss.ce", ce_fn, params),
        ("loss.gfc", gfc_fn, params),
        ("loss.grd", grd_fn, params),
        ("loss.objective", objective_fn, params),
    ]


def run_all_checks() -> list[CheckResult]:
    rng = np.random.default_rng(2024)
    results: list[CheckResult] = []
    for name, fn, x in _op_cases(rng) + _block_cases(rng):
        results.append(CheckResult(name, ad.finite_diff_check(fn, x)))
    for name, loss_fn, params in _loss_cases():
        results.append(CheckResult(name, max_param_rel_err(loss_fn, params)))
    return results
