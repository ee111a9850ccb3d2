"""Tests for the incremental network: embeddings, attention blocks, classifier growth."""
import collections
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfclab import autodiff as ad
from hfclab import losses as LS
from hfclab.model import (
    AggregationBlock,
    IncrementalModel,
    ModelConfig,
    SelfAttentionBlock,
    _block_specs,
    draw_parameters,
    image_to_patches,
    load_checkpoint,
)

MICRO = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=8, heads=2,
                    msa_blocks=1, tsa_blocks=1)


def make_model(n_classes=3, cfg=MICRO, seed=0):
    return IncrementalModel(cfg, n_classes, np.random.default_rng(seed))


def make_block(block_class, seed):
    kind = "msa" if block_class is SelfAttentionBlock else "tsa"
    return block_class(MICRO, draw_parameters(_block_specs(MICRO, kind),
                                              np.random.default_rng(seed)))


def rand_image(cfg, seed=0):
    return np.random.default_rng(seed).uniform(size=(cfg.channels, cfg.image_side, cfg.image_side))


def record_probabilities(monkeypatch) -> list[np.ndarray]:
    """Make ad.attention also record its probabilities as (batch, heads, m, n):
    the op applied to the same q and k with identity blocks as v returns them
    bit for bit."""
    recorded = []
    attention = ad.attention

    def recording_attention(q, k, v, batch, heads=1):
        m, n = q.shape[0] // batch, k.shape[0] // batch
        eye = ad.constant(np.tile(np.eye(n), (batch, heads)))
        probs = attention(q, k, eye, batch, heads).data
        recorded.append(probs.reshape(batch, m, heads, n).transpose(0, 2, 1, 3))
        return attention(q, k, v, batch, heads)

    monkeypatch.setattr(ad, "attention", recording_attention)
    return recorded


# ---------------------------------------------------------------------------
# config and patch embedding


def test_config_rejects_indivisible_dims():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(image_side=15, patch_side=4)


def test_patch_count_from_config():
    cfg = ModelConfig(image_side=16, patch_side=4)
    assert cfg.n_patches == 16
    model = IncrementalModel(cfg, 2, np.random.default_rng(0))
    z0 = model._embed_batch(rand_image(cfg)[np.newaxis])
    assert z0.shape == (17, cfg.embed_dim)


def test_zero_image_embedding_is_cls_plus_position():
    cfg = MICRO
    model = make_model(cfg=cfg)
    model.params["patch_bias"].data[:] = 0.0
    z0 = model._embed_batch(np.zeros((1, cfg.channels, cfg.image_side, cfg.image_side)))
    expected = np.vstack([np.zeros((cfg.n_patches, cfg.embed_dim)),
                          model.params["cls_token"].data])
    expected = expected + model.params["pos_token"].data
    np.testing.assert_array_equal(z0.data, expected)


def test_identical_patches_embed_identically_before_position():
    cfg = MICRO
    model = make_model(cfg=cfg)
    image = np.tile(np.arange(16.0).reshape(1, 4, 4), (1, 2, 2)) / 16.0
    patches = image_to_patches(image[np.newaxis], cfg.patch_side)
    assert np.all(patches == patches[0])
    projected = patches @ model.params["patch_proj"].data + model.params["patch_bias"].data
    assert np.all(projected == projected[0])


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("channels", [1, 3])
def test_batched_patches_equal_per_image_patches_in_order(b, channels):
    images = np.random.default_rng(62).uniform(size=(b, channels, 8, 8))
    batched = image_to_patches(images, 4)
    per_image = np.concatenate([image_to_patches(img[np.newaxis], 4) for img in images])
    assert np.array_equal(batched, per_image)
    # raster order within each image, each patch flattened channel-first
    sliced = [img[:, r:r + 4, c:c + 4].reshape(-1)
              for img in images for r in (0, 4) for c in (0, 4)]
    assert np.array_equal(batched, np.stack(sliced))


@pytest.mark.parametrize("shape", [(2, 1, 8, 4), (2, 1, 6, 6)])
def test_patches_reject_non_square_or_non_divisible_images(shape):
    with pytest.raises(ValueError, match="incompatible with patch side 4"):
        image_to_patches(np.zeros(shape), 4)


def test_embed_rejects_wrong_extent():
    model = make_model()
    with pytest.raises(ValueError):
        model._embed_batch(np.zeros((1, 1, 12, 12)))


# ---------------------------------------------------------------------------
# self-attention block


def test_msa_attention_rows_sum_to_one(monkeypatch):
    recorded = record_probabilities(monkeypatch)
    block = make_block(SelfAttentionBlock, 3)
    z = ad.constant(np.random.default_rng(4).normal(size=(5, 8)))
    block.forward_rows(z, 1)
    [probs] = recorded
    for attn in probs[0]:
        np.testing.assert_allclose(attn.sum(axis=1), np.ones(5), atol=1e-12)


def test_msa_is_identity_when_output_weights_zero():
    block = make_block(SelfAttentionBlock, 5)
    block.p["w_o"].data[:] = 0.0
    block.p["mlp.w2"].data[:] = 0.0
    block.p["mlp.b2"].data[:] = 0.0
    z = np.random.default_rng(6).normal(size=(5, 8))
    out = block.forward_rows(ad.constant(z), 1)
    np.testing.assert_array_equal(out.data, z)


def test_msa_block_gradient_wrt_input():
    block = make_block(SelfAttentionBlock, 7)
    sel = ad.constant(np.random.default_rng(8).normal(size=(3, 8)))

    def f(t):
        return ad.sum_(ad.mul(block.forward_rows(t, 1), sel))

    err = ad.finite_diff_check(f, np.random.default_rng(9).normal(size=(3, 8)))
    assert err < 1e-5


@pytest.mark.parametrize("block_class, census", [
    (SelfAttentionBlock, {"matmul": 6, "layer_norm": 2, "scale": 1, "attention": 1, "gelu": 1}),
    (AggregationBlock, {"matmul": 6, "layer_norm": 3, "scale": 1, "attention": 1, "gelu": 1}),
], ids=["msa", "tsa"])
def test_one_block_forward_records_exactly_its_op_nodes(block_class, census):
    # q/k/v/output projections and both MLP maps are one matmul each; the norms
    # before them, the q scale, one attention and one gelu are the rest
    block = make_block(block_class, 19)
    rng = np.random.default_rng(20)
    z = ad.constant(rng.normal(size=(10, 8)))
    if block_class is SelfAttentionBlock:
        out = block.forward_rows(z, 2)
    else:
        out = block.forward_rows(ad.constant(rng.normal(size=(2, 8))), z, 2)
    recorded = collections.Counter(node.op for node in ad._topo_order(out) if node._parents)
    assert recorded == census


# ---------------------------------------------------------------------------
# aggregation block


@pytest.mark.parametrize("n_rows", [5, 17, 65])
def test_tsa_output_width_independent_of_sequence_length(n_rows):
    block = make_block(AggregationBlock, 10)
    e = ad.constant(np.random.default_rng(11).normal(size=(1, 8)))
    z = ad.constant(np.random.default_rng(12).normal(size=(n_rows, 8)))
    assert block.forward_rows(e, z, 1).shape == (1, 8)


def test_tsa_uniform_attention_over_identical_rows(monkeypatch):
    recorded = record_probabilities(monkeypatch)
    block = make_block(AggregationBlock, 13)
    row = np.random.default_rng(14).normal(size=8)
    z = ad.constant(np.tile(row, (6, 1)))
    e1 = ad.constant(np.random.default_rng(15).normal(size=(1, 8)))
    e2 = ad.constant(np.random.default_rng(16).normal(size=(1, 8)))
    out1 = block.forward_rows(e1, z, 1)
    [probs] = recorded
    for attn in probs[0]:
        np.testing.assert_allclose(attn, np.full((1, 6), 1 / 6), atol=1e-12)
    out2 = block.forward_rows(e2, z, 1)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_tsa_block_gradient_wrt_query_and_context():
    block = make_block(AggregationBlock, 17)
    rng = np.random.default_rng(18)
    z0 = rng.normal(size=(5, 8))
    e0 = rng.normal(size=(1, 8))
    sel = ad.constant(rng.normal(size=(1, 8)))

    err_e = ad.finite_diff_check(
        lambda t: ad.sum_(ad.mul(block.forward_rows(t, ad.constant(z0), 1), sel)), e0)
    err_z = ad.finite_diff_check(
        lambda t: ad.sum_(ad.mul(block.forward_rows(ad.constant(e0), t, 1), sel)), z0)
    assert err_e < 1e-5 and err_z < 1e-5


# ---------------------------------------------------------------------------
# full forward


def test_forward_logits_cover_all_classes():
    model = make_model(n_classes=3)
    logits, feature = model.forward_batch(rand_image(MICRO)[np.newaxis])
    assert logits.shape == (1, 3)
    assert feature.shape == (1, MICRO.embed_dim)
    model.expand_classifier(4, np.random.default_rng(1))
    logits2, _ = model.forward_batch(rand_image(MICRO)[np.newaxis])
    assert logits2.shape == (1, 7)


def test_forward_is_deterministic():
    model = make_model()
    image = rand_image(MICRO, seed=2)
    a, _ = model.forward_batch(image[np.newaxis])
    b, _ = model.forward_batch(image[np.newaxis])
    np.testing.assert_array_equal(a.data, b.data)


def test_feature_cls_head_width():
    cfg = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=8, heads=2,
                      msa_blocks=1, tsa_blocks=1, classifier_input="feature_cls")
    model = IncrementalModel(cfg, 2, np.random.default_rng(0))
    assert model.params["classifier.weight"].shape == (2, 16)
    logits, _ = model.forward_batch(rand_image(cfg)[np.newaxis])
    assert logits.shape == (1, 2)


def test_no_tsa_block_needs_the_class_token_in_the_head():
    # without an aggregation block the "feature" is the tiled task_embedding, so a
    # "feature" head would give every image the same logits
    with pytest.raises(ValueError, match='tsa_blocks 0 needs classifier_input "feature_cls"'):
        dataclasses.replace(MICRO, tsa_blocks=0)
    cfg = dataclasses.replace(MICRO, tsa_blocks=0, classifier_input="feature_cls")
    model = IncrementalModel(cfg, 2, np.random.default_rng(0))
    logits, _ = model.forward_batch(np.random.default_rng(1).uniform(size=(2, 1, 8, 8)))
    assert not np.array_equal(logits.data[0], logits.data[1])


def test_feature_cls_batch_rows_match_single_image_forward():
    cfg = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=8, heads=2,
                      msa_blocks=1, tsa_blocks=1, classifier_input="feature_cls")
    model = IncrementalModel(cfg, 3, np.random.default_rng(1))
    images = np.random.default_rng(2).uniform(size=(4, 1, 8, 8))
    logits, features = model.forward_batch(images)
    for i, image in enumerate(images):
        one_logits, one_feature = model.forward_batch(image[np.newaxis])
        np.testing.assert_allclose(logits.data[i], one_logits.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(features.data[i], one_feature.data[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("channels", [1, 3])
def test_byte_pixels_give_bit_for_bit_the_outputs_of_their_scaled_floats(b, channels):
    cfg = dataclasses.replace(MICRO, channels=channels)
    model = make_model(cfg=cfg)
    pixels = np.random.default_rng(10 * b + channels).integers(
        0, 256, size=(b, channels, cfg.image_side, cfg.image_side), dtype=np.uint8)
    pixels[0, 0, 0, :2] = (0, 255)
    scaled = pixels / 255.0
    for got, want in zip(model.forward_batch(pixels), model.forward_batch(scaled)):
        assert got.data.tobytes() == want.data.tobytes()
    for image, image_scaled in zip(pixels, scaled):
        assert model.predict(image).tobytes() == model.predict(image_scaled).tobytes()


def finite_diff_over_params(loss_fn, params, step=1e-5, tol_floor=1e-8):
    """Max relative error of recorded gradients vs central differences, per parameter."""
    for p in params.values():
        p.zero_grad()
    ad.backward(loss_fn())
    grads = {name: p.grad.copy() for name, p in params.items()}
    worst = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn().item()
            flat[i] = orig - step
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2 * step)
        analytic = grads[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), tol_floor)
        worst[name] = float(np.max(np.abs(analytic - numeric) / denom))
    return worst


def test_full_forward_gradient_micro_model():
    model = make_model(n_classes=3)
    image = rand_image(MICRO, seed=20)
    sel = ad.constant(np.random.default_rng(21).normal(size=(1, 3)))

    def loss_fn():
        logits, _ = model.forward_batch(image[np.newaxis])
        return ad.sum_(ad.mul(logits, sel))

    errs = finite_diff_over_params(loss_fn, model.parameters())
    bad = {k: v for k, v in errs.items() if v >= 1e-4}
    assert not bad, f"params over tolerance: {bad}"


def test_backward_releases_non_leaf_gradients_and_keeps_parameter_gradients():
    model = make_model(n_classes=3)
    images = np.random.default_rng(22).uniform(size=(3, 1, 8, 8))
    sel = ad.constant(np.random.default_rng(23).normal(size=(3, 3)))
    params = model.parameters()

    def loss_and_order():
        for p in params.values():
            p.zero_grad()
        loss = ad.sum_(ad.mul(ad.softmax(model.forward_batch(images)[0], axis=1), sel))
        return loss, ad._topo_order(loss)

    # reference: the reverse pass that keeps every gradient
    loss, order = loss_and_order()
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
    kept = {name: p.grad.copy() for name, p in params.items()}

    loss, order = loss_and_order()
    ad.backward(loss)
    inner = [node for node in order if node._backward is not None]
    assert inner and all(node._grad is None for node in inner)
    for name, p in params.items():
        assert p._grad is not None and np.array_equal(p.grad, kept[name]), name


def test_parameter_gradients_share_no_memory_with_each_other_or_any_parameter():
    # backward keeps closures' fresh arrays as gradients uncopied; none may alias
    cfg = ModelConfig(classifier_input="feature_cls")
    model = IncrementalModel(cfg, 3, np.random.default_rng(24))
    images = np.random.default_rng(25).uniform(size=(3, 1, cfg.image_side, cfg.image_side))
    sel = ad.constant(np.random.default_rng(26).normal(size=(3, 3)))
    ad.backward(ad.sum_(ad.mul(ad.softmax(model.forward_batch(images)[0], axis=1), sel)))
    params = model.parameters()
    assert all(p._grad is not None for p in params.values())
    for name, p in params.items():
        for other, q in params.items():
            assert not np.shares_memory(p._grad, q.data), (name, other)
            if other != name:
                assert not np.shares_memory(p._grad, q._grad), (name, other)


# ---------------------------------------------------------------------------
# classifier growth and snapshots


def test_expansion_preserves_old_logits_exactly():
    model = make_model(n_classes=3)
    image = rand_image(MICRO, seed=22)
    before, _ = model.forward_batch(image[np.newaxis])
    model.expand_classifier(2, np.random.default_rng(23))
    after, _ = model.forward_batch(image[np.newaxis])
    np.testing.assert_array_equal(before.data[0], after.data[0, :3])


def test_expansion_twice_matches_single_expansion_on_old_rows():
    m1 = make_model(n_classes=2, seed=31)
    m2 = make_model(n_classes=2, seed=31)
    m1.expand_classifier(5, np.random.default_rng(1))
    m1.expand_classifier(5, np.random.default_rng(2))
    m2.expand_classifier(10, np.random.default_rng(3))
    for name in ("classifier.weight", "classifier.bias"):
        np.testing.assert_array_equal(m1.params[name].data[:2], m2.params[name].data[:2])


def test_expansion_rejects_zero():
    with pytest.raises(ValueError):
        make_model().expand_classifier(0, np.random.default_rng(0))


def test_new_row_statistics():
    cfg = ModelConfig(image_side=8, channels=1, patch_side=4, embed_dim=32, heads=4,
                      msa_blocks=1, tsa_blocks=1)
    model = IncrementalModel(cfg, 2, np.random.default_rng(40))
    model.expand_classifier(5, np.random.default_rng(41))
    new_rows = model.params["classifier.weight"].data[2:]
    n = new_rows.size  # 5 * embed_dim draws from normal(0, 0.02)
    assert abs(new_rows.mean()) < 3 * 0.02 / np.sqrt(n)


def test_snapshot_is_immutable_under_further_training():
    model = make_model(n_classes=3)
    image = rand_image(MICRO, seed=24)
    frozen = model.snapshot()
    frozen_before = frozen.predict(image)
    for p in model.parameters().values():
        p.data += 0.05
    frozen_after = frozen.predict(image)
    np.testing.assert_array_equal(frozen_before, frozen_after)


def test_snapshot_covers_exactly_old_classes_and_rows_sum_to_one():
    model = make_model(n_classes=3)
    frozen = model.snapshot()
    model.expand_classifier(2, np.random.default_rng(25))
    probs = frozen.predict(rand_image(MICRO, seed=26))
    assert probs.shape == (3,)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_snapshot_holds_detached_copies_that_keep_their_shape():
    model = make_model(n_classes=3)
    ad.backward(ad.sum_(model.forward_batch(rand_image(MICRO, seed=27)[np.newaxis])[0]))
    live = model.parameters()
    assert all(t._grad is not None for t in live.values())
    frozen = model.snapshot()
    for name, tensor in frozen.parameters().items():
        assert not tensor.requires_grad and tensor._grad is None, name
        assert not np.shares_memory(tensor.data, live[name].data), name
        np.testing.assert_array_equal(tensor.data, live[name].data)
    model.expand_classifier(2, np.random.default_rng(28))
    assert frozen.n_classes == 3 and frozen.params["classifier.bias"].shape == (3,)
    assert frozen.params["classifier.weight"].shape == (3, MICRO.classifier_width)


def test_snapshot_refuses_expansion():
    frozen = make_model().snapshot()
    with pytest.raises(RuntimeError):
        frozen.expand_classifier(1, np.random.default_rng(0))


def test_checkpoint_roundtrip(tmp_path):
    model = make_model(n_classes=3, seed=50)
    model.expand_classifier(2, np.random.default_rng(51))
    path = tmp_path / "model.json"
    model.save_checkpoint(path, task_index=1)
    restored, task_index = load_checkpoint(path)
    assert task_index == 1
    images = rand_image(MICRO, seed=52)[np.newaxis]
    np.testing.assert_array_equal(model.forward_batch(images)[0].data,
                                  restored.forward_batch(images)[0].data)
    for name, tensor in model.parameters().items():
        np.testing.assert_array_equal(tensor.data, restored.parameters()[name].data)


@pytest.mark.parametrize("classifier_input", ["feature", "feature_cls"])
def test_checkpoint_bytes_equal_the_one_shot_json_form(tmp_path, classifier_input):
    cfg = dataclasses.replace(MICRO, classifier_input=classifier_input)
    model = make_model(n_classes=2, cfg=cfg, seed=53)
    model.expand_classifier(3, np.random.default_rng(54))
    path = tmp_path / "model.json"
    model.save_checkpoint(path, task_index=2)
    params = {name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
              for name, t in sorted(model.parameters().items())}
    one_shot = json.dumps({"format_version": 1, "task_index": 2, "n_classes": model.n_classes,
                           "config": dataclasses.asdict(cfg), "params": params})
    assert path.read_bytes() == one_shot.encode("utf-8")
    restored, task_index = load_checkpoint(path)
    assert task_index == 2 and restored.n_classes == 5 and restored.cfg == cfg
    restored_params = restored.parameters()
    assert list(restored_params) == list(model.parameters())
    for name, tensor in model.parameters().items():
        assert restored_params[name].data.shape == tensor.data.shape
        assert restored_params[name].data.tobytes() == tensor.data.tobytes(), name


@pytest.mark.parametrize("key", ["task_index", "n_classes", "config", "params", "depth",
                                 "heads"])
def test_checkpoint_missing_or_unknown_key_is_named(tmp_path, key):
    path = tmp_path / "model.json"
    make_model().save_checkpoint(path, task_index=1)
    payload = json.loads(path.read_text())
    if key == "depth":
        payload["config"]["depth"] = 3
    elif key == "heads":  # 2 in MICRO, 4 by default; no parameter shape depends on it
        del payload["config"]["heads"]
    else:
        del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("path, value, named", [
    pytest.param(("params",), [], "'params'", id="params-list"),
    pytest.param(("config",), [], "'config'", id="config-list"),
    pytest.param(("config", "embed_dim"), "8", "'config.embed_dim'", id="embed_dim-string"),
    pytest.param(("n_classes",), "3", "'n_classes'", id="n_classes-string"),
    pytest.param(("task_index",), "1", "'task_index'", id="task_index-string"),
    pytest.param(("task_index",), True, "'task_index'", id="task_index-bool"),
    # true and 1.0 compare equal to 1 in Python, so only a type check refuses them
    pytest.param(("format_version",), True, "'format_version'", id="format_version-bool"),
    pytest.param(("format_version",), 1.0, "'format_version'", id="format_version-float"),
    pytest.param(("format_version",), "1", "'format_version'", id="format_version-string"),
    pytest.param(("params", "cls_token", "shape"), "x", "'cls_token'", id="shape-string"),
    # shapes numpy's reshape would accept: an inferred -1, a bool extent, a bare integer
    pytest.param(("params", "patch_bias", "shape"), [-1], "'patch_bias'", id="shape-negative"),
    pytest.param(("params", "cls_token", "shape"), [True, 8], "'cls_token'", id="shape-bool"),
    pytest.param(("params", "patch_bias", "shape"), 8, "'patch_bias'", id="shape-integer"),
    pytest.param(("config", "heads"), 0, "heads", id="heads-zero"),
    pytest.param(("config", "patch_side"), 0, "patch_side", id="patch_side-zero"),
    # out-of-range counts: ModelConfig names them before the model divides by or builds from them
    pytest.param(("config", "embed_dim"), 0, "embed_dim", id="embed_dim-zero"),
    pytest.param(("config", "channels"), 0, "channels", id="channels-zero"),
    pytest.param(("config", "mlp_ratio"), 0, "mlp_ratio", id="mlp_ratio-zero"),
    pytest.param(("config", "image_side"), 0, "image_side", id="image_side-zero"),
    pytest.param(("config", "channels"), -1, "channels", id="channels-negative"),
    pytest.param(("config", "msa_blocks"), -1, "msa_blocks", id="msa_blocks-negative"),
    pytest.param(("config", "tsa_blocks"), -1, "tsa_blocks", id="tsa_blocks-negative"),
    pytest.param(("task_index",), -3, "'task_index'", id="task_index-negative"),
    pytest.param(("task_index",), 0, "'task_index'", id="task_index-zero"),
    pytest.param(("n_classes",), 0, "'n_classes'", id="n_classes-zero"),
    pytest.param(("n_classes",), -2, "'n_classes'", id="n_classes-negative"),
    # classifier.bias holds 3 classes; a huge count must not size the skeleton model
    pytest.param(("n_classes",), 4, "'n_classes'", id="n_classes-disagrees-with-bias"),
    pytest.param(("n_classes",), 10**12, "'n_classes'", id="n_classes-huge"),
    # huge extents: each is compared with its params entries before anything is sized by it
    pytest.param(("config", "embed_dim"), 2**40, "'config.embed_dim'", id="embed_dim-huge"),
    pytest.param(("config", "image_side"), 2**40, "'config.image_side'", id="image_side-huge"),
    pytest.param(("config", "mlp_ratio"), 2**40, "'config.mlp_ratio'", id="mlp_ratio-huge"),
    pytest.param(("config", "msa_blocks"), 2**40, "'msa1.norm1_gain'", id="msa_blocks-huge"),
    pytest.param(("config", "msa_blocks"), 0, "'msa0.mlp.b1'", id="msa_blocks-fewer"),
    # MICRO's classifier reads the "feature": with no TSA block that is the tiled
    # task_embedding, the same for every image, so the config itself is refused
    pytest.param(("config", "tsa_blocks"), 0,
                 'checkpoint config is invalid: tsa_blocks 0 needs classifier_input '
                 '"feature_cls"', id="tsa_blocks-fewer"),
    # with no attention block neither classifier input reads a pixel
    pytest.param(("config",), {**dataclasses.asdict(MICRO), "msa_blocks": 0, "tsa_blocks": 0,
                               "classifier_input": "feature_cls"},
                 "checkpoint config is invalid: msa_blocks and tsa_blocks are both 0",
                 id="no-attention-block"),
    # classifier.bias has shape (3,); json.loads reads NaN and Infinity tokens
    pytest.param(("params", "classifier.bias", "data"), [None, float("nan"), 0.0],
                 "'classifier.bias'", id="bias-null-nan"),
    pytest.param(("params", "classifier.bias", "data"), [0.0, float("inf"), 0.0],
                 "'classifier.bias'", id="bias-infinity"),
    pytest.param(("params", "classifier.bias", "data"), [0.0, 10**400, 0.0],
                 "'classifier.bias'", id="bias-integer-past-the-largest-float"),
    # numpy reads true as 1.0, and a nested list of the right size reshapes cleanly
    pytest.param(("params", "classifier.bias", "data"), [True, 0.0, 0.0],
                 "'classifier.bias' has data that is not a flat list", id="bias-bool"),
    pytest.param(("params", "classifier.bias", "data"), [[0.0], [0.0], [0.0]],
                 "'classifier.bias' has data that is not a flat list", id="bias-nested"),
    # values of the right type that ModelConfig refuses are named as checkpoint config
    pytest.param(("config", "classifier_input"), "x",
                 "checkpoint config is invalid: unknown classifier_input 'x'",
                 id="classifier_input-unknown"),
    pytest.param(("config", "heads"), 3,
                 "checkpoint config is invalid: embed_dim 8 must be divisible by heads 3",
                 id="heads-not-dividing"),
    pytest.param(("config", "mlp_ratio"), -1,
                 "checkpoint config is invalid: mlp_ratio must be at least 1, got -1",
                 id="mlp_ratio-negative"),
])
def test_checkpoint_wrongly_typed_field_is_named(tmp_path, path, value, named):
    file = tmp_path / "model.json"
    make_model().save_checkpoint(file, task_index=1)
    payload = json.loads(file.read_text())
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=named):
        load_checkpoint(file)


@pytest.mark.parametrize("cfg, sha256", [
    (MICRO, "72dbd6ff05f7226d9885f6ce1fb88556f779699a8691c61300944c66e715c65c"),
    (ModelConfig(), "20dc8908d7d4e754f87bfe9e5026bc0fc728f9890cb5c22e17a63240d282d845"),
    (ModelConfig(image_side=12, channels=3, patch_side=3, embed_dim=6, heads=3, msa_blocks=0,
                 tsa_blocks=3, mlp_ratio=2, classifier_input="feature_cls"),
     "6186ced92ef6a13308969edefe2eaf4f5bb307d477fd274bc21748005545a4ec"),
], ids=["micro", "default", "feature_cls-tsa3"])
def test_fresh_model_checkpoint_pins_the_init_draw_order(tmp_path, cfg, sha256):
    # a reordered draw or a changed init kind changes these bytes, also on configs the
    # demo run never builds
    path = tmp_path / "model.json"
    IncrementalModel(cfg, 5, np.random.default_rng(0)).save_checkpoint(path, task_index=1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("key", ["data", "shape"])
def test_checkpoint_params_entry_missing_key_is_named(tmp_path, key):
    path = tmp_path / "model.json"
    make_model().save_checkpoint(path, task_index=1)
    payload = json.loads(path.read_text())
    del payload["params"]["cls_token"][key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"'cls_token' is missing '{key}'"):
        load_checkpoint(path)


def test_checkpoint_that_is_not_an_object_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        load_checkpoint(path)


def test_deeply_nested_checkpoint_is_a_value_error_naming_the_file(tmp_path):
    # valid JSON, but deeper than json.loads can recurse
    path = tmp_path / "model.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ValueError, match=f"{path} nests JSON arrays or objects too deeply"):
        load_checkpoint(path)


def saved_micro_checkpoint() -> str:
    """What save_checkpoint writes for a micro model grown from 3 to 5 classes."""
    model = make_model(n_classes=3, seed=55)
    model.expand_classifier(2, np.random.default_rng(56))
    with tempfile.TemporaryDirectory() as tmp:
        model.save_checkpoint(Path(tmp) / "model.json", task_index=2)
        return (Path(tmp) / "model.json").read_text()


MICRO_PAYLOAD = saved_micro_checkpoint()
# every path load_checkpoint reads: top-level keys, config keys, params entries and
# their shape and data
CHECKPOINT_PATHS = (
    [(key,) for key in ("format_version", "task_index", "n_classes", "config", "params")]
    + [("config", f.name) for f in dataclasses.fields(ModelConfig)]
    + [("params", name) + tail for name in json.loads(MICRO_PAYLOAD)["params"]
       for tail in ((), ("shape",), ("data",))])
# json.loads yields any of these; NaN, +-Infinity and huge integers included, also past
# the largest float
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-3, 40) | st.floats()
                | st.integers(2**1024, 2**1030) | st.text(max_size=6)
                | st.sampled_from(["feature", "feature_cls"]))
json_values = st.recursive(json_scalars,
                           lambda inner: st.lists(inner, max_size=5)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                           max_leaves=8)


def like(value):
    """Small integers for an integer, floats as many as a list holds: values near
    enough to the saved ones that some fuzzed payloads still load."""
    if isinstance(value, list):
        return st.lists(st.floats(), min_size=len(value), max_size=len(value))
    return st.integers(0, 16) if isinstance(value, int) else json_values


@st.composite
def fuzzed_checkpoints(draw):
    """A saved micro checkpoint with one to three paths set to random JSON values or
    deleted."""
    payload = json.loads(MICRO_PAYLOAD)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(CHECKPOINT_PATHS))
        target = payload
        for parent in parents:
            target = target.get(parent) if isinstance(target, dict) else None
        if not isinstance(target, dict):  # an earlier mutation replaced a parent
            continue
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(json_values | like(target.get(key)))
    return payload


@settings(max_examples=400)
@given(payload=fuzzed_checkpoints())
def test_fuzzed_checkpoints_load_or_raise_value_error(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload))
        try:
            model, task_index = load_checkpoint(path)
        except ValueError:
            return
        model.save_checkpoint(path, task_index)
        again, task_again = load_checkpoint(path)
    assert task_again == task_index and list(again.params) == list(model.params)
    for name, tensor in model.params.items():
        assert again.params[name].data.tobytes() == tensor.data.tobytes(), name


# ---------------------------------------------------------------------------
# graph size


@pytest.mark.parametrize("classifier_input", ["feature", "feature_cls"])
def test_forward_graph_does_not_grow_with_batch_size(classifier_input):
    cfg = ModelConfig(classifier_input=classifier_input)
    model = IncrementalModel(cfg, 4, np.random.default_rng(60))
    images = np.random.default_rng(61).uniform(size=(16, cfg.channels, cfg.image_side,
                                                     cfg.image_side))
    # every tensor reachable through recorded parents, root and leaves included
    counts = [len(ad._topo_order(ad.sum_(model.forward_batch(images[:b])[0])))
              for b in (1, 16)]
    assert counts[0] == counts[1]
    assert counts[1] <= 96


def graph_bytes(loss: ad.Tensor) -> int:
    """Bytes of the distinct buffers a graph keeps alive: every node's data and the
    arrays its backward closure holds, each counted once through its base."""
    bases = {}
    for node in ad._topo_order(loss):
        closure = node._backward.__closure__ if node._backward is not None else None
        for array in [node.data] + [c.cell_contents for c in closure or ()
                                    if isinstance(c.cell_contents, np.ndarray)]:
            while isinstance(array.base, np.ndarray):
                array = array.base
            bases[id(array)] = array.nbytes
    return sum(bases.values())


def test_cifar_shaped_training_step_graph_stays_small():
    # batch 16 at 32x32x3, 60 classes (50 old, 10 new), compensation plus relation
    # distillation: 22.06 MiB while attention kept per-head copies of q, k and v and
    # each residual kept its own product, 19.01 MiB without them
    cfg, k_old, k_new, b = ModelConfig(image_side=32, channels=3), 50, 10, 16
    rng = np.random.default_rng(62)
    model = IncrementalModel(cfg, k_old + k_new, rng)
    images = rng.integers(0, 256, size=(b, 3, 32, 32), dtype=np.uint8)
    old_probs = rng.uniform(size=(b, k_old))
    old_probs /= old_probs.sum(axis=1, keepdims=True)
    probs = ad.softmax(model.forward_batch(images)[0], axis=1)
    batch = LS.BatchView(probs, rng.integers(0, k_old + k_new, size=b),
                         np.arange(k_old + k_new) // k_new, k_old, k_new, old_probs)
    held = graph_bytes(LS.objective(batch, None, 1.0, 1.0))
    assert held <= 19.1 * 2**20, f"{held / 2**20:.2f} MiB"
