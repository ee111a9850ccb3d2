"""Unit and property tests for the autodiff engine.

Every registered op is checked against the central-difference oracle at
random inputs; the oracle itself is validated on cases with known closed
forms first.
"""
import inspect
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfclab import autodiff as ad
from hfclab.autodiff import Tensor
from hfclab.gradcheck import _op_cases


def rng_for(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


# ---------------------------------------------------------------------------
# finite-difference oracle self-tests


def test_oracle_quadratic_is_near_exact():
    # central differences are exact for quadratics up to rounding
    err = ad.finite_diff_check(lambda t: ad.sum_(ad.mul(t, t)), np.array([1.0, 2.0]))
    assert err < 1e-9


def test_oracle_quadratic_analytic_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)


def test_oracle_softmax_pick():
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    mask = ad.constant(np.array([0.0, 1.0, 0.0, 0.0]))
    err = ad.finite_diff_check(lambda t: ad.sum_(ad.mul(ad.softmax(t, axis=0), mask)), x)
    assert err < 1e-6


def test_oracle_dead_branch_gradient_is_zero():
    def f(t):
        return ad.scale(ad.sum_(ad.exp(t)), 0.0)

    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    ad.backward(f(x))
    np.testing.assert_array_equal(x.grad, np.zeros(2))
    assert ad.finite_diff_check(f, np.array([0.3, -0.7])) < 1e-9


# ---------------------------------------------------------------------------
# trivial op cases


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_zero():
    a = Tensor(np.eye(2))
    b = Tensor([[0.0], [0.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).data, np.zeros((2, 1)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError) as exc:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = ad.softmax(Tensor([1000.0, 1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, np.ones(3) / 3.0, atol=1e-15)
    assert np.all(np.isfinite(out.data))


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        ad.softmax(Tensor([np.inf, 0.0]), axis=0)


def test_layer_norm_constant_row_maps_to_bias():
    x = Tensor(np.full((1, 4), 3.0))
    out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_two_point_row():
    out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    # mean 0, variance 1, eps=1e-5 shrinks the row slightly below +/-1
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [[expected, -expected]], rtol=1e-12)
    assert abs(out.data[0, 0] - 1.0) < 1e-5


def test_layer_norm_rejects_zero_width():
    with pytest.raises(ad.ShapeError):
        ad.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


def test_concat_1d():
    out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_split_roundtrip():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    parts = ad.split(x, [1, 3], axis=1)
    assert parts[0].shape == (3, 1)
    assert parts[1].shape == (3, 3)
    np.testing.assert_array_equal(np.concatenate([p.data for p in parts], axis=1), x.data)


def test_split_bad_sizes_rejected():
    with pytest.raises(ad.ShapeError):
        ad.split(Tensor(np.zeros((2, 4))), [1, 2], axis=1)


def test_gelu_fixed_point_at_zero():
    assert ad.gelu(Tensor([0.0])).data[0] == 0.0


def test_backward_of_sum_is_ones():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    ad.backward(ad.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.exp(x))


def test_unreachable_node_grad_is_zeros():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.sum_(x))
    np.testing.assert_array_equal(y.grad, np.zeros(3))


# ---------------------------------------------------------------------------
# gradient checks for every registered op


def check_op(name: str, f, shape, n_inputs: int = 20, tol: float = 1e-5) -> None:
    rng = rng_for(name)
    worst = 0.0
    for _ in range(n_inputs):
        x = rng.normal(size=shape)
        worst = max(worst, ad.finite_diff_check(f, x))
    assert worst < tol, f"{name}: max rel err {worst:.3e}"


OP_CASES = {
    "add": (lambda t: ad.sum_(ad.mul(ad.add(t, ad.constant(np.ones((3, 2)))), t)), (3, 2)),
    "add_broadcast": (lambda t: ad.sum_(ad.exp(ad.add(t, ad.constant(np.array([0.3, -0.2]))))), (3, 2)),
    "mul": (lambda t: ad.sum_(ad.mul(t, ad.mul(t, t))), (2, 3)),
    "div": (lambda t: ad.sum_(ad.div(ad.constant(np.ones((2, 2))), ad.add_const(ad.mul(t, t), 1.0))), (2, 2)),
    "scale": (lambda t: ad.sum_(ad.scale(ad.mul(t, t), -2.5)), (4,)),
    "log": (lambda t: ad.sum_(ad.log(ad.add_const(ad.mul(t, t), 0.5))), (5,)),
    "exp": (lambda t: ad.sum_(ad.exp(t)), (4,)),
    "power": (lambda t: ad.sum_(ad.power(ad.add_const(ad.mul(t, t), 0.3), 0.7)), (4,)),
    "gelu": (lambda t: ad.sum_(ad.gelu(t)), (6,)),
    "concat": (
        lambda t: ad.sum_(ad.mul(ad.concat([t, ad.scale(t, 2.0)], axis=0), ad.constant(np.arange(12.0).reshape(6, 2)))),
        (3, 2),
    ),
    "split": (
        lambda t: ad.sum_(ad.mul(*ad.split(t, [2, 2], axis=1))),
        (3, 4),
    ),
    "transpose": (lambda t: ad.sum_(ad.matmul(ad.transpose(t), t)), (3, 2)),
    "reshape": (lambda t: ad.sum_(ad.matmul(ad.reshape(t, (2, 3)), ad.reshape(t, (3, 2)))), (6,)),
    "tile_rows": (lambda t: ad.sum_(ad.mul(ad.tile_rows(t, 3), ad.constant(np.arange(18.0).reshape(6, 3)))), (2, 3)),
    "attention_q": (
        lambda t: ad.sum_(ad.mul(
            ad.attention(t, ad.constant(np.arange(18.0).reshape(6, 3) / 9.0),
                         ad.constant(np.arange(18.0)[::-1].reshape(6, 3) / 9.0), batch=2),
            ad.constant(np.arange(12.0).reshape(4, 3)))),
        (4, 3),
    ),
    "matmul": (
        lambda t: ad.sum_(ad.matmul(t, ad.mul(t, t))),
        (3, 3),
    ),
    "linear": (
        lambda t: ad.sum_(ad.mul(ad.matmul(t, t, ad.sum_(t, axis=0)),
                                 ad.constant(np.arange(9.0).reshape(3, 3)))),
        (3, 3),
    ),
    "linear_skip": (
        lambda t: ad.sum_(ad.mul(ad.matmul(t, ad.exp(t), skip=ad.mul(t, t)),
                                 ad.constant(np.arange(9.0).reshape(3, 3)))),
        (3, 3),
    ),
    "sum_axis": (lambda t: ad.sum_(ad.exp(ad.sum_(t, axis=0))), (3, 2)),
    "mean": (lambda t: ad.mean(ad.mul(t, t)), (3, 4)),
    "mean_axis": (lambda t: ad.sum_(ad.exp(ad.mean(t, axis=1))), (2, 5)),
    "softmax": (
        lambda t: ad.sum_(ad.mul(ad.softmax(t, axis=1), ad.constant(np.arange(8.0).reshape(2, 4)))),
        (2, 4),
    ),
    "layer_norm": (
        lambda t: ad.sum_(
            ad.mul(
                ad.layer_norm(t, ad.constant(np.ones(4)), ad.constant(np.zeros(4))),
                ad.constant(np.arange(8.0).reshape(2, 4)),
            )
        ),
        (2, 4),
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    f, shape = OP_CASES[name]
    check_op(name, f, shape)


def test_every_recording_op_has_a_gradcheck_case():
    cases = {name for name, _, _ in _op_cases(np.random.default_rng(0))}
    recording = [name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__ == ad.__name__ and "_result(" in inspect.getsource(fn)]
    assert "add_const" in recording and "tile_rows" in recording
    missing = [name for name in recording if f"op.{name.rstrip('_')}" not in cases]
    assert not missing, f"ops without an hfclab gradcheck case: {missing}"


def test_layer_norm_gain_bias_gradients():
    rng = rng_for("ln_params")
    x = ad.constant(rng.normal(size=(3, 4)))
    sel = ad.constant(rng.normal(size=(3, 4)))

    def wrt_gain(t):
        return ad.sum_(ad.mul(ad.layer_norm(x, t, ad.constant(np.zeros(4))), sel))

    def wrt_bias(t):
        return ad.sum_(ad.mul(ad.layer_norm(x, ad.constant(np.ones(4)), t), sel))

    assert ad.finite_diff_check(wrt_gain, rng.normal(size=4)) < 1e-5
    assert ad.finite_diff_check(wrt_bias, rng.normal(size=4)) < 1e-5


def identity_values(batch: int, n: int, heads: int = 1) -> Tensor:
    """v whose every head block is the n x n identity, so attention returns its
    probabilities bit for bit: row b*m + i, column block h is sample b, head h."""
    return Tensor(np.tile(np.eye(n), (batch, heads)))


def test_attention_rows_sum_to_one_and_stay_sample_local():
    rng = rng_for("attn_local")
    q = Tensor(rng.normal(size=(6, 4)))
    k = Tensor(rng.normal(size=(10, 4)))
    v = Tensor(rng.normal(size=(10, 4)))
    out = ad.attention(q, k, v, batch=2)
    probs = ad.attention(q, k, identity_values(2, 5), batch=2).data.reshape(2, 3, 5)
    assert out.shape == (6, 4)
    assert probs.shape == (2, 3, 5)
    np.testing.assert_allclose(probs.sum(axis=2), np.ones((2, 3)), atol=1e-12)
    # second sample's queries must ignore the first sample's keys/values
    k2 = Tensor(np.vstack([rng.normal(size=(5, 4)), k.data[5:]]))
    out2 = ad.attention(q, k2, v, batch=2)
    np.testing.assert_array_equal(out.data[3:], out2.data[3:])


def test_attention_gradients_match_finite_differences():
    rng = rng_for("attn_grad")
    q0 = rng.normal(size=(4, 3))
    k0 = rng.normal(size=(6, 3))
    v0 = rng.normal(size=(6, 3))
    sel = ad.constant(rng.normal(size=(4, 3)))

    def wrt(name):
        def f(t):
            args = {"q": ad.constant(q0), "k": ad.constant(k0), "v": ad.constant(v0)}
            args[name] = t
            return ad.sum_(ad.mul(ad.attention(args["q"], args["k"], args["v"], batch=2), sel))
        return f

    assert ad.finite_diff_check(wrt("q"), q0) < 1e-6
    assert ad.finite_diff_check(wrt("k"), k0) < 1e-6
    assert ad.finite_diff_check(wrt("v"), v0) < 1e-6


def test_attention_rejects_bad_shapes():
    with pytest.raises(ad.ShapeError):
        ad.attention(Tensor(np.zeros((4, 3))), Tensor(np.zeros((6, 2))),
                     Tensor(np.zeros((6, 2))), batch=2)
    with pytest.raises(ad.ShapeError):
        ad.attention(Tensor(np.zeros((5, 3))), Tensor(np.zeros((6, 3))),
                     Tensor(np.zeros((6, 3))), batch=2)
    with pytest.raises(ad.ShapeError):
        ad.attention(Tensor(np.zeros((4, 6))), Tensor(np.zeros((6, 6))),
                     Tensor(np.zeros((6, 6))), batch=2, heads=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["q", "k"])
def test_attention_rejects_a_single_non_finite_score(operand, bad):
    rng = rng_for("attn_nonfinite")
    arrays = {"q": rng.normal(size=(4, 3)), "k": rng.normal(size=(6, 3))}
    arrays[operand][1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ad.attention(Tensor(arrays["q"]), Tensor(arrays["k"]), Tensor(np.ones((6, 3))), batch=2)


def test_attention_accepts_finite_scores_whose_sum_overflows():
    q = np.zeros((4, 2))
    k = np.zeros((6, 2))
    q[:, 0], k[:, 0] = 1.2e154, np.linspace(0.9e154, 1.2e154, 6)
    scores = q[:2] @ k[:3].T
    with np.errstate(over="ignore"):
        assert np.isfinite(scores).all() and np.isinf(scores.sum())
    out = ad.attention(Tensor(q), Tensor(k), identity_values(2, 3), batch=2)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)


def test_attention_value_and_gradients_match_the_ds_formula():
    # transcription of the op with ds = probs * (da - sum(da * probs)) as one expression
    rng = rng_for("attention_bits")
    batch, heads, m, n, d = 3, 2, 4, 5, 8
    q0, k0, v0, sel = (rng.normal(size=(batch * rows, d)) for rows in (m, n, n, m))

    def per_head(x, rows):
        return np.ascontiguousarray(x.reshape(batch, rows, heads, -1).transpose(0, 2, 1, 3))

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(batch * x.shape[2], -1)

    q4, k4, v4, g4 = per_head(q0, m), per_head(k0, n), per_head(v0, n), per_head(sel, m)
    scores = q4 @ k4.transpose(0, 1, 3, 2)
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    probs = e / e.sum(axis=3, keepdims=True)
    da = g4 @ v4.transpose(0, 1, 3, 2)
    ds = probs * (da - (da * probs).sum(axis=3, keepdims=True))
    want = [merge(ds @ k4), merge(ds.transpose(0, 1, 3, 2) @ q4),
            merge(probs.transpose(0, 1, 3, 2) @ g4)]
    q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
    out = ad.attention(q, k, v, batch, heads)
    ad.backward(ad.sum_(ad.mul(out, ad.constant(sel))))
    assert np.array_equal(out.data, merge(probs @ v4))
    for t, expected in zip((q, k, v), want):
        assert np.array_equal(t.grad, expected)


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_value_and_gradient_match_the_formula(axis):
    rng = rng_for(f"softmax_bits{axis}")
    x0, sel = rng.normal(size=(6, 5)) * 3.0, rng.normal(size=(6, 5))
    e = np.exp(x0 - x0.max(axis=axis, keepdims=True))
    data = e / e.sum(axis=axis, keepdims=True)
    x = Tensor(x0.copy(), requires_grad=True)
    out = ad.softmax(x, axis=axis)
    ad.backward(ad.sum_(ad.mul(out, ad.constant(sel))))
    assert np.array_equal(out.data, data)
    assert np.array_equal(x.grad, data * (sel - (sel * data).sum(axis=axis, keepdims=True)))


def per_head_attention(q, k, v, batch, heads):
    """Reference path: split columns per head, single-head attention, concat."""
    qs, ks, vs = (ad.split(t, [t.shape[1] // heads] * heads, axis=1) for t in (q, k, v))
    return ad.concat([ad.attention(qh, kh, vh, batch) for qh, kh, vh in zip(qs, ks, vs)],
                     axis=1)


# at head widths up to 3 BLAS rounds a row-layout right operand by its stride,
# so a view in place of a contiguous copy would show at widths 1 and 3
MULTIHEAD_SHAPES = [pytest.param(heads, m, n, 8 // heads, id=f"{heads}-{m}-{n}")
                    for m, n in [(4, 5), (1, 6)] for heads in (1, 2, 4)] + [
    pytest.param(heads, m, n, width, id=f"{heads}-{m}-{n}-w{width}")
    for heads in (1, 2, 4) for width in (1, 3, 8) for m in (1, 17) for n in (1, 17)]


@pytest.mark.parametrize("heads,m,n,width", MULTIHEAD_SHAPES)
def test_multihead_attention_is_bit_identical_to_per_head_path(heads, m, n, width):
    # the first six shapes keep the draws they had before the width grid
    rng = rng_for(f"multihead{heads}{m}" if n in (5, 6) else f"multihead{heads}-{m}-{n}-{width}")
    batch, d = 3, heads * width
    arrays = [rng.normal(size=(batch * rows, d)) for rows in (m, n, n)]
    sel = ad.constant(rng.normal(size=(batch * m, d)))

    def run(attend):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = attend(q, k, v)
        ad.backward(ad.sum_(ad.mul(out, sel)))
        probs = attend(Tensor(arrays[0]), Tensor(arrays[1]), identity_values(batch, n, heads))
        return out.data, probs.data, [t.grad for t in (q, k, v)]

    fused = run(lambda q, k, v: ad.attention(q, k, v, batch, heads))
    reference = run(lambda q, k, v: per_head_attention(q, k, v, batch, heads))
    assert fused[1].shape == (batch * m, heads * n)
    assert np.array_equal(fused[0], reference[0])
    assert np.array_equal(fused[1], reference[1])
    for got, want in zip(fused[2], reference[2]):
        assert np.array_equal(got, want)


# with one head a contiguous input is a contiguous per-head operand, so there a
# slice's wider row stride would round differently if it reached BLAS uncopied
@pytest.mark.parametrize("m,n", [(1, 17), (17, 1), (5, 7)])
@pytest.mark.parametrize("heads,width", [(1, 1), (1, 3), (4, 1), (2, 3), (2, 8)])
def test_attention_on_column_slices_equals_attention_on_contiguous_inputs(heads, width, m, n):
    rng = rng_for(f"attention_slices{heads}{width}{m}{n}")
    batch, d = 2, heads * width
    wide = [rng.normal(size=(batch * rows, 3 * d)) for rows in (m, n, n)]
    sel = ad.constant(rng.normal(size=(batch * m, d)))

    def run(arrays):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        out = ad.attention(q, k, v, batch, heads)
        ad.backward(ad.sum_(ad.mul(out, sel)))
        return [out.data] + [t.grad for t in (q, k, v)]

    slices = [a[:, d:2 * d] for a in wide]
    assert not any(a.flags.c_contiguous for a in slices)
    for got, want in zip(run(slices), run([a.copy() for a in slices])):
        assert np.array_equal(got, want)


# "linear" here and below: matmul with a bias or skip addend, an affine map as one node
@pytest.mark.parametrize("x_needs_grad,addends", [
    pytest.param(x_needs_grad, addends,
                 id=f"{x_needs_grad}" + ("" if addends == "b" else f"-{addends}"))
    for x_needs_grad in (True, False) for addends in ("b", "skip", "b+skip")])
def test_linear_is_bit_identical_to_matmul_plus_bias(x_needs_grad, addends):
    rng = rng_for("linear_bits")
    arrays = [rng.normal(size=shape) for shape in ((7, 5), (5, 6), (6,))]
    sel = ad.constant(rng.normal(size=(7, 6)))
    skip0 = rng_for("linear_skip").normal(size=(7, 6))
    with_b, with_skip = "b" in addends.split("+"), "skip" in addends

    def run(affine):
        x = Tensor(arrays[0].copy(), requires_grad=x_needs_grad)
        w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays[1:])
        skip = Tensor(skip0.copy(), requires_grad=True)
        # skip also feeds the loss directly, so its gradient sums two contributions
        out = affine(x, w, b if with_b else None, skip if with_skip else None)
        ad.backward(ad.add(ad.sum_(ad.mul(out, sel)), ad.sum_(ad.mul(skip, skip))))
        return out.data, x, [t.grad for t in (x, w, b, skip)]

    def reference(x, w, b, skip):
        out = ad.matmul(x, w)
        out = out if b is None else ad.add(out, b)
        return out if skip is None else ad.add(skip, out)

    fused = run(ad.matmul)
    expected = run(reference)
    assert np.array_equal(fused[0], expected[0])
    for got, want in zip(fused[2][not x_needs_grad:], expected[2][not x_needs_grad:]):
        assert np.array_equal(got, want)
    if not x_needs_grad:  # a constant input's gradient is not computed
        assert fused[1]._grad is None


def test_linear_rejects_bad_shapes():
    x, w = Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ad.ShapeError):
        ad.matmul(x, Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ad.ShapeError):
        ad.matmul(x, w, Tensor(np.zeros(3)))
    with pytest.raises(ad.ShapeError):
        ad.matmul(x, w, skip=Tensor(np.zeros((4, 3))))
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.zeros(3)), w, skip=Tensor(np.zeros((4, 2))))


def test_gelu_value_and_gradient_match_the_stored_square_formula():
    # transcription of the form that kept x*x alive for the backward pass
    x0 = rng_for("gelu_bits").normal(size=(40, 9)) * 3.0
    x2 = x0 * x0
    t = np.tanh(math.sqrt(2.0 / math.pi) * x0 * (1.0 + 0.044715 * x2))
    value = 0.5 * x0 * (1.0 + t)
    dinner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * x2)
    local = 0.5 * (1.0 + t) + 0.5 * x0 * (1.0 - t * t) * dinner
    sel = rng_for("gelu_sel").normal(size=x0.shape)
    x = Tensor(x0.copy(), requires_grad=True)
    out = ad.gelu(x)
    ad.backward(ad.sum_(ad.mul(out, ad.constant(sel))))
    assert np.array_equal(out.data, value)
    assert np.array_equal(x.grad, sel * local)


def test_0d_tensors_get_array_gradients_and_gelu_accepts_them():
    s = Tensor(np.array(2.0), requires_grad=True)
    ad.backward(ad.scale(s, 3.0))
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 3.0
    x, row = Tensor(np.array(0.5), requires_grad=True), Tensor([0.5], requires_grad=True)
    out = ad.gelu(x)
    ad.backward(out)
    ad.backward(ad.sum_(ad.gelu(row)))
    assert out.shape == () and out.data == ad.gelu(Tensor([0.5])).data[0]
    assert isinstance(x.grad, np.ndarray) and x.grad.shape == () and x.grad == row.grad[0]


def test_layer_norm_matches_the_np_mean_formula():
    rng = rng_for("layer_norm_bits")
    x0, gain0, bias0, sel = (rng.normal(size=s) for s in ((64, 7), (7,), (7,), (64, 7)))
    mu = x0.mean(axis=-1, keepdims=True)
    var = ((x0 - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = (x0 - mu) * inv_std
    gy = sel * gain0
    dx = inv_std * (gy - gy.mean(axis=-1, keepdims=True)
                    - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
    x = Tensor(x0.copy(), requires_grad=True)
    out = ad.layer_norm(x, ad.constant(gain0), ad.constant(bias0))
    ad.backward(ad.sum_(ad.mul(out, ad.constant(sel))))
    assert np.array_equal(out.data, xhat * gain0 + bias0)
    assert np.array_equal(x.grad, dx)


def test_reshape_returns_a_view():
    x = Tensor(np.arange(6.0), requires_grad=True)
    assert np.shares_memory(ad.reshape(x, (2, 3)).data, x.data)


# ---------------------------------------------------------------------------
# gradient aliasing: ops that hand their output gradient (or a view of it) on


def test_add_of_a_tensor_with_itself_gets_exactly_twice_the_gradient():
    rng = rng_for("alias_add")
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    c = rng.normal(size=(3, 2))
    # the outer add hands one gradient array to the inner add and to y
    ad.backward(ad.sum_(ad.mul(ad.add(ad.add(x, x), y), ad.constant(c))))
    assert np.array_equal(x.grad, 2 * c)
    assert np.array_equal(y.grad, c)


# op applied to a (2, 3) input, and the routing of its output gradient back
PASS_THROUGH = {
    "add_const": (lambda t: ad.add_const(t, 0.5), lambda g: g),
    "reshape": (lambda t: ad.reshape(t, (3, 2)), lambda g: g.reshape(2, 3)),
    "split": (lambda t: ad.split(t, [1, 1], axis=0)[0],
              lambda g: np.vstack([g, np.zeros((1, 3))])),
    "concat": (lambda t: ad.concat([t, ad.constant(np.ones((1, 3)))], axis=0),
               lambda g: g[:2]),
    "transpose": (ad.transpose, lambda g: g.T),
    "linear_skip": (lambda t: ad.matmul(ad.constant(np.ones((2, 4))),
                                        ad.constant(np.ones((4, 3))), skip=t),
                    lambda g: g),
}


# both orders: which contribution reaches x first depends on the graph traversal
@pytest.mark.parametrize("reuse_first", [False, True])
@pytest.mark.parametrize("name", sorted(PASS_THROUGH))
def test_reused_input_of_a_gradient_passing_op_gets_exact_gradients(name, reuse_first):
    op, route = PASS_THROUGH[name]
    rng = rng_for(f"alias_{name}")
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    passed = op(x)
    z = Tensor(rng.normal(size=passed.shape), requires_grad=True)
    c1, c2 = rng.normal(size=passed.shape), rng.normal(size=(2, 3))
    # z shares the gradient array handed to the op; x is reused directly
    through = ad.sum_(ad.mul(ad.add(passed, z), ad.constant(c1)))
    reuse = ad.sum_(ad.mul(x, ad.constant(c2)))
    ad.backward(ad.add(reuse, through) if reuse_first else ad.add(through, reuse))
    assert np.array_equal(z.grad, c1)
    assert np.array_equal(x.grad, route(c1) + c2)


# ops whose closures hand on fresh arrays (owned gradients), with an input used twice


def test_mul_and_matmul_of_a_tensor_with_itself_get_exact_gradients():
    rng = rng_for("alias_self")
    x0, c = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    x = Tensor(x0.copy(), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.mul(x, x), ad.constant(c))))
    assert np.array_equal(x.grad, c * x0 + c * x0)
    a = Tensor(x0.copy(), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.matmul(a, a), ad.constant(c))))
    assert np.array_equal(a.grad, c @ x0.T + x0.T @ c)


@pytest.mark.parametrize("reuse_first", [False, True])
def test_linear_input_used_elsewhere_gets_exact_gradients(reuse_first):
    rng = rng_for("alias_linear")
    x0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    c1, c2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
    x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
    through = ad.sum_(ad.mul(ad.matmul(x, w, b), ad.constant(c1)))
    reuse = ad.sum_(ad.mul(x, ad.constant(c2)))
    ad.backward(ad.add(reuse, through) if reuse_first else ad.add(through, reuse))
    assert np.array_equal(x.grad, c1 @ w0.T + c2)
    assert np.array_equal(w.grad, x0.T @ c1)
    assert np.array_equal(b.grad, c1.sum(axis=0))


# ---------------------------------------------------------------------------
# graph recording


def assert_unrecorded(t):
    assert t._parents == () and t._backward is None and t.requires_grad is False


def test_no_grad_records_nothing_and_keeps_values():
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with ad.no_grad():
        y = ad.exp(ad.mul(x, x))
        out = ad.attention(ad.reshape(x, (1, 2)), ad.reshape(x, (1, 2)),
                           ad.reshape(x, (1, 2)), batch=1)
    assert_unrecorded(y)
    assert_unrecorded(out)
    np.testing.assert_array_equal(y.data, np.exp(x.data * x.data))
    assert ad.exp(x).requires_grad


def test_no_grad_restores_mode_after_nesting_and_exceptions():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert_unrecorded(ad.exp(x))
    assert ad.exp(x)._parents == (x,)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    recorded = ad.exp(x)
    assert recorded.requires_grad and recorded._backward is not None


def test_op_on_inputs_without_grad_records_no_parents():
    a = ad.constant(np.ones(3))
    b = Tensor(np.arange(3.0))
    assert_unrecorded(ad.add(a, b))
    assert_unrecorded(ad.sum_(ad.mul(a, b)))
    assert ad.add(a, ad.parameter(np.ones(3)))._parents[0] is a


def test_matmul_gradient_wrt_each_side():
    rng = rng_for("matmul_sides")
    b_frozen = ad.constant(rng.normal(size=(3, 3)))
    a_frozen = ad.constant(rng.normal(size=(3, 3)))
    err_a = ad.finite_diff_check(lambda t: ad.sum_(ad.matmul(t, b_frozen)), rng.normal(size=(3, 3)))
    err_b = ad.finite_diff_check(lambda t: ad.sum_(ad.matmul(a_frozen, t)), rng.normal(size=(3, 3)))
    assert err_a < 1e-6 and err_b < 1e-6


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
    st.floats(min_value=-50, max_value=50),
)
def test_softmax_rows_sum_to_one_and_shift_invariant(values, shift):
    x = np.array(values)
    base = ad.softmax(Tensor(x), axis=0).data
    shifted = ad.softmax(Tensor(x + shift), axis=0).data
    assert abs(base.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_backward_is_linear_on_shared_subgraph():
    rng = rng_for("linearity")
    x0 = rng.normal(size=(3, 3))
    alpha, beta = 0.7, -1.3

    def grads(combine):
        x = Tensor(x0.copy(), requires_grad=True)
        l1 = ad.sum_(ad.mul(x, x))
        l2 = ad.sum_(ad.exp(ad.scale(x, 0.1)))
        ad.backward(combine(l1, l2, x))
        return x.grad

    combined = grads(lambda l1, l2, x: ad.add(ad.scale(l1, alpha), ad.scale(l2, beta)))
    g1 = grads(lambda l1, l2, x: l1)
    g2 = grads(lambda l1, l2, x: l2)
    np.testing.assert_allclose(combined, alpha * g1 + beta * g2, atol=1e-10)


def test_gradient_accumulates_across_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    ad.backward(ad.sum_(y))
    np.testing.assert_allclose(x.grad, [5.0])
