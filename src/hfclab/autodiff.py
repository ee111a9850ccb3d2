"""Dense float64 tensors with reverse-mode automatic differentiation.

Every forward operation records its parents and a backward closure on the
output tensor; ``backward(loss)`` topologically sorts the reachable graph and
accumulates gradients in reverse. The graph is rebuilt from scratch on every
forward pass (dynamic graph), so one training step owns exactly one record.

An op records nothing (no parents, no closure, ``requires_grad`` False) when
none of its inputs requires a gradient, or inside ``with no_grad():``. Frozen
snapshots, constant-only subgraphs and inference passes therefore hold no
intermediates; the values they compute are the same either way.

``backward`` releases each non-leaf node's gradient, closure and parents once
the closure has passed the gradient on, so the graph's buffers die during the
reverse pass. Afterwards ``.grad`` is meaningful on leaves only (parameters and
inputs created with ``requires_grad=True``), and a graph supports one backward.

``attention(q, k, v, batch, heads)`` runs every head of a multi-head block in
one op: q, k and v are full-width row stacks read through head-major
(batch, heads, rows, head_dim) views, with a single backward closure that
keeps only the probabilities. The one operand BLAS rounds by its stride, a
right-hand matrix in row layout, is copied where it is used and not kept.
``matmul(x, w, b, skip)``, the one product op, is x @ w + b + skip as one
node, so a bias or a residual costs no node of its own; ``reshape`` returns a
view.

``finite_diff_check`` is the independent oracle used by the test suite and the
``gradcheck`` command: central differences per coordinate against the recorded
gradient.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

LOG_CLAMP = 1e-12
LAYER_NORM_EPS = 1e-5
FD_STEP = 1e-5  # central-difference step of the finite-difference oracle

# gelu tanh approximation constants
_GELU_C = math.sqrt(2.0 / math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an operation's contract."""


class Tensor:
    """A dense float64 array plus its slot in the active computation record.

    Leaf tensors (inputs, parameters) have no parents. Non-leaf tensors carry
    a backward closure that scatters the output gradient into their parents.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self._grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros for nodes backward never reached and for
        non-leaf nodes, whose gradients backward releases once spent."""
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g to the gradient. owned=True: g is a fresh array nothing else holds,
        so it is kept uncopied; a shared g or a view of one must pass owned=False."""
        if not self.requires_grad:
            return  # constants (masks, targets, averaging matrices) keep no gradient
        if self._grad is None:
            # asarray: a ufunc on 0-d operands returns a numpy scalar, not an array
            self._grad = np.asarray(g) if owned else np.array(g, dtype=np.float64, copy=True)
        else:
            self._grad += g  # safe: _grad is always owned by this tensor

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops inside the block record no graph; the previous mode is restored on exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _result(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    out = Tensor(data, op=op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def constant(data) -> Tensor:
    """A leaf that never receives gradient (detached target, mask, weight)."""
    return Tensor(data, requires_grad=False, op="const")


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=True, op="param")


# ---------------------------------------------------------------------------
# elementwise suite


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _result(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return _result(data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return _result(data, (a, b), backward, "div")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * c, owned=True)

    return _result(a.data * c, (a,), backward, "scale")


def add_const(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g)

    return _result(a.data + c, (a,), backward, "add_const")


def log(a: Tensor) -> Tensor:
    """Natural log with the input clamped below at LOG_CLAMP."""
    clamped = np.maximum(a.data, LOG_CLAMP)
    active = a.data > LOG_CLAMP

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.where(active, g / clamped, 0.0), owned=True)

    return _result(np.log(clamped), (a,), backward, "log")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * data, owned=True)

    return _result(data, (a,), backward, "exp")


def power(a: Tensor, p: float) -> Tensor:
    """a**p for a constant exponent; base clamped at LOG_CLAMP for p < 1."""
    p = float(p)
    base = np.maximum(a.data, LOG_CLAMP) if p < 1.0 else a.data
    data = base**p

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * p * base ** (p - 1.0), owned=True)

    return _result(data, (a,), backward, "power")


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximated gelu: 0.5x(1 + tanh(c(x + 0.044715x^3)))."""
    x = a.data
    if x.ndim == 0:  # out= needs array operands, and products of 0-d arrays are scalars
        return reshape(gelu(reshape(a, (1,))), ())
    # in-place ufuncs with the products of tanh((C*x) * (1 + 0.044715*(x*x))) and
    # (0.5*x) * (1 + t); only t is kept for the backward pass
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= _GELU_C * x
    np.tanh(t, out=t)
    data = t + 1.0
    data *= 0.5 * x

    def backward(g: np.ndarray) -> None:
        # g * (0.5*(1+t) + ((0.5*x)*(1-t*t)) * dinner), dinner = C*(1 + 3*0.044715*(x*x)),
        # in two buffers (0.5*x takes dinner's buffer before dinner does); x*x is
        # recomputed rather than kept alive since the forward pass
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        dinner = np.multiply(0.5, x)
        slope *= dinner
        np.multiply(x, x, out=dinner)
        dinner *= 3.0 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        slope *= dinner
        np.add(t, 1.0, out=dinner)
        dinner *= 0.5
        dinner += slope
        dinner *= g
        a._accumulate(dinner, owned=True)

    return _result(data, (a,), backward, "gelu")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    parts = list(tensors)
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[p.shape for p in parts]} along axis {axis}"
        )
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            part._accumulate(g[tuple(idx)])

    return _result(data, parts, backward, "concat")


def split(a: Tensor, sizes: Sequence[int], axis: int = 0) -> list[Tensor]:
    """Partition along an axis into consecutive chunks of the given sizes."""
    if sum(sizes) != a.data.shape[axis]:
        raise ShapeError(
            f"split: sizes {list(sizes)} do not cover extent {a.data.shape[axis]} on axis {axis}"
        )
    outs: list[Tensor] = []
    lo = 0
    for size in sizes:
        hi = lo + size
        idx = [slice(None)] * a.data.ndim
        idx[axis] = slice(lo, hi)
        idx_t = tuple(idx)

        def backward(g: np.ndarray, idx_t=idx_t) -> None:
            full = np.zeros_like(a.data)
            full[idx_t] = g
            a._accumulate(full, owned=True)

        outs.append(_result(a.data[idx_t].copy(), (a,), backward, "split"))
        lo = hi
    return outs


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.T)

    return _result(a.data.T.copy(), (a,), backward, "transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """A view of a's data in a new shape; no op writes a tensor's data in place."""
    new_shape = tuple(shape)
    if int(np.prod(new_shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {new_shape}")

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(a.shape))

    return _result(a.data.reshape(new_shape), (a,), backward, "reshape")


def tile_rows(a: Tensor, reps: int) -> Tensor:
    """Stack `reps` copies of a matrix vertically; backward sums the copies."""
    if a.data.ndim != 2:
        raise ShapeError(f"tile_rows: expected a matrix, got shape {a.shape}")

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(reps, *a.shape).sum(axis=0), owned=True)

    return _result(np.tile(a.data, (reps, 1)), (a,), backward, "tile_rows")


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g: np.ndarray) -> None:
        if axis is None:
            a._accumulate(np.full_like(a.data, float(g)), owned=True)
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(), owned=True)

    return _result(data, (a,), backward, "sum")


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum_(a, axis=axis), 1.0 / count)


# ---------------------------------------------------------------------------
# structured ops


def matmul(x: Tensor, w: Tensor, b: Tensor | None = None, skip: Tensor | None = None) -> Tensor:
    """x @ w + b + skip as one node: bias and skip are added in place to the product.

    Either addend may be None. Bit-identical to the bare product x @ w followed
    by add(skip, add(product, b)) in value, because IEEE addition commutes, and
    in every gradient; the gradient of an input that requires none (a constant
    x) is skipped. A residual `skip` thus costs no node and no kept product.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or (b is not None and b.data.shape != w.data.shape[1:])
            or (skip is not None and skip.data.shape != (x.data.shape[0], w.data.shape[1]))):
        shapes = ", ".join(str(t.shape) for t in (x, w, b, skip) if t is not None)
        raise ShapeError(f"matmul: shapes {shapes} do not chain")
    data = x.data @ w.data
    if b is not None:
        data += b.data
    if skip is not None:
        data += skip.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ w.data.T, owned=True)
        w._accumulate(x.data.T @ g, owned=True)
        if b is not None:
            b._accumulate(g.sum(axis=0), owned=True)
        if skip is not None:  # last: g is this node's own gradient and is read no further
            skip._accumulate(g, owned=True)

    parents = tuple(t for t in (x, w, b, skip) if t is not None)
    return _result(data, parents, backward, "matmul")


def attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int = 1) -> Tensor:
    """Sample-local softmax(q kᵀ) v per head over `batch` consecutive row blocks.

    q is (batch*m, d); k is (batch*n, d) and v (batch*n, dv). Head h owns
    column block h of width d/heads (dv/heads for v). Each array is read
    through a head-major (batch, heads, rows, width) view, not a copy. BLAS
    rounds a left operand and a transposed right operand the same whether it
    is a view or contiguous, but a right operand in row layout (v in p·v; k, q
    and g in the backward products) rounds by its row stride at small widths.
    That operand alone is made contiguous where it is used and is not kept,
    which keeps every result bit-identical to separate single-head calls.
    Every product writes through a strided view into its (rows, width) result.
    Scores are formed per sample and head (no cross-sample attention),
    softmaxed with max-subtraction along the key axis, and applied to v; head
    outputs come back side by side as (batch*m, dv). Backward keeps only the
    probabilities beyond the parents' own data.
    """
    bm, d = q.data.shape
    bn, dk = k.data.shape
    if dk != d or v.data.shape[0] != bn:
        raise ShapeError(f"attention: shapes {q.shape}/{k.shape}/{v.shape} do not agree")
    if bm % batch or bn % batch:
        raise ShapeError(f"attention: rows {bm}/{bn} not divisible by batch {batch}")
    dv = v.data.shape[1]
    if d % heads or dv % heads:
        raise ShapeError(f"attention: widths {d}/{dv} not divisible by heads {heads}")
    m, n = bm // batch, bn // batch

    def per_head(x: np.ndarray, rows: int) -> np.ndarray:
        return x.reshape(batch, rows, heads, -1).transpose(0, 2, 1, 3)

    def product(left: np.ndarray, right: np.ndarray, rows: int) -> np.ndarray:
        """left @ contiguous(right) per head, written into a (batch*rows, heads*width) array."""
        out = np.empty((batch * rows, heads * right.shape[3]))
        np.matmul(left, np.ascontiguousarray(right), out=per_head(out, rows))
        return out

    scores = per_head(q.data, m) @ per_head(k.data, n).transpose(0, 1, 3, 2)
    # one reduction when finite; a sum of finite scores can overflow, so recheck
    with np.errstate(over="ignore", invalid="ignore"):
        total = scores.sum()
    if not np.isfinite(total) and not np.isfinite(scores).all():
        raise ValueError("attention: scores contain non-finite values")
    scores -= scores.max(axis=3, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=3, keepdims=True)
    probs = scores  # (batch, heads, m, n), rows sum to 1

    def backward(g: np.ndarray) -> None:
        g4 = per_head(g, m)
        da = g4 @ per_head(v.data, n).transpose(0, 1, 3, 2)
        # ds = probs * (da - sum(da * probs)), built in da's buffer
        da -= (da * probs).sum(axis=3, keepdims=True)
        da *= probs
        q._accumulate(product(da, per_head(k.data, n), m), owned=True)
        k._accumulate(product(da.transpose(0, 1, 3, 2), per_head(q.data, m), n), owned=True)
        v._accumulate(product(probs.transpose(0, 1, 3, 2), g4, n), owned=True)

    return _result(product(probs, per_head(v.data, n), m), (q, k, v), backward, "attention")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along one axis; rejects non-finite input."""
    if not np.isfinite(a.data).all():
        raise ValueError("softmax: input contains non-finite values")
    ax = axis if axis >= 0 else a.data.ndim + axis
    if ax < 0 or ax >= a.data.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=ax, keepdims=True)

    def backward(g: np.ndarray) -> None:
        # d/dx softmax: s * (g - sum(g * s)) along the axis
        dot = (g * data).sum(axis=ax, keepdims=True)
        a._accumulate(data * (g - dot), owned=True)

    return _result(data, (a,), backward, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row over the last axis, then apply the affine map."""
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm: last extent must be positive")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} must be ({d},)"
        )
    # sum / d is the arithmetic np.mean does, without its Python-level wrapper
    mu = x.data.sum(axis=-1, keepdims=True) / d
    xhat = x.data - mu
    data = xhat * xhat
    var = data.sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=data)
    data += bias.data

    def backward(g: np.ndarray) -> None:
        # inv_std * ((gy - sum(gy)/d) - xhat * (sum(gy * xhat)/d)), built in gy's
        # buffer; xhat is rebuilt by the forward pass's two ops, so only mu and inv_std are kept
        xhat = x.data - mu
        xhat *= inv_std
        gy = g * gain.data
        scratch = gy * xhat
        dot = scratch.sum(axis=-1, keepdims=True) / d
        gy -= gy.sum(axis=-1, keepdims=True) / d
        np.multiply(xhat, dot, out=scratch)
        gy -= scratch
        gy *= inv_std
        x._accumulate(gy, owned=True)
        reduce_axes = tuple(range(g.ndim - 1))
        np.multiply(g, xhat, out=scratch)
        gain._accumulate(scratch.sum(axis=reduce_axes), owned=True)
        bias._accumulate(g.sum(axis=reduce_axes), owned=True)

    return _result(data, (x, gain, bias), backward, "layer_norm")


# ---------------------------------------------------------------------------
# reverse pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _spent(g: np.ndarray) -> None:  # the closure of a node that backward has released
    raise ValueError("backward: this graph was already released by an earlier backward")


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients of a scalar loss into all reachable leaves.

    Once a non-leaf node's closure has passed its gradient on, the node drops
    that gradient, the closure and its parents, so every buffer the closure
    kept dies as the reverse pass leaves it. After the call ``.grad`` is
    meaningful on leaves only, and a graph supports one backward: a second
    one, or one through a node of the released graph, raises ValueError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _topo_order(loss)
    loss._accumulate(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._grad, node._backward, node._parents = None, _spent, ()


# ---------------------------------------------------------------------------
# finite-difference oracle


def _central_difference_error(evaluate: Callable[[], float], flat: np.ndarray,
                              analytic: np.ndarray, floor: float) -> float:
    """Max relative error of `analytic` against central differences of evaluate().

    Each entry of `flat` (which evaluate() reads) is bumped by +-FD_STEP in
    place and restored. The per-coordinate denominator is max(|analytic|,
    |numeric|, floor).
    """
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = evaluate()
        flat[i] = orig - FD_STEP
        f_minus = evaluate()
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_diff_check(f: Callable[[Tensor], Tensor], x: np.ndarray) -> float:
    """Max relative error between the recorded gradient of f and central differences.

    f must be a pure map from one tensor to a scalar tensor. Relative error per
    coordinate uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    x0 = np.asarray(x, dtype=np.float64)

    probe = Tensor(x0.copy(), requires_grad=True)
    out = f(probe)
    backward(out)
    flat = x0.reshape(-1).copy()
    return _central_difference_error(lambda: f(Tensor(flat.reshape(x0.shape))).item(),
                                     flat, probe.grad.reshape(-1), 1e-8)
