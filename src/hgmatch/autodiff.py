"""Minimal reverse-mode autodiff over float64 numpy arrays.

Only the handful of ops the matching model needs: matmul, broadcast
add/mul/div, relu, exp/log, reductions, row gather (embedding lookup),
segment sum, neighbor pooling, column concat/slice and `affine`, a whole
dense layer as one tape node. Gradients accumulate into `.grad` of tensors
created with requires_grad=True.
Every row index is a `Pooling`, a one-hot CSR matrix built with no sort
from bucket-major index arrays before the op that reads it runs; no
backward builds one. `pool` (neighbor pooling: a gather and a
segment_sum fused) multiplies by it, and a row lookup `gather` takes a
selection (`select`: one entry per bucket) and indexes by it;
`segment_sum`, which nothing in the package calls, selects in its forward.
Both backwards multiply by its transpose, which adds each entry into its
source row in ascending entry order, starting from zero: np.add.at's
order, so the sums are the same bit for bit and reproducible run to run.
Inference runs inside `no_grad()`: there every op returns a plain
constant Tensor (no parents, no backward closure), so no tape is recorded
and the arrays a backward would read are freed as soon as the forward
moves on. The values are those of the taped ops bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy import sparse

_grad_enabled = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Ops inside the block record no tape; the previous mode returns on exit."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        if parents and not _grad_enabled.get():
            parents, backward = (), None
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def backward(self, seed=None):
        """Run reverse-mode accumulation from this tensor. A first incoming
        gradient may alias another (add's pass-through, concat_cols' slices,
        affine's masked g), so only sums allocated here are added into."""
        if seed is None:
            seed = np.ones_like(self.data)
        order = _toposort(self)
        grads = {id(self): np.asarray(seed, dtype=np.float64)}
        owned = set()  # keys of the sums allocated here
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            owned.discard(id(node))
            if node.requires_grad and node._backward is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if not parent.requires_grad or pg is None:
                        continue
                    key = id(parent)
                    if key in owned:
                        grads[key] += pg
                    elif key in grads:
                        grads[key] = grads[key] + pg
                        owned.add(key)
                    else:
                        grads[key] = pg

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return list(reversed(order))


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, parents=(a, b), backward=backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out_data, parents=(a, b), backward=backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return Tensor(out_data, parents=(a, b), backward=backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out_data, parents=(a, b), backward=backward)


def affine(x, W, b=None, relu=False, extra=None):
    """relu(x @ W + b + extra), each of b, extra and relu optional, as one
    tape node computed in place. Its parents come in the order (x, W, b,
    extra), so values, gradients and their summation order are those of
    the composed matmul, add and relu ops bit for bit."""
    x, W = as_tensor(x), as_tensor(W)
    terms = tuple(as_tensor(t) for t in (b, extra) if t is not None)
    z = x.data @ W.data
    for t in terms:
        z += t.data
    mask = z > 0.0 if relu else None
    if relu:
        z *= mask

    def backward(g):
        gm = g * mask if relu else g
        return (gm @ W.data.T, x.data.T @ gm, *(_unbroadcast(gm, t.data.shape) for t in terms))

    return Tensor(z, parents=(x, W, *terms), backward=backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0

    def backward(g):
        return (g * mask,)

    return Tensor(a.data * mask, parents=(a,), backward=backward)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        return (g * out_data,)

    return Tensor(out_data, parents=(a,), backward=backward)


def log(a):
    a = as_tensor(a)

    def backward(g):
        return (g / a.data,)

    return Tensor(np.log(a.data), parents=(a,), backward=backward)


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out_data,)

    return Tensor(out_data, parents=(a,), backward=backward)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return Tensor(out_data, parents=(a,), backward=backward)


def _rows(idx, n):
    """idx as int64 row numbers; IndexError unless each is in [0, n)."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range [0, {n})")
    return idx


@dataclass(eq=False)
class Pooling:
    """Neighbor pooling out[dst_rows[k]] += a[src_rows[k]] over k, as a plan
    builds it once: gather by src_rows then segment_sum by dst_rows, fused.

    The entries come bucket-major (`dst_rows` never decreases; ValueError
    otherwise), as every plan and layout builder emits them, so the one-hot
    CSR matrix is read straight off the index arrays: row i lists bucket
    i's source rows in ascending k. `counts` holds the entries per bucket
    (float), the divisor of a mean. Backward multiplies by the transpose
    (CSC), which adds each bucket's gradient into its source rows in
    ascending k, so values and gradients are those of gather followed by
    segment_sum bit for bit.
    """

    src_rows: np.ndarray  # row of `a` for each pooled entry
    dst_rows: np.ndarray  # output bucket of each pooled entry, non-decreasing
    n_out: int
    n_in: int

    def __post_init__(self):
        self.src_rows = _rows(self.src_rows, self.n_in)
        self.dst_rows = _rows(self.dst_rows, self.n_out)
        if len(self.src_rows) != len(self.dst_rows):
            raise ValueError("src_rows and dst_rows differ in length")
        if np.any(np.diff(self.dst_rows) < 0):
            raise ValueError("dst_rows must be non-decreasing (bucket-major entries)")
        counts = np.bincount(self.dst_rows, minlength=self.n_out)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        self.counts = counts.astype(np.float64)
        self._fwd = sparse.csr_array(
            (np.ones(len(self.src_rows)), self.src_rows, indptr), shape=(self.n_out, self.n_in)
        )


def pool(a, op: Pooling):
    """op's buckets summed from the rows of a; a constant zero block when
    op pools nothing, so no gradient flows."""
    a = as_tensor(a)
    if len(a.data) != op.n_in:
        raise ValueError(f"pool expects {op.n_in} input rows, got {len(a.data)}")
    if not len(op.src_rows):
        return Tensor(np.zeros((op.n_out,) + a.data.shape[1:]))

    def backward(g):
        return (op._fwd.T @ g,)

    return Tensor(op._fwd @ a.data, parents=(a,), backward=backward)


def select(rows, n) -> Pooling:
    """The row lookup a[rows] of an n-row `a` as a Pooling with one entry
    per bucket: bucket k reads row rows[k]."""
    return Pooling(rows, np.arange(len(rows)), len(rows), n)


def gather(a, op: Pooling):
    """Row lookup a[op.src_rows] through a selection (`select`). The forward
    indexes rather than multiplies, so a -0.0 stays -0.0; backward adds each
    row's gradient into its source row, as `pool`'s does."""
    a = as_tensor(a)
    if len(a.data) != op.n_in:
        raise ValueError(f"gather expects {op.n_in} input rows, got {len(a.data)}")

    def backward(g):
        return (op._fwd.T @ g,)

    return Tensor(a.data[op.src_rows], parents=(a,), backward=backward)


def segment_sum(a, segment_ids, num_segments):
    """Sum rows of a into num_segments buckets given per-row segment ids."""
    a = as_tensor(a)
    op = select(segment_ids, num_segments)

    def backward(g):
        return (g[op.src_rows],)

    return Tensor(op._fwd.T @ a.data, parents=(a,), backward=backward)


def concat_cols(tensors):
    tensors = [as_tensor(t) for t in tensors]
    widths = [t.data.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + widths)

    def backward(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(tensors)))

    return Tensor(out_data, parents=tuple(tensors), backward=backward)


def slice_cols(a, start, stop):
    a = as_tensor(a)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        return (ga,)

    return Tensor(a.data[:, start:stop], parents=(a,), backward=backward)


def softmax_rows(logits):
    """Row softmax with max-shift; the shift is a constant so grads stay exact."""
    shift = logits.data.max(axis=1, keepdims=True)
    e = exp(add(logits, -shift))
    return div(e, e.sum(axis=1, keepdims=True))


def logsumexp_rows(logits):
    shift = logits.data.max(axis=1, keepdims=True)
    e = exp(add(logits, -shift))
    return add(log(e.sum(axis=1, keepdims=True)), shift)
