"""Minimal reverse-mode autodiff over float64 numpy arrays.

Only the handful of ops the matching model needs: matmul, broadcast
add/mul/div, relu, exp/log, reductions, row gather (embedding lookup),
segment sum, neighbor pooling and column concat/slice. Gradients
accumulate into `.grad` of tensors created with requires_grad=True.
Scatter-adds (segment_sum forward, gather backward) and neighbor pooling
(`pool`, a gather and a segment_sum fused) are products with one-hot CSR
matrices, not np.add.at. A `Pooling` is one such matrix, built with no
sort from bucket-major index arrays; forward multiplies by it, backward by
its transpose. Either product adds each entry into its bucket in ascending
entry order, starting from zero: np.add.at's order, so the sums are the
same bit for bit and reproducible run to run.
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

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed=None):
        """Run reverse-mode accumulation from this tensor."""
        if seed is None:
            seed = np.ones_like(self.data)
        order = _toposort(self)
        grads = {id(self): np.asarray(seed, dtype=np.float64)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node._accumulate(g)
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if not parent.requires_grad or pg is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
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


def _scatter_add(idx, values, n):
    """Rows of `values` summed into n buckets by idx, for any order of idx:
    the transpose of the gather a[idx] as a pooling (row k selects idx[k])."""
    return Pooling(idx, np.arange(len(idx)), len(idx), n)._fwd.T @ values


def gather(a, idx):
    """Row lookup a[idx]; backward scatter-adds into the source rows."""
    a = as_tensor(a)
    idx = _rows(idx, len(a.data))
    out_data = a.data[idx]

    def backward(g):
        return (_scatter_add(idx, g, len(a.data)),)

    return Tensor(out_data, parents=(a,), backward=backward)


def segment_sum(a, segment_ids, num_segments):
    """Sum rows of a into num_segments buckets given per-row segment ids."""
    a = as_tensor(a)
    segment_ids = _rows(segment_ids, num_segments)
    out_data = _scatter_add(segment_ids, a.data, num_segments)

    def backward(g):
        return (g[segment_ids],)

    return Tensor(out_data, parents=(a,), backward=backward)


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
