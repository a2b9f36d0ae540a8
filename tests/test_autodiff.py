import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgmatch import autodiff as ad
from oracles import naive_scatter_add


def finite_diff(fn, tensor, eps=1e-6):
    num = np.zeros_like(tensor.data)
    for i in range(tensor.data.size):
        orig = tensor.data.flat[i]
        tensor.data.flat[i] = orig + eps
        lp = float(fn().data)
        tensor.data.flat[i] = orig - eps
        lm = float(fn().data)
        tensor.data.flat[i] = orig
        num.flat[i] = (lp - lm) / (2 * eps)
    return num


def check_grad(fn, tensors, tol=1e-7):
    out = fn()
    out.backward()
    for t in tensors:
        num = finite_diff(fn, t)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.abs(got - num).max() < tol, np.abs(got - num).max()
        t.grad = None


def test_matmul_add_relu_grads():
    rng = np.random.default_rng(0)
    W = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    X = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(3,)), requires_grad=True)
    check_grad(lambda: ad.relu(X @ W + b).sum(), [W, X, b])


def test_mul_div_broadcast_grads():
    rng = np.random.default_rng(1)
    a = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = ad.Tensor(rng.uniform(1.0, 2.0, size=(1, 3)), requires_grad=True)
    check_grad(lambda: (a * b).sum(), [a, b])
    check_grad(lambda: (a / b).sum(), [a, b])


def test_exp_log_sqrt_grads():
    rng = np.random.default_rng(2)
    a = ad.Tensor(rng.uniform(0.5, 2.0, size=(4, 2)), requires_grad=True)
    check_grad(lambda: ad.exp(a * 0.3).sum(), [a])
    check_grad(lambda: ad.log(a).sum(), [a])
    check_grad(lambda: ad.sqrt(a).sum(), [a])


def test_gather_segment_sum_grads():
    rng = np.random.default_rng(3)
    table = ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    idx = np.array([0, 3, 3, 6, 1])
    segs = np.array([0, 0, 1, 2, 2])

    def fn():
        g = ad.gather(table, ad.select(idx, 7))
        return (ad.segment_sum(g, segs, 3) * 1.5).sum()

    check_grad(fn, [table])


MIXED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e-9, 1e-9),
    st.floats(-1.0, 1.0),
    st.floats(-1e15, 1e15),
)


@st.composite
def scatter_cases(draw):
    """(n, idx, wide, d): idx in [0, n) with repeats, any order and empty
    buckets; wide is (len(idx), 2d), so wide[:, :d] is a non-contiguous slice."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 30))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)), dtype=np.int64)
    d = draw(st.integers(1, 4))
    flat = draw(st.lists(MIXED_FLOATS, min_size=2 * k * d, max_size=2 * k * d))
    return n, idx, np.array(flat, dtype=np.float64).reshape(k, 2 * d), d


@settings(max_examples=200, deadline=None)
@given(scatter_cases())
def test_segment_sum_equals_add_at_bitwise(case):
    n, idx, wide, d = case
    values = wide[:, d:]
    got = ad.segment_sum(values, idx, n).data
    assert got.tobytes() == naive_scatter_add(idx, values, n).tobytes()


@settings(max_examples=200, deadline=None)
@given(scatter_cases())
def test_gather_backward_equals_add_at_bitwise(case):
    n, idx, wide, d = case
    table = ad.Tensor(np.zeros((n, d)), requires_grad=True)
    # concat_cols backward hands gather the column slice wide[:, :d]
    ad.concat_cols([ad.gather(table, ad.select(idx, n)), np.zeros((len(idx), d))]).backward(wide)
    expect = np.zeros((n, d)) + naive_scatter_add(idx, wide[:, :d], n)
    assert table.grad.tobytes() == expect.tobytes()


@pytest.mark.parametrize("idx", [[0, -1], [0, 3]])
def test_gather_and_segment_sum_reject_out_of_range_rows(idx):
    with pytest.raises(IndexError):
        ad.gather(np.zeros((3, 2)), ad.select(idx, 3))
    with pytest.raises(IndexError):
        ad.segment_sum(np.zeros((2, 2)), idx, 3)


@st.composite
def pool_cases(draw):
    """(op, a_wide, g_wide, d): op pools bucket-major entries with repeated
    and unsorted source rows, empty buckets or no entries at all; a_wide is
    (n_in, 2d) and g_wide (n_out, 2d), so their column halves are
    non-contiguous."""
    n_in, n_out = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k = draw(st.integers(0, 30))
    src = draw(st.lists(st.integers(0, n_in - 1), min_size=k, max_size=k))
    dst = sorted(draw(st.lists(st.integers(0, n_out - 1), min_size=k, max_size=k)))
    d = draw(st.integers(1, 4))

    def block(rows):
        flat = draw(st.lists(MIXED_FLOATS, min_size=2 * rows * d, max_size=2 * rows * d))
        return np.array(flat, dtype=np.float64).reshape(rows, 2 * d)

    op = ad.Pooling(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n_out, n_in)
    return op, block(n_in), block(n_out), d


@settings(max_examples=200, deadline=None)
@given(pool_cases())
def test_pool_equals_gather_segment_sum_bitwise(case):
    op, a_wide, g_wide, d = case
    a, b = (ad.Tensor(a_wide[:, d:], requires_grad=True) for _ in range(2))
    got = ad.pool(a, op)
    want = ad.segment_sum(ad.gather(b, ad.select(op.src_rows, op.n_in)), op.dst_rows, op.n_out)
    assert got.data.tobytes() == want.data.tobytes()
    expect = naive_scatter_add(op.dst_rows, a_wide[:, d:][op.src_rows], op.n_out)
    assert got.data.tobytes() == expect.tobytes()
    # concat_cols backward hands each its gradient as the slice g_wide[:, :d]
    ad.concat_cols([got, np.zeros((op.n_out, d))]).backward(g_wide)
    ad.concat_cols([want, np.zeros((op.n_out, d))]).backward(g_wide)
    if not len(op.src_rows):  # a constant: no gradient reaches a
        assert a.grad is None and not b.grad.any()
    else:
        assert a.grad.tobytes() == b.grad.tobytes()
        g = g_wide[:, :d][op.dst_rows]
        expect = np.zeros((op.n_in, d)) + naive_scatter_add(op.src_rows, g, op.n_in)
        assert a.grad.tobytes() == expect.tobytes()


def test_pooling_rejects_bad_rows():
    with pytest.raises(IndexError):
        ad.Pooling(np.array([0, 3]), np.array([0, 0]), 1, 3)
    with pytest.raises(IndexError):
        ad.Pooling(np.array([0, 1]), np.array([0, -1]), 2, 3)
    with pytest.raises(ValueError, match="differ in length"):
        ad.Pooling(np.array([0, 1]), np.array([0]), 1, 3)
    with pytest.raises(ValueError, match="non-decreasing"):
        ad.Pooling(np.array([0, 1, 2]), np.array([0, 1, 0]), 2, 3)
    with pytest.raises(ValueError, match="expects 3 input rows"):
        ad.pool(np.zeros((2, 1)), ad.Pooling(np.array([0]), np.array([0]), 1, 3))
    with pytest.raises(ValueError, match="expects 3 input rows"):
        ad.gather(np.zeros((2, 1)), ad.select(np.array([0]), 3))


@st.composite
def selections(draw):
    """(rows, n, bad): rows in [0, n), maybe empty, repeated or unsorted, and
    the same rows with one outside [0, n) put in somewhere."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, n - 1), max_size=12))
    bad = list(rows)
    bad.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([-1, n, n + 3])))
    return rows, n, bad


@settings(max_examples=200, deadline=None)
@given(selections())
def test_select_writes_the_csr_of_its_pooling(case):
    """A selection's index arrays and both of its matrices equal those of the
    Pooling with one bucket per row, and it still range-checks its rows."""
    rows, n, bad = case
    got, want = ad.select(rows, n), ad.Pooling(rows, np.arange(len(rows)), len(rows), n)
    pairs = [(getattr(got, a), getattr(want, a)) for a in ("src_rows", "dst_rows", "counts")]
    for mat in ("_fwd", "_bwd"):
        g, w = getattr(got, mat), getattr(want, mat)
        assert type(g) is type(w) and g.shape == w.shape
        pairs += [(getattr(g, a), getattr(w, a)) for a in ("data", "indices", "indptr")]
    for g, w in pairs:
        assert g.dtype == w.dtype and np.array_equal(g, w)
    with pytest.raises(IndexError):
        ad.select(bad, n)


def test_concat_slice_grads():
    rng = np.random.default_rng(4)
    a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def fn():
        c = ad.concat_cols([a, b])
        return (ad.slice_cols(c, 1, 4) * 2.0).sum()

    check_grad(fn, [a, b])


def test_shared_node_accumulates():
    # same tensor used twice: gradients add up
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = (x * x).sum()
    y.backward()
    assert np.allclose(x.grad, [4.0])


def test_relu_subgradient_zero_at_zero():
    x = ad.Tensor(np.array([0.0, -1.0, 2.0]), requires_grad=True)
    ad.relu(x).sum().backward()
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_softmax_rows_sums_to_one():
    rng = np.random.default_rng(5)
    logits = ad.Tensor(rng.normal(scale=30.0, size=(10, 6)))
    sm = ad.softmax_rows(logits)
    assert np.allclose(sm.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(sm.data > 0)


def test_logsumexp_matches_naive_and_is_stable():
    logits = ad.Tensor(np.array([[1000.0, 1000.0, 999.0]]))
    lse = ad.logsumexp_rows(logits)
    expect = 1000.0 + np.log(np.exp(0.0) + np.exp(0.0) + np.exp(-1.0))
    assert np.allclose(lse.data, expect)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-20, 20))
def test_softmax_shift_invariance(logits, shift):
    row = np.array([logits])
    a = ad.softmax_rows(ad.Tensor(row)).data
    b = ad.softmax_rows(ad.Tensor(row + shift)).data
    assert np.abs(a - b).max() < 1e-6


def test_backward_seed_shape_mismatch_is_callers_problem():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    (x * 3.0).backward(np.ones((2, 2)))
    assert np.allclose(x.grad, 3.0)


def test_no_grad_records_no_tape():
    x = ad.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            pass
        y = (ad.relu(x @ np.ones((2, 2))) * 2.0).sum()
    assert not y.requires_grad and y._parents == () and y._backward is None
    taped = (ad.relu(x @ np.ones((2, 2))) * 2.0).sum()
    assert taped.requires_grad and taped._parents
    assert y.data.tobytes() == taped.data.tobytes()


def test_no_grad_restores_the_mode_after_an_exception():
    x = ad.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    (x * 3.0).sum().backward()
    assert np.allclose(x.grad, 3.0)


AFFINE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1.0, 1.0),
    st.floats(-1e15, 1e15),
)


@st.composite
def affine_cases(draw):
    """(x, W, b, extra, relu, g_wide): b and extra may be absent; g_wide is
    (n, 2d), and the output's gradient is its non-contiguous left half."""
    n, k, d = draw(st.integers(0, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def block(*shape):
        size = int(np.prod(shape))
        flat = draw(st.lists(AFFINE_FLOATS, min_size=size, max_size=size))
        return np.array(flat, dtype=np.float64).reshape(shape)

    b = block(d) if draw(st.booleans()) else None
    extra = block(n, d) if draw(st.booleans()) else None
    return block(n, k), block(k, d), b, extra, draw(st.booleans()), block(n, 2 * d)


@settings(max_examples=300, deadline=None)
@given(affine_cases())
def test_affine_equals_composed_ops_bitwise(case):
    x, W, b, extra, relu, g_wide = case
    d = W.shape[1]

    def leaves():
        return [None if a is None else ad.Tensor(a, requires_grad=True) for a in (x, W, b, extra)]

    fused_leaves, composed_leaves = leaves(), leaves()
    # the +-1e300 cases overflow to inf and nan in both paths alike
    with np.errstate(over="ignore", invalid="ignore"):
        fx, fW, fb, fe = fused_leaves
        fused = ad.affine(fx, fW, fb, relu=relu, extra=fe)
        cx, cW, cb, ce = composed_leaves
        composed = ad.matmul(cx, cW)
        for term in (cb, ce):
            if term is not None:
                composed = ad.add(composed, term)
        if relu:
            composed = ad.relu(composed)
        assert fused.data.tobytes() == composed.data.tobytes()
        for out in (fused, composed):
            ad.concat_cols([out, np.zeros((len(x), d))]).backward(g_wide)
        for f, c in zip(fused_leaves, composed_leaves):
            if f is not None:
                assert f.grad.tobytes() == c.grad.tobytes()


def test_gradient_from_many_paths_sums_without_mutating_upstream():
    # x reaches the root four ways: a concat_cols slice, an add pass-through
    # (whose gradient is itself a slice of the seed), a mul and affine's
    # extra; small integers keep every sum exact
    rng = np.random.default_rng(6)
    x = ad.Tensor(rng.integers(-3, 4, size=(3, 2)).astype(float), requires_grad=True)
    c = rng.integers(-3, 4, size=(3, 2)).astype(float)
    W = np.eye(2)
    h = ad.add(x, c)
    lin = ad.affine(c, W, extra=x)
    root = ad.concat_cols([x, h, x * 2.0, lin])
    seed = rng.integers(-5, 6, size=(3, 8)).astype(float)
    before = seed.copy()
    root.backward(seed)
    assert np.array_equal(seed, before)
    expect = seed[:, 0:2] + seed[:, 2:4] + 2.0 * seed[:, 4:6] + seed[:, 6:8]
    assert np.array_equal(x.grad, expect)


BROADCAST_OPS = {"add": ad.add, "mul": ad.mul, "div": ad.div}


@st.composite
def constant_operand_cases(draw):
    """(op name, operand shapes, index of the constant operand, seed): an
    (n, d) operand beside an (n, d), row (n, 1), column (1, d) or (d,) one,
    in either order."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shapes = [(n, d), draw(st.sampled_from([(n, d), (n, 1), (1, d), (d,)]))]
    if draw(st.booleans()):
        shapes.reverse()
    return (draw(st.sampled_from(sorted(BROADCAST_OPS))), shapes, draw(st.integers(0, 1)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(constant_operand_cases())
def test_a_constant_operand_gets_no_gradient_work(case):
    """add, mul and div hand an operand that needs no gradient None, its .grad
    stays None, and the other operand's gradient has the bytes it has when
    both operands need one."""
    name, shapes, const, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(0.5, 2.0, s) * rng.choice([-1.0, 1.0], s) for s in shapes]
    op = BROADCAST_OPS[name]
    leaves = [ad.Tensor(a, requires_grad=i != const) for i, a in enumerate(arrays)]
    out = op(*leaves)
    G = rng.uniform(-1.0, 1.0, out.shape)
    assert out._backward(G)[const] is None
    out.backward(G)
    assert leaves[const].grad is None
    both = [ad.Tensor(a, requires_grad=True) for a in arrays]
    op(*both).backward(G)
    assert leaves[1 - const].grad.tobytes() == both[1 - const].grad.tobytes()


def _pooling(rng, n_in):
    """A random bucket-major pooling of n_in source rows; maybe empty."""
    n_out, k = int(rng.integers(1, 6)), int(rng.integers(0, 9))
    return ad.Pooling(rng.integers(0, n_in, k), np.sort(rng.integers(0, n_out, k)), n_out, n_in)


# op -> (input shapes, as letters of the sizes n, k, d, the op over its inputs); the
# constants are float64 and must not promote a float32 input
DTYPE_OPS = {
    "add": (("nd", "1d"), lambda rng, a, b: a + b),
    "add_const": (("nd",), lambda rng, a: ad.add(np.full((1, a.shape[1]), 0.3), a)),
    "sub": (("nd", "nd"), lambda rng, a, b: a - b),
    "sub_const": (("nd",), lambda rng, a: a - 0.3),
    "neg": (("nd",), lambda rng, a: -a),
    "mul": (("nd", "n1"), lambda rng, a, b: a * b),
    "mul_const": (("nd",), lambda rng, a: a * (1.0 / np.arange(1.0, len(a.data) + 1.0))[:, None]),
    "div": (("nd", "1d"), lambda rng, a, b: a / b),
    "div_const": (("nd",), lambda rng, a: ad.div(a, 3.0)),
    "matmul": (("nk", "kd"), lambda rng, a, b: a @ b),
    "matmul_const": (("nk",), lambda rng, a: a @ np.ones((a.shape[1], 2))),
    "affine": (("nk", "kd", "d", "nd"),
               lambda rng, x, W, b, e: ad.affine(x, W, b, relu=True, extra=e)),
    # there and back: the float64 node between must get float64 gradients
    "cast": (("nd",), lambda rng, a: ad.cast(ad.cast(a, np.float64) * 2.0, a.data.dtype)),
    "relu": (("nd",), lambda rng, a: ad.relu(a)),
    "exp": (("nd",), lambda rng, a: ad.exp(a)),
    "log": (("nd",), lambda rng, a: ad.log(a)),
    "sqrt": (("nd",), lambda rng, a: ad.sqrt(a)),
    "tsum": (("nd",), lambda rng, a: a.sum()),
    "tsum_rows": (("nd",), lambda rng, a: a.sum(axis=1, keepdims=True)),
    "tsum_cols": (("nd",), lambda rng, a: a.sum(axis=0)),
    "pool": (("nd",), lambda rng, a: ad.pool(a, _pooling(rng, len(a.data)))),
    "gather": (("nd",), lambda rng, a: ad.gather(a, ad.select(rng.integers(0, len(a.data), 7),
                                                              len(a.data)))),
    "segment_sum": (("nd",), lambda rng, a: ad.segment_sum(a, rng.integers(0, 4, len(a.data)), 4)),
    "concat_cols": (("nd", "nk"), lambda rng, a, b: ad.concat_cols([a, b])),
    "slice_cols": (("nd",), lambda rng, a: ad.slice_cols(a, 0, (a.shape[1] + 1) // 2)),
    "softmax_rows": (("nd",), lambda rng, a: ad.softmax_rows(a)),
    "logsumexp_rows": (("nd",), lambda rng, a: ad.logsumexp_rows(a)),
}
POSITIVE_INPUTS = {"div", "log", "sqrt"}


def _close_at_float32(got, want):
    """Equal up to float32 rounding of inputs and results of magnitude <= ~50."""
    assert np.all(np.abs(got - want) <= 1e-5 * (1.0 + np.abs(want))), np.abs(got - want).max()


@pytest.mark.parametrize("name", sorted(DTYPE_OPS))
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 5), d=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_ops_keep_float32_and_agree_with_float64(name, n, k, d, seed):
    """Fed float32 casts of float64 leaves, an op's output and every node it
    records are float32 (but the float64 node of the cast round trip), each
    node's backward gets gradients in its own dtype, the leaves get float64
    gradients, and all of it agrees with the op at float64."""
    shapes, op = DTYPE_OPS[name]
    sizes = {"n": n, "k": k, "d": d, "1": 1}
    low = 0.5 if name in POSITIVE_INPUTS else -2.0
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(low, 2.0, tuple(sizes[c] for c in s)) for s in shapes]

    def run(dtype):
        leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
        inputs = leaves if dtype == np.float64 else [ad.cast(t, np.float32) for t in leaves]
        out = op(np.random.default_rng(seed), *inputs)
        nodes = [t for t in ad._toposort(out) if all(t is not leaf for leaf in leaves)]
        mismatched = []

        def checked(t, inner):
            def backward(g):
                if g.dtype != t.data.dtype:
                    mismatched.append(t)
                return inner(g)
            return backward

        for t in nodes:
            if t._backward is not None:
                t._backward = checked(t, t._backward)
        seed_grad = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, out.shape)
        out.backward(seed_grad.astype(dtype))
        assert not mismatched
        return leaves, nodes, out

    leaves64, _, out64 = run(np.float64)
    leaves32, nodes32, out32 = run(np.float32)
    assert out32.data.dtype == np.float32
    want = {np.float32, np.float64} if name == "cast" else {np.float32}
    assert {t.data.dtype.type for t in nodes32} == want
    _close_at_float32(out32.data, out64.data)
    for got, want in zip(leaves32, leaves64):
        if want.grad is None:  # a pooling of no entries is a constant
            assert got.grad is None
            continue
        assert got.grad.dtype == np.float64
        _close_at_float32(got.grad, want.grad)


def _relu_margin(pre):
    """The smallest distance of a relu input from its kink at 0."""
    return float(np.abs(pre).min(initial=np.inf))


# op -> (input shapes, as letters of the sizes n, k, d, the op over its float64
# inputs), each checked against central differences
FD_OPS = {
    "affine": (("nk", "kd"), lambda rng, x, W: ad.affine(x, W)),
    "affine_b": (("nk", "kd", "d"), lambda rng, x, W, b: ad.affine(x, W, b)),
    "affine_extra": (("nk", "kd", "nd"), lambda rng, x, W, e: ad.affine(x, W, extra=e)),
    "affine_relu": (("nk", "kd", "d"), lambda rng, x, W, b: ad.affine(x, W, b, relu=True)),
    "affine_relu_extra": (("nk", "kd", "d", "nd"),
                          lambda rng, x, W, b, e: ad.affine(x, W, b, relu=True, extra=e)),
    "pool": (("nd",), lambda rng, a: ad.pool(a, _pooling(rng, len(a.data)))),
    "gather": (("nd",), lambda rng, a: ad.gather(a, ad.select(rng.integers(0, len(a.data), 7),
                                                              len(a.data)))),
    "concat_cols": (("nd", "nk", "n1"), lambda rng, a, b, c: ad.concat_cols([a, b, c])),
    "slice_cols": (("nd",), lambda rng, a: ad.slice_cols(
        a, *sorted(rng.choice(a.shape[1] + 1, 2, replace=False).tolist()))),
    "logsumexp_rows": (("nd",), lambda rng, a: ad.logsumexp_rows(a)),
    "mul": (("nd", "nd"), lambda rng, a, b: a * b),
    "mul_rows": (("nd", "n1"), lambda rng, a, b: a * b),
    "mul_cols": (("nd", "1d"), lambda rng, a, b: a * b),
    "div_rows": (("nd", "n1"), lambda rng, a, b: a / b),
    "div_cols": (("nd", "1d"), lambda rng, a, b: a / b),
    # through float32 and back, so its differences are coarser
    "cast": (("nd",), lambda rng, a: ad.cast(ad.cast(a, np.float32) * 2.0, np.float64)),
}
FD_STEP = {"cast": (1e-3, 1e-3)}  # op -> (eps, tolerance); else (1e-6, 1e-6)


@pytest.mark.parametrize("name", sorted(FD_OPS))
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), k=st.integers(1, 4), d=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_op_gradients_match_central_differences(name, n, k, d, seed):
    """backward() of sum(op(inputs) * G), for a random G, equals float64
    central differences at every input entry."""
    shapes, op = FD_OPS[name]
    eps, tol = FD_STEP.get(name, (1e-6, 1e-6))
    sizes = {"n": n, "k": k, "d": d, "1": 1}
    data_rng = np.random.default_rng(seed)
    arrays = [data_rng.uniform(-2.0, 2.0, tuple(sizes[c] for c in s)) for s in shapes]
    if name.startswith("div"):
        arrays[1] = np.abs(arrays[1]) + 0.5
    if "relu" in name:
        x, W, b, *extra = arrays
        assume(_relu_margin(x @ W + b + sum(extra)) > 1e-4)
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]

    def out():
        return op(np.random.default_rng(seed), *leaves)

    G = data_rng.uniform(-1.0, 1.0, out().shape)
    out().backward(G)
    for leaf in leaves:
        want = finite_diff(lambda: ad.Tensor((out().data * G).sum()), leaf, eps)
        got = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))), np.abs(got - want).max()
