import json
import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlp_oracle
from pursuit_lab import nn


def finite_difference(f, params, eps=1e-6):
    """Central finite differences of a scalar function over a list of arrays."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_zero_net_zero_output():
    mlp = nn.Mlp(
        weights=[np.zeros((3, 4)), np.zeros((4, 2))],
        biases=[np.zeros(4), np.zeros(2)],
    )
    out, _ = nn.mlp_forward(mlp, np.ones((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_identity_single_layer():
    mlp = nn.Mlp(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([[0.3, -0.7, 2.0]])
    out, _ = nn.mlp_forward(mlp, x)
    np.testing.assert_array_equal(out, x)


def test_forward_matches_manual_matmul():
    rng = np.random.default_rng(0)
    mlp = nn.mlp_init([4, 6, 3], rng, dtype=np.float64)
    x = rng.standard_normal((7, 4))
    out, _ = nn.mlp_forward(mlp, x)
    manual = np.tanh(x @ mlp.weights[0] + mlp.biases[0]) @ mlp.weights[1] + mlp.biases[1]
    np.testing.assert_allclose(out, manual, rtol=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(1)
    mlp = nn.mlp_init([5, 8, 2], rng, dtype=np.float64)
    x = rng.standard_normal((3, 5))
    a, _ = nn.mlp_forward(mlp, x)
    b, _ = nn.mlp_forward(mlp, x)
    np.testing.assert_array_equal(a, b)


def test_forward_dimension_mismatch():
    rng = np.random.default_rng(2)
    mlp = nn.mlp_init([5, 3], rng)
    with pytest.raises(ValueError):
        nn.mlp_forward(mlp, np.zeros((2, 4)))


def test_forward_and_backward_take_batches_of_rows():
    mlp = nn.mlp_init([5, 3], np.random.default_rng(2))
    with pytest.raises(ValueError):
        nn.mlp_forward(mlp, np.zeros(5))  # one row is (1, 5), not (5,)
    _, cache = nn.mlp_forward(mlp, np.zeros((1, 5)))
    with pytest.raises(ValueError):
        nn.mlp_backward(mlp, cache, np.zeros(3))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    for dims in ([3, 5, 2], [4, 8, 8, 1], [2, 16, 4]):
        mlp = nn.mlp_init(dims, rng, dtype=np.float64)
        x = rng.standard_normal((6, dims[0]))
        w = rng.standard_normal((6, dims[-1]))  # fixed projection to a scalar

        def loss():
            out, _ = nn.mlp_forward(mlp, x)
            return float(np.sum(out * w))

        out, cache = nn.mlp_forward(mlp, x)
        grads, _ = nn.mlp_backward(mlp, cache, w)
        numeric = finite_difference(loss, mlp.arrays())
        assert max_rel_error(grads, numeric) < 1e-4


def test_backward_input_gradient():
    rng = np.random.default_rng(4)
    mlp = nn.mlp_init([3, 6, 2], rng, dtype=np.float64)
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((2, 2))

    def loss():
        out, _ = nn.mlp_forward(mlp, x)
        return float(np.sum(out * w))

    _, cache = nn.mlp_forward(mlp, x)
    _, dx = nn.mlp_backward(mlp, cache, w)
    numeric = finite_difference(loss, [x])
    assert max_rel_error([dx], numeric) < 1e-4


def test_backward_zero_gradient_and_linearity():
    rng = np.random.default_rng(5)
    mlp = nn.mlp_init([3, 4, 2], rng, dtype=np.float64)
    x = rng.standard_normal((5, 3))
    _, cache = nn.mlp_forward(mlp, x)
    zero_grads, _ = nn.mlp_backward(mlp, cache, np.zeros((5, 2)))
    for g in zero_grads:
        np.testing.assert_array_equal(g, np.zeros_like(g))
    g1 = rng.standard_normal((5, 2))
    g2 = rng.standard_normal((5, 2))
    a, _ = nn.mlp_backward(mlp, cache, g1)
    b, _ = nn.mlp_backward(mlp, cache, g2)
    ab, _ = nn.mlp_backward(mlp, cache, g1 + g2)
    for ga, gb, gab in zip(a, b, ab):
        np.testing.assert_allclose(ga + gb, gab, rtol=1e-10, atol=1e-12)


def test_gaussian_log_prob_closed_form():
    mean = np.zeros((1, 3))
    log_std = np.zeros(3)  # std 1
    lp = nn.gaussian_log_prob(mean, log_std, mean)
    assert lp[0] == pytest.approx(-0.5 * math.log(2 * math.pi) * 3)


def test_gaussian_entropy_closed_form():
    assert nn.gaussian_entropy(np.zeros(1)) == pytest.approx(0.5 * math.log(2 * math.pi * math.e))
    assert nn.gaussian_entropy(np.zeros(1)) == pytest.approx(1.4189385332)


def test_gaussian_sample_moments():
    rng = np.random.default_rng(6)
    mean = np.array([[0.7, -1.2]])
    log_std = np.array([math.log(0.5), math.log(1.5)])
    samples = nn.gaussian_sample(np.repeat(mean, 1_000_000, axis=0), log_std, rng)
    emp_mean = samples.mean(axis=0)
    emp_std = samples.std(axis=0)
    np.testing.assert_allclose(emp_mean, mean[0], atol=0.01)
    np.testing.assert_allclose(emp_std, [0.5, 1.5], rtol=0.01)


def gaussian_kl(mean_p, log_std_p, mean_q, log_std_q):
    """Closed-form KL(p || q) for diagonal Gaussians; >= 0, 0 iff p == q."""
    lp = nn.clamp_log_std(np.asarray(log_std_p, dtype=np.float64))
    lq = nn.clamp_log_std(np.asarray(log_std_q, dtype=np.float64))
    mp = np.asarray(mean_p, dtype=np.float64)
    mq = np.asarray(mean_q, dtype=np.float64)
    var_p = np.exp(2.0 * lp)
    var_q = np.exp(2.0 * lq)
    per_dim = lq - lp + (var_p + (mp - mq) ** 2) / (2.0 * var_q) - 0.5
    return float(np.sum(per_dim))


def test_gaussian_kl_reference_values():
    assert gaussian_kl([0.0], [0.0], [0.0], [0.0]) == 0.0
    assert gaussian_kl([0.0], [0.0], [1.0], [0.0]) == pytest.approx(0.5)
    rng = np.random.default_rng(7)
    for _ in range(10):
        mp, mq = rng.normal(size=2), rng.normal(size=2)
        lp, lq = rng.uniform(-1, 0.5, 2), rng.uniform(-1, 0.5, 2)
        kl = gaussian_kl(mp, lp, mq, lq)
        assert kl >= 0.0
        assert gaussian_kl(mp, lp, mp, lp) == 0.0


def test_gaussian_kl_vs_monte_carlo():
    rng = np.random.default_rng(8)
    for _ in range(5):
        dim = int(rng.integers(1, 4))
        mp = rng.uniform(-1, 1, dim)
        mq = rng.uniform(-1, 1, dim)
        lp = rng.uniform(-0.7, 0.4, dim)
        lq = rng.uniform(-0.7, 0.4, dim)
        closed = gaussian_kl(mp, lp, mq, lq)
        x = mp + np.exp(lp) * rng.standard_normal((1_000_000, dim))
        log_p = nn.gaussian_log_prob(np.broadcast_to(mp, x.shape), lp, x)
        log_q = nn.gaussian_log_prob(np.broadcast_to(mq, x.shape), lq, x)
        mc = float(np.mean(log_p - log_q))
        assert abs(closed - mc) < 1e-2


def test_gaussian_log_prob_gradients_finite_difference():
    rng = np.random.default_rng(9)
    mean = rng.standard_normal((4, 2))
    log_std = rng.uniform(-1, 0.5, 2)
    actions = rng.standard_normal((4, 2))

    def total():
        return float(np.sum(nn.gaussian_log_prob(mean, log_std, actions)))

    sigma = np.exp(log_std)
    dmean = (actions - mean) / sigma**2
    dlog_std = np.sum(((actions - mean) / sigma) ** 2 - 1.0, axis=0)
    numeric = finite_difference(total, [mean, log_std])
    assert max_rel_error([dmean, dlog_std], numeric) < 1e-4


def test_log_std_clamp():
    clamped = nn.clamp_log_std(np.array([-10.0, 0.0, 5.0]))
    np.testing.assert_array_equal(clamped, [-5.0, 0.0, 2.0])
    mask = nn.log_std_grad_mask(np.array([-10.0, 0.0, 5.0]))
    np.testing.assert_array_equal(mask, [0.0, 1.0, 0.0])


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(10)
    params = [rng.standard_normal((3, 3)), rng.standard_normal(3)]
    before = [p.copy() for p in params]
    opt = nn.adam_init(params, lr=1e-3)
    nn.adam_step(opt, params, [np.zeros((3, 3)), np.zeros(3)])
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p, b)


def test_adam_single_step_matches_hand_formula():
    params = [np.array([1.0, -2.0])]
    g = np.array([0.5, -0.25])
    opt = nn.adam_init(params, lr=0.01)
    nn.adam_step(opt, params, [g.copy()])
    # t=1: m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params[0], expected, rtol=1e-9)


def test_adam_descends_constant_gradient():
    params = [np.array([0.0])]
    opt = nn.adam_init(params, lr=0.01)
    for _ in range(100):
        nn.adam_step(opt, params, [np.array([2.0])])
    assert params[0][0] < 0.0  # moves opposite the gradient sign


def test_adam_rejects_nonfinite():
    params = [np.array([1.0])]
    opt = nn.adam_init(params)
    with pytest.raises(FloatingPointError):
        nn.adam_step(opt, params, [np.array([np.nan])])


def test_adam_shape_mismatch_changes_nothing():
    # the last gradient has the wrong shape or dtype or is not finite: the
    # step fails before it updates the parameters, moments or step count
    rng = np.random.default_rng(12)
    params = [rng.standard_normal((3, 3)), rng.standard_normal(3), rng.standard_normal(2)]
    opt = nn.adam_init(params, lr=1e-3)
    nn.adam_step(opt, params, [rng.standard_normal(p.shape) for p in params])
    before = [a.copy() for a in params + opt.m + opt.v]
    bad_last = [
        (rng.standard_normal(3), ValueError, "gradient shape"),
        (rng.standard_normal(2).astype(np.float32), ValueError, "gradient dtype"),
        (np.array([1.0, np.inf]), FloatingPointError, "non-finite"),
    ]
    for last, error, message in bad_last:
        grads = [rng.standard_normal((3, 3)), rng.standard_normal(3), last]
        with pytest.raises(error, match=message):
            nn.adam_step(opt, params, grads)
        assert opt.t == 1
        for a, b in zip(params + opt.m + opt.v, before):
            assert a.tobytes() == b.tobytes()


def test_adam_init_rejects_mixed_dtypes():
    with pytest.raises(ValueError, match="one dtype"):
        nn.adam_init([np.zeros(3, np.float32), np.zeros(2, np.float64)])


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    arrays = [
        ("actor.w0", rng.standard_normal((4, 8)).astype(np.float32)),
        ("actor.b0", rng.standard_normal(8).astype(np.float32)),
        ("log_std", rng.standard_normal(1).astype(np.float32)),
    ]
    path = tmp_path / "ckpt.zip"
    nn.save_arrays(path, "actor_critic", arrays, extra={"obs_len": 4, "suc": 0.5})
    manifest, loaded = nn.load_arrays(path)
    assert manifest["kind"] == "actor_critic"
    assert manifest["dtype"] == "float32"
    assert manifest["extra"]["obs_len"] == 4
    for name, arr in arrays:
        np.testing.assert_array_equal(loaded[name], arr)  # float32 exact


def _write_archive(path, manifest: dict, params: bytes) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        zf.writestr("params.bin", params)


def _saved_parts(tmp_path):
    arrays = [("w", np.arange(6, dtype=np.float32).reshape(2, 3)), ("b", np.ones(3, dtype=np.float32))]
    path = tmp_path / "good.zip"
    nn.save_arrays(path, "actor_critic", arrays)
    with zipfile.ZipFile(path) as zf:
        return json.loads(zf.read("manifest.json")), zf.read("params.bin")


def test_checkpoint_rejects_unknown_format_version(tmp_path):
    manifest, params = _saved_parts(tmp_path)
    manifest["format_version"] = nn.CHECKPOINT_FORMAT_VERSION + 1
    _write_archive(tmp_path / "bad.zip", manifest, params)
    with pytest.raises(ValueError, match="format_version"):
        nn.load_arrays(tmp_path / "bad.zip")


@pytest.mark.parametrize("cut", [-4, 4], ids=["truncated", "trailing"])
def test_checkpoint_rejects_params_size_mismatch(tmp_path, cut):
    manifest, params = _saved_parts(tmp_path)
    params = params[:cut] if cut < 0 else params + b"\0" * cut
    _write_archive(tmp_path / "bad.zip", manifest, params)
    with pytest.raises(ValueError, match="params.bin"):
        nn.load_arrays(tmp_path / "bad.zip")


def test_checkpoint_missing_array_is_value_error(tmp_path):
    manifest, params = _saved_parts(tmp_path)
    _write_archive(tmp_path / "ok.zip", manifest, params)
    _, arrays = nn.load_arrays(tmp_path / "ok.zip")
    with pytest.raises(ValueError, match="no array named 'critic.w0'"):
        arrays["critic.w0"]


def test_checkpoint_resave_is_byte_identical(tmp_path):
    # entries carry a fixed timestamp instead of the wall clock
    arrays = [("w", np.arange(6, dtype=np.float32))]
    nn.save_arrays(tmp_path / "a.zip", "actor_critic", arrays, extra={"step": 1})
    nn.save_arrays(tmp_path / "b.zip", "actor_critic", arrays, extra={"step": 1})
    assert (tmp_path / "a.zip").read_bytes() == (tmp_path / "b.zip").read_bytes()
    with zipfile.ZipFile(tmp_path / "a.zip") as zf:
        assert [info.date_time for info in zf.infolist()] == [nn.ZIP_DATE_TIME] * 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [64, 128])
def test_a_stacked_forward_equals_one_row_forwards_bitwise(dtype, hidden):
    # the episode loop acts for k slots with one (k, 1, d) forward; each row
    # must keep the bits of its own one-row forward, as the golden keys need
    rng = np.random.default_rng(hidden)
    mlp = nn.mlp_init([18, hidden, hidden, 1], rng, dtype=dtype)
    for k in (1, 4, 20, 40):
        rows = rng.standard_normal((k, 18))
        stacked, _ = nn.mlp_forward(mlp, rows[:, None, :])
        assert stacked.shape == (k, 1, 1) and stacked.dtype == dtype
        one_row = np.concatenate([nn.mlp_forward(mlp, rows[j : j + 1])[0] for j in range(k)])
        assert stacked[:, 0, :].tobytes() == one_row.tobytes()
    with pytest.raises(ValueError):
        nn.mlp_forward(mlp, rows[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4])
def test_a_batch_of_row_blocks_equals_one_forward_per_block_bitwise(dtype, k):
    # the self-play score acts for B episodes' k slots with one (B, k, d)
    # forward; each episode's block must keep the bits of its own (k, d) one
    rng = np.random.default_rng(k)
    mlp = nn.mlp_init([18, 128, 128, 1], rng, dtype=dtype)
    for b in (1, 3, 50):
        blocks = rng.standard_normal((b, k, 18))
        stacked, _ = nn.mlp_forward(mlp, blocks)
        assert stacked.shape == (b, k, 1) and stacked.dtype == dtype
        each = np.stack([nn.mlp_forward(mlp, block)[0] for block in blocks])
        assert stacked.tobytes() == each.tobytes()


# ---------------------------------------------------------------------------
# The kernels against the plain formulas of `mlp_oracle`, bit for bit
# ---------------------------------------------------------------------------

@st.composite
def mlp_cases(draw):
    """An MLP of the trainings' kinds (1-, 2- and 16-wide outputs), an input
    batch and an output gradient with signed zeros and zero rows."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    hidden = draw(st.lists(st.sampled_from([1, 5, 64, 128]), min_size=0, max_size=2))
    dims = [draw(st.integers(1, 40)), *hidden, draw(st.sampled_from([1, 2, 16]))]
    rows = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mlp = nn.mlp_init(dims, rng, dtype=dtype)
    for b in mlp.biases:
        b[:] = rng.standard_normal(b.shape)
    # signed zeros in the output layer, whose one-column product must keep +0.0
    w = mlp.weights[-1]
    w[rng.random(w.shape) < 0.1] = 0.0
    w[rng.random(w.shape) < 0.1] = -0.0
    x = rng.standard_normal((rows, dims[0])).astype(dtype)
    # subnormal scales: products underflow to signed zeros (float32 at 1e-42, float64 at 1e-320)
    scale = draw(st.sampled_from([1.0, 1e-20, 1e-42, 1e-320]))
    dout = (rng.standard_normal((rows, dims[-1])) * scale).astype(dtype)
    dout[rng.random(dout.shape) < 0.2] = 0.0
    dout[rng.random(dout.shape) < 0.2] = -0.0
    dout[rng.random(rows) < 0.2] = 0.0
    dout[rng.random(rows) < 0.2] = -0.0
    return mlp, x, dout


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(mlp_cases())
def test_kernels_equal_the_oracle_bitwise(case):
    mlp, x, dout = case
    x_before, dout_before = x.copy(), dout.copy()
    out, cache = nn.mlp_forward(mlp, x)
    want_out, want_cache = mlp_oracle.mlp_forward(mlp, x)
    assert_same_bytes([out, *cache], [want_out, *want_cache])
    grads, dx = nn.mlp_backward(mlp, cache, dout)
    want_grads, want_dx = mlp_oracle.mlp_backward(mlp, want_cache, dout)
    assert_same_bytes(grads, want_grads)
    # NAHT-D reads the actor's and the decoder's input gradients
    assert_same_bytes([dx], [want_dx])
    grads_only, no_dx = nn.mlp_backward(mlp, cache, dout, input_grad=False)
    assert no_dx is None
    assert_same_bytes(grads_only, want_grads)
    # neither pass writes into its caller's arrays
    assert x.tobytes() == x_before.tobytes() and dout.tobytes() == dout_before.tobytes()
    assert_same_bytes(cache, want_cache)


@settings(max_examples=50, deadline=None)
@given(mlp_cases(), st.integers(1, 40))
def test_stacked_forward_equals_the_oracle_bitwise(case, k):
    mlp, x, _ = case
    stack = x[:k, None, :]
    out, cache = nn.mlp_forward(mlp, stack)
    want_out, want_cache = mlp_oracle.mlp_forward(mlp, stack)
    assert_same_bytes([out, *cache], [want_out, *want_cache])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_one_column_backward_product_writes_positive_zeros(dtype):
    # matmul sums its products from +0.0, so 0.0 * -w gives +0.0 there; the
    # broadcast multiply alone would give -0.0
    mlp = nn.Mlp([np.full((3, 1), -2.0, dtype=dtype)], [np.zeros(1, dtype=dtype)])
    _, cache = nn.mlp_forward(mlp, np.ones((2, 3)))
    _, dx = nn.mlp_backward(mlp, cache, np.array([[0.0], [1.0]], dtype=dtype))
    assert dx.tobytes() == np.array([[0.0] * 3, [-2.0] * 3], dtype=dtype).tobytes()
    assert not np.signbit(dx[0]).any()


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("dims, rows", [([18, 128, 128, 1], 256), ([3, 128, 16], 768)], ids=["actor", "relpos"])
def test_backward_scratch_never_escapes(dims, rows, input_grad):
    # the backward pass reuses its temporaries from call to call: a second
    # call of the same shapes must leave the first call's results as they were
    rng = np.random.default_rng(rows)
    mlp = nn.mlp_init(dims, rng)
    x1, x2 = rng.standard_normal((2, rows, dims[0])).astype(np.float32)
    d1, d2 = rng.standard_normal((2, rows, dims[-1])).astype(np.float32)
    _, c1 = nn.mlp_forward(mlp, x1)
    grads, dx = nn.mlp_backward(mlp, c1, d1, input_grad=input_grad)
    first = grads + [dx] * input_grad
    kept = [a.copy() for a in first]
    _, c2 = nn.mlp_forward(mlp, x2)
    nn.mlp_backward(mlp, c2, d2, input_grad=input_grad)
    assert_same_bytes(first, kept)
    want_grads, want_dx = mlp_oracle.mlp_backward(mlp, c1, d1)
    assert_same_bytes(first, want_grads + [want_dx] * input_grad)
    # calls of other shapes fill, and evict from, the buffer cache; a call
    # of the first shapes after them still has the oracle's bits
    for other_rows in range(1, 11):
        other = nn.mlp_init([5, 64, 64, 2], rng)
        _, cache = nn.mlp_forward(other, rng.standard_normal((other_rows, 5)))
        nn.mlp_backward(other, cache, rng.standard_normal((other_rows, 2)))
    d1_before = d1.copy()
    again, again_dx = nn.mlp_backward(mlp, c1, d1, input_grad=input_grad)
    assert_same_bytes(again + [again_dx] * input_grad, want_grads + [want_dx] * input_grad)
    assert d1.tobytes() == d1_before.tobytes()


# ---------------------------------------------------------------------------
# The flat Adam step against the per-array oracle, bit for bit
# ---------------------------------------------------------------------------

@st.composite
def adam_cases(draw):
    """Parameters of one dtype, an lr and a gradient per step with signed
    zeros, subnormals and +-1e30."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shapes = draw(
        st.lists(
            st.one_of(st.just((1,)), st.tuples(st.integers(1, 300)), st.tuples(st.integers(1, 40), st.integers(1, 40))),
            min_size=1,
            max_size=40,
        )
    )
    lr = draw(st.floats(1e-6, 1.0))
    n_steps = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e30, -1e30], dtype=dtype)
    steps = []
    for _ in range(n_steps):
        grads = []
        for shape in shapes:
            g = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3)).astype(dtype)
            pick = rng.random(shape) < 0.1
            g[pick] = rng.choice(specials, size=int(pick.sum()))
            grads.append(g)
        steps.append(grads)
    return params, lr, steps


@settings(max_examples=100, deadline=None)
@given(adam_cases())
def test_adam_step_equals_the_oracle_bitwise(case):
    params, lr, steps = case
    mine = [p.copy() for p in params]
    opt = nn.adam_init(mine, lr=lr)
    want = [p.copy() for p in params]
    oracle = mlp_oracle.adam_init(want, lr=lr)
    with np.errstate(over="ignore"):  # +-1e30 squares to inf in float32
        for grads in steps:
            nn.adam_step(opt, mine, grads)
            mlp_oracle.adam_step(oracle, want, grads)
            assert opt.t == oracle.t
            assert_same_bytes(mine + opt.m + opt.v, want + oracle.m + oracle.v)
