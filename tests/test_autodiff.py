"""Unit tests for the tape engine: values, backward rules, tape invariants."""

import math

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag.autodiff import Tape, Tensor, backward
from seqtag.errors import ConfigError, ContractError, DimensionError, NumericError
from seqtag.rng import SplitMix64


def _rand(rng, shape):
    return rng.uniform_array(shape, -1.0, 1.0)


def _fd_check(build, params, h=1e-5, tol=1e-6):
    """Analytic vs central-difference gradients for scalar loss `build()`."""
    with Tape():
        loss = build()
        backward(loss)
    for p in params:
        fd = ad.numeric_gradients(lambda: (build(),), p, h=h)[0]
        assert ad.relative_error(p.grad, fd) < tol, p.name


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0], [4.0]])
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.values, [[3.0], [4.0]])

    def test_annihilator(self):
        z = Tensor(np.zeros((2, 2)))
        x = Tensor([[5.0, -1.0], [2.0, 7.0]])
        np.testing.assert_array_equal(ad.matmul(z, x).values, np.zeros((2, 2)))

    def test_random_against_triple_loop(self):
        rng = SplitMix64(7)
        a = Tensor(_rand(rng, (3, 4)), requires_grad=True, name="a")
        b = Tensor(_rand(rng, (4, 2)), requires_grad=True, name="b")
        upstream = _rand(rng, (3, 2))

        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a.values[i, k] * b.values[k, j]

        with Tape():
            out = ad.matmul(a, b)
            loss = ad.tensor_sum(ad.mul(out, Tensor(upstream)))
            backward(loss)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

        ga = np.zeros((3, 4))
        gb = np.zeros((4, 2))
        for i in range(3):
            for k in range(4):
                for j in range(2):
                    ga[i, k] += upstream[i, j] * b.values[k, j]
                    gb[k, j] += a.values[i, k] * upstream[i, j]
        np.testing.assert_allclose(a.grad, ga, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = SplitMix64(54)
        a = Tensor(_rand(rng, (6, 4)), requires_grad=True, name="a")
        b = Tensor(_rand(rng, (4, 3)), requires_grad=True, name="b")
        w = Tensor(_rand(rng, (6, 3)))
        _fd_check(lambda: ad.tensor_sum(ad.mul(ad.matmul(a, b), w)), [a, b])


class TestConcat:
    def test_single_part_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert ad.concat([x]) is x

    def test_by_definition(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_gradient_of_sum_is_ones(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([[5.0], [6.0]], requires_grad=True)
        with Tape():
            loss = ad.tensor_sum(ad.concat([a, b]))
            backward(loss)
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 1)))

    def test_rows_gradient_splits_back(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        with Tape():
            out = ad.concat([a, b], axis=0)
            backward(ad.tensor_sum(ad.mul(out, Tensor(np.arange(9.0).reshape(3, 3)))))
        np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.grad, [[6.0, 7.0, 8.0]])

    def test_leading_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))])

    @pytest.mark.parametrize("axis, shapes", [
        (0, [(2, 2), (2, 3)]),
        (0, [(2, 2), (2,)]),
        (2, [(2, 2), (2, 2)]),
    ])
    def test_other_dimensions_must_agree(self, axis, shapes):
        with pytest.raises(DimensionError):
            ad.concat([Tensor(np.zeros(shape)) for shape in shapes], axis=axis)


class TestElementwise:
    def test_sigmoid_symmetry_point(self):
        assert ad.sigmoid(Tensor([0.0])).values[0] == 0.5

    def test_tanh_odd(self):
        assert ad.tanh(Tensor([0.0])).values[0] == 0.0

    def test_sigmoid_kernel_equals_two_branch_formula(self):
        rng = SplitMix64(67)
        x = np.concatenate([
            rng.uniform_array((500_000,), -40.0, 40.0),
            rng.uniform_array((500_000,), -800.0, 800.0),
            [0.0, -0.0, 710.0, -710.0, 750.0, -750.0, 1e308, -1e308, np.inf, -np.inf],
        ])
        with np.errstate(over="raise"):
            expected = np.empty_like(x)
            pos = x >= 0
            expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            expected[~pos] = ex / (1.0 + ex)
            np.testing.assert_array_equal(ad._sigmoid(x), expected)
            np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).values, expected)

    def test_sigmoid_gradient_matches_central_difference(self):
        x = Tensor([1.5], requires_grad=True)

        def build():
            return ad.tensor_sum(ad.sigmoid(x))

        with Tape():
            backward(build())
        fd = ad.numeric_gradients(lambda: (build(),), x, h=1e-5)[0]
        assert ad.relative_error(x.grad, fd) < 1e-6

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_bias_broadcast_add(self):
        rng = SplitMix64(3)
        x = Tensor(_rand(rng, (4, 3)), requires_grad=True, name="x")
        b = Tensor(_rand(rng, (3,)), requires_grad=True, name="b")
        w = Tensor(_rand(rng, (4, 3)))

        def build():
            return ad.tensor_sum(ad.mul(ad.add(x, b), w))

        _fd_check(build, [x, b])

    def test_scalar_shift_and_scale_gradient(self):
        rng = SplitMix64(43)
        x = Tensor(_rand(rng, (4,)), requires_grad=True, name="x")
        y = Tensor(_rand(rng, (4,)), requires_grad=True, name="y")
        one = Tensor(np.ones(4))

        def build():
            # (1 - x) * y, as the GRU forms its update-gate complement
            return ad.tensor_sum(ad.mul(ad.add(ad.scale(x, -1.0), one), y))

        _fd_check(build, [x, y])

    def test_relu_gradient(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        with Tape():
            backward(ad.tensor_sum(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


class TestLogSoftmax:
    def test_uniform_two(self):
        out = ad.log_softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [-math.log(2)] * 2, atol=1e-15)

    def test_singleton_normalises_to_one(self):
        out = ad.log_softmax(Tensor([17.3]))
        np.testing.assert_allclose(out.values, [0.0], atol=1e-15)

    def test_values_and_gradient_match_direct_formula(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        upstream = np.array([0.3, -0.7, 1.1])

        # direct, unshifted formula
        expected = x.values - np.log(np.exp(x.values).sum())
        with Tape():
            out = ad.log_softmax(x)
            backward(ad.tensor_sum(ad.mul(out, Tensor(upstream))))
        np.testing.assert_allclose(out.values, expected, atol=1e-10)

        p = np.exp(x.values) / np.exp(x.values).sum()
        direct_grad = upstream - p * upstream.sum()
        np.testing.assert_allclose(x.grad, direct_grad, atol=1e-10)

    def test_normalisation_invariant(self):
        rng = SplitMix64(11)
        for _ in range(50):
            row = Tensor(rng.uniform_array((8,), -30.0, 30.0))
            total = np.exp(ad.log_softmax(row).values).sum()
            assert abs(total - 1.0) <= 1e-9

    def test_shift_invariance(self):
        rng = SplitMix64(13)
        row = rng.uniform_array((6,), -2.0, 2.0)
        a = ad.log_softmax(Tensor(row)).values
        b = ad.log_softmax(Tensor(row + 123.456)).values
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            ad.log_softmax(Tensor([1.0, float("nan")]))
        with pytest.raises(NumericError):
            ad.log_softmax(Tensor([1.0, float("inf")]))


class TestLayerNorm:
    def _gb(self, n):
        return Tensor(np.ones(n), requires_grad=True), Tensor(np.zeros(n), requires_grad=True)

    def test_constant_vector_gives_zeros(self):
        g, b = self._gb(4)
        out = ad.layer_norm(Tensor([3.0] * 4), g, b, eps=1e-5)
        np.testing.assert_allclose(out.values, np.zeros(4), atol=1e-12)

    def test_already_standardised(self):
        g, b = self._gb(2)
        out = ad.layer_norm(Tensor([-1.0, 1.0]), g, b, eps=1e-12)
        np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = SplitMix64(17)
        x = Tensor(_rand(rng, (8,)), requires_grad=True, name="x")
        g = Tensor(_rand(rng, (8,)), requires_grad=True, name="gain")
        b = Tensor(_rand(rng, (8,)), requires_grad=True, name="bias")
        w = Tensor(_rand(rng, (8,)))

        def build():
            return ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b, eps=1e-5), w))

        _fd_check(build, [x, g, b], tol=1e-4)

    def test_gradient_matches_finite_differences_batched(self):
        rng = SplitMix64(19)
        x = Tensor(_rand(rng, (3, 6)), requires_grad=True, name="x")
        g = Tensor(_rand(rng, (6,)), requires_grad=True, name="gain")
        b = Tensor(_rand(rng, (6,)), requires_grad=True, name="bias")
        w = Tensor(_rand(rng, (3, 6)))

        def build():
            return ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b, eps=1e-5), w))

        _fd_check(build, [x, g, b], tol=1e-4)

    def test_standardisation_invariant(self):
        rng = SplitMix64(23)
        eps = 1e-5
        for _ in range(20):
            xv = rng.uniform_array((9,), -4.0, 4.0)
            g, b = self._gb(9)
            out = ad.layer_norm(Tensor(xv), g, b, eps=eps).values
            var_x = xv.var()
            assert abs(out.mean()) < 1e-9
            assert abs(out.var() - var_x / (var_x + eps)) < 1e-9

    def test_too_short_rejected(self):
        g, b = self._gb(1)
        with pytest.raises(DimensionError):
            ad.layer_norm(Tensor([1.0]), g, b, eps=1e-5)


class TestDropout:
    def test_p_zero_identity_both_modes(self):
        x = Tensor([1.0, 2.0])
        rng = SplitMix64(1)
        assert ad.dropout(x, 0.0, True, rng) is x
        assert ad.dropout(x, 0.0, False, rng) is x

    def test_eval_mode_identity_any_p(self):
        x = Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.9, False, None) is x

    def test_out_of_range_p(self):
        with pytest.raises(ConfigError):
            ad.dropout(Tensor([1.0]), 1.0, True, SplitMix64(1))
        with pytest.raises(ConfigError):
            ad.dropout(Tensor([1.0]), -0.1, True, SplitMix64(1))

    def test_inverted_scaling_preserves_mean(self):
        # each survivor is scaled to 2.0: per-sample variance is 1, so the
        # mean of n samples has sigma = sqrt(1/n)
        n = 100_000
        rng = SplitMix64(29)
        out = ad.dropout(Tensor(np.ones(n)), 0.5, True, rng)
        sigma = math.sqrt(1.0 / n)
        assert abs(out.values.mean() - 1.0) < 3 * sigma

    def test_gradient_with_fixed_mask(self):
        x = Tensor(SplitMix64(31).uniform_array((10,), -1.0, 1.0), requires_grad=True)

        def build():
            return ad.tensor_sum(ad.dropout(x, 0.4, True, SplitMix64(99)))

        _fd_check(build, [x])

    def test_mask_is_drawn_in_row_major_order(self):
        out = ad.dropout(Tensor(np.ones((4, 3))), 0.5, True, SplitMix64(61))
        keep = (SplitMix64(61).floats(12) >= 0.5).reshape(4, 3)
        np.testing.assert_array_equal(out.values, keep / 0.5)


class TestBlockSum:
    def test_adds_blocks_in_order(self):
        x = Tensor(_rand(SplitMix64(59), (11, 2)))
        running = [3, 3, 2, 2, 1]
        starts = np.cumsum([0] + running[:-1])
        expected = x.values[0:3].copy()
        for lo, k in zip(starts[1:], running[1:]):
            expected[:k] = expected[:k] + x.values[lo:lo + k]
        np.testing.assert_array_equal(ad.block_sum(x, running).values, expected)

    def test_gradient_matches_finite_differences(self):
        rng = SplitMix64(60)
        x = Tensor(_rand(rng, (8,)), requires_grad=True, name="x")
        w = Tensor(_rand(rng, (3,)))
        _fd_check(lambda: ad.tensor_sum(ad.mul(ad.block_sum(x, [3, 2, 2, 1]), w)), [x])

    # counts that grow, reach zero, or do not sum to the 8 rows
    @pytest.mark.parametrize("running", [[2, 3, 3], [4, 4, 0], [3, 2, 2]])
    def test_malformed_running_counts_rejected(self, running):
        with pytest.raises(DimensionError):
            ad.block_sum(Tensor(np.zeros((8, 2))), running)


class TestGatherOps:
    def test_take_rows_from_computed_source_gets_dense_gradient(self):
        rng = SplitMix64(47)
        t = Tensor(_rand(rng, (3, 2)), requires_grad=True, name="t")

        def build():
            doubled = ad.scale(t, 2.0)
            picked = ad.take_rows(doubled, [2, 0, 2])
            return ad.tensor_sum(ad.mul(picked, picked))

        _fd_check(build, [t])

    def test_take_rows_duplicate_ids_accumulate(self):
        t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape():
            out = ad.take_rows(t, [1, 1, 2])
            backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(t.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])

    def test_take_rows_out_of_range(self):
        with pytest.raises(ContractError):
            ad.take_rows(Tensor(np.zeros((3, 2))), [3])

    def test_pick_values_and_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            out = ad.pick(x, [2, 0])
            backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(out.values, [2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])

    def test_tile_rows_gradient_sums(self):
        v = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            backward(ad.tensor_sum(ad.tile_rows(v, 4)))
        np.testing.assert_array_equal(v.grad, [4.0, 4.0])


def _wanted_subsets(n):
    """Every `want` that `backward` can pass a rule of n inputs: at least
    one input is wanted."""
    return [tuple(bool(mask >> i & 1) for i in range(n)) for mask in range(1, 1 << n)]


class TestWantedInputs:
    """A rule forms the gradients of the inputs it is told are wanted, each
    the same bytes as when every input is wanted, and None for the rest."""

    @staticmethod
    def _leaves(rng, *shapes):
        return [Tensor(_rand(rng, shape), requires_grad=True) for shape in shapes]

    @staticmethod
    def _check(rng, build):
        with Tape() as tape:
            out = build()
        _, inputs, back = tape.entries[-1]
        g = _rand(rng, out.values.shape)
        every = back(g, (True,) * len(inputs))
        assert len(every) == len(inputs)
        for want in _wanted_subsets(len(inputs)):
            got = back(g, want)
            assert len(got) == len(inputs)
            for i, (w, gi, full) in enumerate(zip(want, got, every)):
                if w:
                    assert gi.tobytes() == full.tobytes(), (want, i)
                else:
                    assert gi is None, (want, i)

    def test_matmul(self):
        rng = SplitMix64(61)
        a, b = self._leaves(rng, (4, 3), (3, 5))
        self._check(rng, lambda: ad.matmul(a, b))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_gru_scan(self, reverse):
        rng = SplitMix64(67)
        running, dim, hid = [3, 3, 2, 1], 4, 3
        x, h0 = self._leaves(rng, (sum(running), dim), (running[0], hid))
        w = self._leaves(rng, *[(dim, hid)] * 3)
        u = self._leaves(rng, *[(hid, hid)] * 3)
        b = self._leaves(rng, *[(hid,)] * 3)
        self._check(rng, lambda: ad.gru_scan(x, h0, w, u, b, running, reverse))

    @pytest.mark.parametrize("rows", [(4, 5), (5,)])
    def test_layer_norm(self, rows):
        rng = SplitMix64(71)
        x, gain, bias = self._leaves(rng, rows, (5,), (5,))
        self._check(rng, lambda: ad.layer_norm(x, gain, bias))

    @pytest.mark.parametrize("shapes", [((4, 3), (3,)), ((4, 3), (4, 3))], ids=["bias", "same"])
    def test_add(self, shapes):
        rng = SplitMix64(73)
        a, b = self._leaves(rng, *shapes)
        self._check(rng, lambda: ad.add(a, b))

    def test_mul_and_concat(self):
        rng = SplitMix64(79)
        a, b, c = self._leaves(rng, (2, 3), (2, 3), (2, 2))
        self._check(rng, lambda: ad.mul(a, b))
        self._check(rng, lambda: ad.concat([a, b, c]))

    @pytest.mark.parametrize("ids", [[2, 0, 2, 1], [3, 0, 1, 2]], ids=["repeated", "permutation"])
    def test_take_rows(self, ids):
        # whether ids repeat or not, every source gets the bytes of
        # accumulating each row into zeros; a leaf table receives them in
        # `.grad`, and the rule returns None
        rng = SplitMix64(83)
        table, = self._leaves(rng, (4, 3))
        g = _rand(rng, (len(ids), 3))
        accumulated = np.zeros((4, 3))
        np.add.at(accumulated, ids, g)
        for computed in (True, False):
            with Tape() as tape:
                ad.take_rows(ad.scale(table, 2.0) if computed else table, ids)
            got, = tape.entries[-1][2](g, (True,))
            assert (table.grad if got is None else got).tobytes() == accumulated.tobytes()
        self._check(rng, lambda: ad.take_rows(ad.scale(table, 2.0), ids))

    def test_tile_rows(self):
        rng = SplitMix64(89)
        v, = self._leaves(rng, (3,))
        self._check(rng, lambda: ad.tile_rows(v, 4))


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape():
            backward(ad.tensor_sum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_half_squared_norm_gradient_is_w_exactly(self):
        w = Tensor(SplitMix64(5).uniform_array((7,), -2.0, 2.0), requires_grad=True)
        with Tape():
            backward(ad.scale(ad.tensor_sum(ad.mul(w, w)), 0.5))
        np.testing.assert_array_equal(w.grad, w.values)

    def test_only_leaves_keep_gradients(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            hidden = ad.scale(w, 3.0)
            loss = ad.tensor_sum(hidden)
            backward(loss)
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])
        assert hidden.grad is None and loss.grad is None

    def test_repeated_backward_accumulates(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            loss = ad.tensor_sum(w)
            backward(loss)
            backward(loss)
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            out = ad.scale(w, 2.0)
            with pytest.raises(ContractError):
                backward(out)

    def test_loss_off_tape_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(w)

    def test_frozen_leaves_are_pruned_from_the_walk(self):
        # w and the table `emb` want gradients; f and the table `frozen`
        # have `requires_grad` cleared between the forward and backward pass
        rng = SplitMix64(8)
        w, f = (Tensor(_rand(rng, (3, 2)), requires_grad=True) for _ in range(2))
        emb, frozen = (Tensor(_rand(rng, (5, 3)), requires_grad=True) for _ in range(2))

        def build():
            own, shared = ad.take_rows(emb, [0, 3, 3, 1]), ad.take_rows(frozen, [2, 0, 1, 2])
            picked = ad.take_rows(frozen, [1, 4, 0, 2])
            pre = ad.matmul(picked, f)
            gate = ad.tanh(pre)
            loss = ad.tensor_sum(ad.mul(ad.matmul(ad.add(own, shared), w), gate))
            return loss, [shared, picked, pre, gate]

        with Tape():
            backward(build()[0])
        expected = [w.grad.copy(), emb.grad.copy()]
        w.zero_grad()
        emb.zero_grad()
        f.grad.fill(7.0)
        frozen.grad.fill(7.0)
        called = set()

        def recorded(out, fn):
            def back(g, want):
                called.add(out.node_id)
                return fn(g, want)
            return back

        with Tape() as tape:
            loss, frozen_side = build()
            tape.entries[:] = [(out, inputs, recorded(out, fn)) for out, inputs, fn in tape.entries]
            f.requires_grad = frozen.requires_grad = False
            backward(loss)
        np.testing.assert_array_equal(w.grad, expected[0])
        np.testing.assert_array_equal(emb.grad, expected[1])
        # take_rows writes a leaf table's rows straight into `.grad`: the
        # frozen table's entries must not run at all
        np.testing.assert_array_equal(f.grad, np.full((3, 2), 7.0))
        np.testing.assert_array_equal(frozen.grad, np.full((5, 3), 7.0))
        assert called.isdisjoint(t.node_id for t in frozen_side)
        assert len(called) == len(tape) - len(frozen_side)

    def test_shared_subexpression_counted_once_per_use(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            a = ad.scale(x, 2.0)
            backward(ad.tensor_sum(ad.add(a, a)))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_same_tensor_twice_in_one_op(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            backward(ad.tensor_sum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_tape_is_topologically_ordered(self):
        rng = SplitMix64(37)
        x = Tensor(_rand(rng, (2, 2)), requires_grad=True)
        with Tape() as tape:
            h = ad.tanh(ad.matmul(x, Tensor(_rand(rng, (2, 2)), requires_grad=True)))
            ad.tensor_sum(ad.add(h, ad.sigmoid(h)))
        seen = set()
        for out, inputs, _ in tape.entries:
            for t in inputs:
                assert t.node_id < out.node_id
                assert t.node_id in seen or t.tape is None
            seen.add(out.node_id)

    def test_forward_replay_is_deterministic(self):
        rng = SplitMix64(41)
        x = Tensor(_rand(rng, (3, 3)))
        w = Tensor(_rand(rng, (3, 3)), requires_grad=True)

        def run():
            return ad.tensor_sum(ad.log_softmax(ad.tanh(ad.matmul(x, w)))).values.copy()

        assert np.array_equal(run(), run())


class TestCorruptionHook:
    def test_corrupted_tanh_backward_breaks_fd_agreement(self):
        x = Tensor([0.7], requires_grad=True)

        def build():
            return ad.tensor_sum(ad.tanh(x))

        with ad.corrupt_tanh_backward(1.05):
            with Tape():
                backward(build())
            fd = ad.numeric_gradients(lambda: (build(),), x)[0]
            assert ad.relative_error(x.grad, fd) > 1e-3
        # restored afterwards
        x.zero_grad()
        _fd_check(build, [x])
