"""Tests for the operator library (numpy semantics, cost, split rules)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate2d

from repro.core import Operator, OperatorGraph
from repro.ops import conv2d_valid, get_impl, known_kinds, same_padding
from repro.ops.base import register


def make_op(kind, inputs, outputs, **params):
    return Operator("t", kind, tuple(inputs), tuple(outputs), params)


rng = np.random.default_rng(1234)


class TestRegistry:
    def test_known_kinds(self):
        kinds = known_kinds()
        for k in (
            "conv2d",
            "add",
            "bias_add",
            "tanh",
            "remap",
            "scale",
            "max",
            "sum_combine",
            "absmax",
            "subsample",
            "matmul",
            "reduce",
            "combine_partials",
        ):
            assert k in kinds

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            get_impl("frobnicate")

    def test_duplicate_registration_rejected(self):
        impl = get_impl("add")
        with pytest.raises(ValueError):
            register(impl)


class TestConv2D:
    def test_valid_matches_scipy(self):
        img = rng.standard_normal((17, 23)).astype(np.float32)
        ker = rng.standard_normal((4, 5)).astype(np.float32)
        ref = correlate2d(img, ker, mode="valid")
        np.testing.assert_allclose(conv2d_valid(img, ker), ref, rtol=1e-4)

    def test_same_matches_scipy(self):
        impl = get_impl("conv2d")
        img = rng.standard_normal((12, 15)).astype(np.float32)
        ker = rng.standard_normal((5, 5)).astype(np.float32)
        op = make_op("conv2d", ["i", "k"], ["o"], mode="same")
        (out,) = impl.execute(op, [img, ker])
        ref = correlate2d(img, ker, mode="same")
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_same_even_kernel_shape(self):
        impl = get_impl("conv2d")
        img = rng.standard_normal((20, 20)).astype(np.float32)
        ker = rng.standard_normal((16, 16)).astype(np.float32)
        op = make_op("conv2d", ["i", "k"], ["o"], mode="same")
        (out,) = impl.execute(op, [img, ker])
        assert out.shape == (20, 20)

    def test_out_shapes(self):
        impl = get_impl("conv2d")
        assert impl.out_shapes([(10, 10), (3, 3)], {"mode": "valid"}) == [(8, 8)]
        assert impl.out_shapes([(10, 10), (3, 3)], {"mode": "same"}) == [(10, 10)]
        with pytest.raises(ValueError):
            impl.out_shapes([(2, 2), (3, 3)], {"mode": "valid"})
        with pytest.raises(ValueError):
            impl.out_shapes([(10, 10), (3, 3)], {"mode": "nope"})

    def test_image_smaller_than_kernel_raises(self):
        with pytest.raises(ValueError):
            conv2d_valid(np.zeros((2, 2), np.float32), np.ones((3, 3), np.float32))

    def test_same_padding_splits(self):
        assert same_padding(3) == (1, 1)
        assert same_padding(16) == (7, 8)
        assert same_padding(1) == (0, 0)

    def test_input_rows_valid_mode(self):
        g = OperatorGraph()
        g.add_data("i", (100, 100), is_input=True)
        g.add_data("k", (5, 5), is_input=True)
        g.add_data("o", (96, 96), is_output=True)
        op = g.add_operator("c", "conv2d", ["i", "k"], ["o"], mode="valid")
        impl = get_impl("conv2d")
        # Section 3.2's example: halves need 52 input rows each.
        assert impl.input_rows(op, g, (0, 48)) == [(0, 52), None]
        assert impl.input_rows(op, g, (48, 96)) == [(48, 100), None]

    def test_input_rows_same_mode(self):
        g = OperatorGraph()
        g.add_data("i", (10, 10), is_input=True)
        g.add_data("k", (3, 3), is_input=True)
        g.add_data("o", (10, 10), is_output=True)
        op = g.add_operator("c", "conv2d", ["i", "k"], ["o"], mode="same")
        impl = get_impl("conv2d")
        assert impl.input_rows(op, g, (0, 5)) == [(-1, 6), None]

    def test_part_execution_with_boundary_padding(self):
        impl = get_impl("conv2d")
        img = rng.standard_normal((10, 8)).astype(np.float32)
        ker = rng.standard_normal((3, 3)).astype(np.float32)
        ref = correlate2d(img, ker, mode="same")
        # Part covering output rows [0, 5): gets clamped input rows [0, 6).
        op = make_op(
            "conv2d", ["i", "k"], ["o"], mode="same", out_range=(0, 5), in_rows=10
        )
        (top,) = impl.execute(op, [img[0:6], ker])
        np.testing.assert_allclose(top, ref[0:5], rtol=1e-4, atol=1e-5)
        op = make_op(
            "conv2d", ["i", "k"], ["o"], mode="same", out_range=(5, 10), in_rows=10
        )
        (bot,) = impl.execute(op, [img[4:10], ker])
        np.testing.assert_allclose(bot, ref[5:10], rtol=1e-4, atol=1e-5)

    def test_flops(self):
        g = OperatorGraph()
        g.add_data("i", (10, 10), is_input=True)
        g.add_data("k", (3, 3), is_input=True)
        g.add_data("o", (10, 10), is_output=True)
        op = g.add_operator("c", "conv2d", ["i", "k"], ["o"], mode="same")
        assert get_impl("conv2d").flops(op, g) == 2 * 100 * 9


class TestElementwise:
    cases = [
        ("add", 2, lambda a, b: a + b),
        ("max", 2, np.maximum),
        ("sum_combine", 2, lambda a, b: a + b),
        ("absmax", 2, lambda a, b: np.maximum(np.abs(a), np.abs(b))),
    ]

    @pytest.mark.parametrize("kind,nin,fn", cases)
    def test_binary_semantics(self, kind, nin, fn):
        impl = get_impl(kind)
        a = rng.standard_normal((6, 7)).astype(np.float32)
        b = rng.standard_normal((6, 7)).astype(np.float32)
        op = make_op(kind, ["a", "b"], ["o"])
        (out,) = impl.execute(op, [a, b])
        np.testing.assert_allclose(out, fn(a, b), rtol=1e-5)

    def test_max_many_inputs(self):
        impl = get_impl("max")
        arrays = [rng.standard_normal((4, 4)).astype(np.float32) for _ in range(5)]
        op = make_op("max", list("abcde"), ["o"])
        (out,) = impl.execute(op, arrays)
        np.testing.assert_allclose(out, np.maximum.reduce(arrays))

    def test_tanh(self):
        impl = get_impl("tanh")
        a = rng.standard_normal((5, 5)).astype(np.float32)
        (out,) = impl.execute(make_op("tanh", ["a"], ["o"]), [a])
        np.testing.assert_allclose(out, np.tanh(a), rtol=1e-5)

    def test_remap_gain(self):
        impl = get_impl("remap")
        a = rng.standard_normal((5, 5)).astype(np.float32)
        (out,) = impl.execute(make_op("remap", ["a"], ["o"], gain=2.0), [a])
        np.testing.assert_allclose(out, np.abs(a) * 2.0, rtol=1e-5)

    def test_scale(self):
        impl = get_impl("scale")
        a = rng.standard_normal((5, 5)).astype(np.float32)
        (out,) = impl.execute(make_op("scale", ["a"], ["o"], factor=-0.5), [a])
        np.testing.assert_allclose(out, a * -0.5, rtol=1e-5)

    def test_bias_add(self):
        impl = get_impl("bias_add")
        a = rng.standard_normal((5, 5)).astype(np.float32)
        bias = np.array([1.5], dtype=np.float32)
        (out,) = impl.execute(make_op("bias_add", ["a", "b"], ["o"]), [a, bias])
        np.testing.assert_allclose(out, a + 1.5, rtol=1e-5)

    def test_shape_mismatch_rejected(self):
        impl = get_impl("add")
        with pytest.raises(ValueError):
            impl.out_shapes([(2, 2), (3, 3)], {})

    def test_bias_slot_not_split(self):
        g = OperatorGraph()
        g.add_data("a", (8, 4), is_input=True)
        g.add_data("b", (1,), is_input=True)
        g.add_data("o", (8, 4), is_output=True)
        op = g.add_operator("x", "bias_add", ["a", "b"], ["o"])
        assert get_impl("bias_add").input_rows(op, g, (0, 4)) == [(0, 4), None]


class TestSubsample:
    def test_mean_pool(self):
        impl = get_impl("subsample")
        a = np.arange(16, dtype=np.float32).reshape(4, 4)
        op = make_op("subsample", ["a"], ["o"], factor=2)
        (out,) = impl.execute(op, [a])
        expect = np.array([[2.5, 4.5], [10.5, 12.5]], dtype=np.float32)
        np.testing.assert_allclose(out, expect)

    def test_weight_bias(self):
        impl = get_impl("subsample")
        a = np.ones((4, 4), dtype=np.float32)
        op = make_op("subsample", ["a"], ["o"], factor=2, weight=3.0, bias=1.0)
        (out,) = impl.execute(op, [a])
        np.testing.assert_allclose(out, np.full((2, 2), 4.0))

    def test_out_shapes_and_errors(self):
        impl = get_impl("subsample")
        assert impl.out_shapes([(8, 6)], {"factor": 2}) == [(4, 3)]
        with pytest.raises(ValueError):
            impl.out_shapes([(7, 6)], {"factor": 2})
        with pytest.raises(ValueError):
            impl.out_shapes([(8, 6)], {"factor": 0})

    def test_input_rows_scaled(self):
        g = OperatorGraph()
        g.add_data("a", (8, 4), is_input=True)
        g.add_data("o", (4, 2), is_output=True)
        op = g.add_operator("s", "subsample", ["a"], ["o"], factor=2)
        assert get_impl("subsample").input_rows(op, g, (1, 3)) == [(2, 6)]


class TestMatMul:
    def test_semantics(self):
        impl = get_impl("matmul")
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        (out,) = impl.execute(make_op("matmul", ["a", "b"], ["o"]), [a, b])
        np.testing.assert_allclose(out, a @ b, rtol=1e-4)

    def test_shapes(self):
        impl = get_impl("matmul")
        assert impl.out_shapes([(4, 6), (6, 3)], {}) == [(4, 3)]
        with pytest.raises(ValueError):
            impl.out_shapes([(4, 6), (5, 3)], {})

    def test_split_rule_keeps_b_whole(self):
        g = OperatorGraph()
        g.add_data("a", (4, 6), is_input=True)
        g.add_data("b", (6, 3), is_input=True)
        g.add_data("o", (4, 3), is_output=True)
        op = g.add_operator("m", "matmul", ["a", "b"], ["o"])
        assert get_impl("matmul").input_rows(op, g, (0, 2)) == [(0, 2), None]

    def test_flops(self):
        g = OperatorGraph()
        g.add_data("a", (4, 6), is_input=True)
        g.add_data("b", (6, 3), is_input=True)
        g.add_data("o", (4, 3), is_output=True)
        op = g.add_operator("m", "matmul", ["a", "b"], ["o"])
        assert get_impl("matmul").flops(op, g) == 2 * 4 * 6 * 3


class TestReduce:
    @pytest.mark.parametrize("fn,ref", [
        ("sum", lambda a: a.sum(axis=0, keepdims=True)),
        ("max", lambda a: a.max(axis=0, keepdims=True)),
        ("mean", lambda a: a.mean(axis=0, keepdims=True)),
    ])
    def test_semantics(self, fn, ref):
        impl = get_impl("reduce")
        a = rng.standard_normal((7, 5)).astype(np.float32)
        (out,) = impl.execute(make_op("reduce", ["a"], ["o"], fn=fn), [a])
        np.testing.assert_allclose(out, ref(a), rtol=1e-4, atol=1e-6)

    def test_unknown_fn(self):
        impl = get_impl("reduce")
        with pytest.raises(ValueError):
            impl.out_shapes([(4, 4)], {"fn": "median"})

    def test_combine_partials_mean_weights(self):
        impl = get_impl("combine_partials")
        p1 = np.full((1, 3), 2.0, dtype=np.float32)
        p2 = np.full((1, 3), 8.0, dtype=np.float32)
        op = make_op("combine_partials", ["a", "b"], ["o"], fn="mean", weights=[3, 1])
        (out,) = impl.execute(op, [p1, p2])
        np.testing.assert_allclose(out, np.full((1, 3), 3.5))

    def test_combine_partials_max(self):
        impl = get_impl("combine_partials")
        op = make_op("combine_partials", ["a", "b"], ["o"], fn="max")
        (out,) = impl.execute(
            op,
            [np.array([[1.0, 9.0]], np.float32), np.array([[4.0, 2.0]], np.float32)],
        )
        np.testing.assert_allclose(out, [[4.0, 9.0]])


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(5, 24),
    w=st.integers(5, 24),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_conv_property_matches_scipy(h, w, kh, kw, seed):
    r = np.random.default_rng(seed)
    img = r.standard_normal((h, w)).astype(np.float32)
    ker = r.standard_normal((kh, kw)).astype(np.float32)
    np.testing.assert_allclose(
        conv2d_valid(img, ker),
        correlate2d(img, ker, mode="valid"),
        rtol=1e-3,
        atol=1e-4,
    )
