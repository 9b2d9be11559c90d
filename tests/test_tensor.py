import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreflow.errors import FormatError, LabelError, NumericalError, ShapeMismatch
from coreflow.tensor import (
    ContractionPlan,
    as_tensor,
    axpy_scale,
    contract,
    contract_grads,
    frobenius_inner,
    frobenius_norm_sq,
    read_csv_tensor,
    read_dtf1,
    read_tensor,
    write_csv_tensor,
    write_dtf1,
)

from oracles import naive_contract


def plan(expr):
    return ContractionPlan.parse(expr)


class TestContract:
    def test_identity_matmul(self):
        a = as_tensor([[1.0, 2.0], [3.0, 4.0]])
        out = contract(plan("ij,jk->ik"), [a, as_tensor(np.eye(2))])
        np.testing.assert_array_equal(out, a)

    def test_dot_product(self):
        out = contract(plan("i,i->"), [as_tensor([1, 2, 3]), as_tensor([4, 5, 6])])
        assert out.shape == ()
        assert float(out) == 32.0

    def test_matrix_chain_vs_naive_loops(self, rng):
        mats = [as_tensor(rng.standard_normal((2, 2))) for _ in range(3)]
        out = contract(plan("ij,jk,kl->il"), mats)
        ref = np.zeros((2, 2))
        for i in range(2):
            for l in range(2):
                acc = 0.0
                for j in range(2):
                    for k in range(2):
                        acc += mats[0][i, j] * mats[1][j, k] * mats[2][k, l]
                ref[i, l] = acc
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "expr,shapes",
        [
            ("ij,jk->ik", [(3, 4), (4, 2)]),
            ("abc,ia,jb,kc->ijk", [(2, 2, 2), (3, 2), (3, 2), (2, 2)]),
            ("ia,ajb,bk->ijk", [(3, 2), (2, 3, 2), (2, 2)]),
            ("aib,bjc,cka->ijk", [(2, 3, 2), (2, 2, 2), (2, 3, 2)]),
            ("i,i->", [(5,), (5,)]),
            ("ij->ji", [(3, 2)]),
            ("ii->", [(4, 4)]),
        ],
    )
    def test_agrees_with_enumeration_oracle(self, expr, shapes, rng):
        p = plan(expr)
        inputs = [as_tensor(rng.standard_normal(s)) for s in shapes]
        out = contract(p, inputs)
        ref = naive_contract(p.operand_labels, p.output_labels, inputs)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_multilinear_in_each_operand(self, rng):
        p = plan("abc,ia,jb,kc->ijk")
        shapes = [(2, 2, 2), (3, 2), (3, 2), (2, 2)]
        base = [as_tensor(rng.standard_normal(s)) for s in shapes]
        for slot in range(4):
            x = as_tensor(rng.standard_normal(shapes[slot]))
            y = as_tensor(rng.standard_normal(shapes[slot]))
            c = 1.7
            mixed = list(base)
            mixed[slot] = as_tensor(c * x + y)
            lhs = contract(p, mixed)
            with_x, with_y = list(base), list(base)
            with_x[slot], with_y[slot] = x, y
            rhs = c * contract(p, with_x) + contract(p, with_y)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_extent_conflict(self):
        with pytest.raises(ShapeMismatch):
            contract(plan("ij,jk->ik"), [as_tensor(np.ones((2, 3))), as_tensor(np.ones((4, 2)))])

    def test_operand_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            contract(plan("ij,jk->ik"), [as_tensor(np.ones((2, 2)))])

    def test_label_on_three_slots_rejected(self):
        with pytest.raises(LabelError):
            plan("ir,jr,kr->ijk")

    def test_free_label_must_reach_output(self):
        with pytest.raises(LabelError):
            plan("ij,jk->i")

    def test_bound_label_cannot_be_output(self):
        with pytest.raises(LabelError):
            plan("ij,jk->ijk")

    def test_result_is_readonly_and_inputs_untouched(self, rng):
        a = as_tensor(rng.standard_normal((2, 2)))
        before = a.copy()
        out = contract(plan("ij->ij"), [a])
        assert not out.flags.writeable
        np.testing.assert_array_equal(a, before)
        out2 = contract(plan("ij->ji"), [a])
        assert not out2.flags.writeable


class TestScalarOps:
    def test_inner_product_by_hand(self):
        a = as_tensor([[1.0, 2.0], [3.0, 4.0]])
        assert frobenius_inner(a, a) == 30.0
        assert frobenius_inner(a, as_tensor(np.zeros((2, 2)))) == 0.0

    def test_inner_product_symmetry(self, rng):
        a = as_tensor(rng.standard_normal((3, 4, 2)))
        b = as_tensor(rng.standard_normal((3, 4, 2)))
        assert frobenius_inner(a, b) == frobenius_inner(b, a)

    def test_inner_product_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            frobenius_inner(as_tensor(np.ones((2, 2))), as_tensor(np.ones(4)))

    def test_norm_sq(self):
        assert frobenius_norm_sq(as_tensor(np.zeros((2, 3)))) == 0.0
        assert frobenius_norm_sq(as_tensor([[3.0, 4.0]])) == 25.0

    def test_norm_sq_quadratic_homogeneity(self, rng):
        a = as_tensor(rng.standard_normal((4, 3)))
        assert frobenius_norm_sq(as_tensor(3.0 * a)) == pytest.approx(
            9.0 * frobenius_norm_sq(a), rel=1e-12
        )

    def test_norm_sq_equals_self_inner(self, rng):
        a = as_tensor(rng.standard_normal((5, 2)))
        assert frobenius_norm_sq(a) == frobenius_inner(a, a)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_norm_sq_nonnegative(self, seed):
        a = np.random.default_rng(seed).standard_normal((3, 3))
        assert frobenius_norm_sq(as_tensor(a)) >= 0.0


class TestAxpy:
    def test_endpoint_weights(self, rng):
        a = as_tensor(rng.standard_normal((2, 3)))
        b = as_tensor(rng.standard_normal((2, 3)))
        np.testing.assert_array_equal(axpy_scale(a, 1.0, b, 0.0), a)
        np.testing.assert_array_equal(axpy_scale(a, 0.0, b, 1.0), b)

    def test_hand_value(self):
        out = axpy_scale(as_tensor([[1.0]]), 2.0, as_tensor([[3.0]]), -1.0)
        np.testing.assert_array_equal(out, [[-1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            axpy_scale(as_tensor(np.ones(2)), 1.0, as_tensor(np.ones(3)), 1.0)


class TestFiniteness:
    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            as_tensor([1.0, float("nan")])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_detected(self):
        big = as_tensor([1e308, 1e308])
        with pytest.raises(NumericalError):
            axpy_scale(big, 10.0, big, 10.0)

    def test_inf_product_detected(self):
        big = as_tensor([[1e300]])
        with pytest.raises(NumericalError):
            contract(plan("ij,jk->ik"), [big, big])

    def test_contraction_overflow_raises_without_warning(self):
        big = as_tensor([[1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                contract(plan("ij,jk->ik"), [big, big])
            with pytest.raises(NumericalError):
                contract_grads(plan("ij,jk->ik"), [big, big], big, (0, 1))


class TestFileFormats:
    def test_dtf1_round_trip(self, tmp_path, rng):
        arr = as_tensor(rng.standard_normal((3, 2, 4)))
        path = tmp_path / "t.dtf1"
        write_dtf1(path, arr)
        back = read_dtf1(path)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_dtf1_write_is_deterministic(self, tmp_path, rng):
        arr = as_tensor(rng.standard_normal((4, 4)))
        p1, p2 = tmp_path / "a.dtf1", tmp_path / "b.dtf1"
        write_dtf1(p1, arr)
        write_dtf1(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_dtf1(self, tmp_path, rng):
        path = tmp_path / "t.dtf1"
        write_dtf1(path, as_tensor(rng.standard_normal((3, 3))))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            read_dtf1(path)

    def test_dtf1_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "t.dtf1"
        write_dtf1(path, as_tensor(rng.standard_normal((3, 3))))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_dtf1(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.dtf1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_dtf1(path)

    def test_csv_with_shape_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# shape: 2,3\n1,2,3\n4,5,6\n")
        arr = read_csv_tensor(path)
        assert arr.shape == (2, 3)
        np.testing.assert_array_equal(arr, [[1, 2, 3], [4, 5, 6]])

    def test_csv_round_trip(self, tmp_path, rng):
        arr = as_tensor(rng.standard_normal((2, 5)))
        path = tmp_path / "t.csv"
        write_csv_tensor(path, arr)
        np.testing.assert_array_equal(read_csv_tensor(path), arr)

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(FormatError):
            read_csv_tensor(path)

    def test_csv_value_count_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# shape: 2,3\n1,2,3\n")
        with pytest.raises(FormatError):
            read_csv_tensor(path)

    def test_read_tensor_sniffs_format(self, tmp_path, rng):
        arr = as_tensor(rng.standard_normal((2, 2)))
        bin_path, csv_path = tmp_path / "t.dtf1", tmp_path / "t.csv"
        write_dtf1(bin_path, arr)
        write_csv_tensor(csv_path, arr)
        np.testing.assert_array_equal(read_tensor(bin_path), arr)
        np.testing.assert_array_equal(read_tensor(csv_path), arr)
