import gc
import itertools
import linecache
import re
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coreflow import tensor
from coreflow.errors import FormatError, LabelError, NumericalError, ShapeMismatch
from coreflow.model import grad_cores, random_cores, reconstruct, tt_spec, tucker2_spec, tucker_spec
from coreflow.optim import SgdConfig, base_step, init_state
from coreflow.tensor import (
    ContractionPlan,
    FlatViews,
    as_tensor,
    compile_plan,
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

from oracles import naive_contract, unlowered_engine
from test_model import random_models


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

    @pytest.mark.parametrize(
        "make, labels",
        [(lambda: plan("ii->"), "ii"), (lambda: ContractionPlan(("aab", "bc"), "c"), "aab")],
        ids=["ii->", "aab,bc->c"],
    )
    def test_label_repeated_in_one_operand_rejected(self, make, labels):
        with pytest.raises(LabelError, match=re.escape(f"operand '{labels}' repeats a label")):
            make()

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

    def test_reverse_pass_never_reads_a_stale_forward(self, rng):
        # a standalone gradient pass runs its own forward, so no change to the
        # operands since the caller's last contraction can leak into it
        p, slots = plan("ia,ajb,bk->ijk"), (0, 1, 2)
        shapes = [(3, 2), (2, 4, 3), (3, 5)]
        a, b = ([as_tensor(rng.standard_normal(s)) for s in shapes] for _ in range(2))
        g = as_tensor(rng.standard_normal((3, 4, 5)))

        def fresh(arrays):
            return contract_grads(p, [np.array(x) for x in arrays], g, slots).flat.tobytes()

        contract(p, a)
        assert contract_grads(p, b, g, slots).flat.tobytes() == fresh(b)
        contract(p, a)
        assert contract_grads(p, a, g, slots).flat.tobytes() == fresh(a)
        # a change to the caller's list
        ops = list(a)
        contract(p, ops)
        ops[1] = b[1]
        assert contract_grads(p, ops, g, slots).flat.tobytes() == fresh(ops)
        # writable arrays changed in place
        w = [np.array(x) for x in a]
        contract(p, w)
        w[1][...] = b[1]
        assert contract_grads(p, w, g, slots).flat.tobytes() == fresh(w)
        # the views of a carrier over a writable array
        carrier = FlatViews(np.concatenate([x.ravel() for x in a]), shapes)
        contract(p, carrier)
        carrier[1][...] = b[1]
        assert contract_grads(p, carrier, g, slots).flat.tobytes() == fresh(carrier)
        # read-only views of writable arrays changed through their bases
        bases = [np.array(x) for x in a]
        views = [read_only_view(x) for x in bases]
        contract(p, views)
        bases[1][...] = b[1]
        assert contract_grads(p, views, g, slots).flat.tobytes() == fresh(views)
        # the same through a spec's reconstruction and its core gradients
        spec = tucker2_spec(5, 4, 3, 2)
        bases = [rng.standard_normal(s) for s in spec.core_shapes]
        views = [read_only_view(x) for x in bases]
        dl = as_tensor(rng.standard_normal(spec.output_shape))
        reconstruct(spec, views)
        bases[0][...] = rng.standard_normal(bases[0].shape)
        want = grad_cores(spec, [np.array(x) for x in views], dl)
        assert grad_cores(spec, views, dl).flat.tobytes() == want.flat.tobytes()


def read_only_view(x):
    view = x.view()
    view.setflags(write=False)
    return view


# Each shipped family's plan, then custom plans: with 3-D and 2-D transposes,
# outer products and full contractions (whose operands a step must reshape).
LOWERING_PLANS = [
    "abc,ia,jb,kc->ijk",
    "oa,ab,ib->oi",
    "ia,ajb,bk->ijk",
    "ia,ajb,bkc,cl->ijkl",
    "aib,bjc,cka->ijk",
    "aib,bjc,ckd,dla->ijkl",
    "jia,kj->aki",
    "i,j->ij",
    "ab,c->acb",
    "i,i->",
    "ab,ab->",
]


@st.composite
def lowering_cases(draw):
    """A plan of LOWERING_PLANS with extents 1-5, its operands (read-only, or
    writable copies), an output gradient and ascending slots."""
    p = plan(draw(st.sampled_from(LOWERING_PLANS)))
    extents = {ch: draw(st.integers(1, 5)) for ch in sorted(set("".join(p.operand_labels)))}
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    inputs = [
        as_tensor(rng.standard_normal([extents[ch] for ch in labels]))
        for labels in p.operand_labels
    ]
    if draw(st.booleans()):
        inputs = [np.array(x) for x in inputs]
    g = as_tensor(rng.standard_normal([extents[ch] for ch in p.output_labels]))
    slots = draw(st.sets(st.sampled_from(range(len(p.operand_labels))), min_size=1))
    return p, inputs, g, tuple(sorted(slots))


class TestLoweredSteps:
    """Lowered pairwise steps drop the transposes and reshapes that change
    nothing, and so must give the unlowered engine's bytes."""

    @staticmethod
    def evaluate(p, inputs, g, slots):
        out = contract(p, inputs)
        grads = contract_grads(p, inputs, g, slots)
        return out.shape, out.tobytes(), [(x.shape, x.tobytes()) for x in grads]

    @settings(max_examples=200, deadline=None)
    @given(lowering_cases())
    def test_bytes_match_the_unlowered_engine(self, case):
        got = self.evaluate(*case)
        with unlowered_engine():
            want = self.evaluate(*case)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(random_models())
    def test_bytes_match_the_unlowered_engine_on_random_plans(self, model):
        # every ascending subset of the slots, the empty one too
        spec, cores, g = model
        p, inputs = spec.plan, spec.operands(cores)
        every = range(len(p.operand_labels))
        subsets = [s for r in range(len(every) + 1) for s in itertools.combinations(every, r)]
        got = [self.evaluate(p, inputs, g, slots) for slots in subsets]
        with unlowered_engine():
            want = [self.evaluate(p, inputs, g, slots) for slots in subsets]
        assert got == want
        g_inf = np.array(g)
        g_inf.flat[0] = np.inf  # one infinite entry reaches every requested gradient
        message = re.escape(f"contract '{p.expression()}' gradient produced a non-finite value")
        for slots in subsets[1:]:
            with pytest.raises(NumericalError, match=message):
                contract_grads(p, inputs, g_inf, slots)

    @pytest.mark.parametrize("slots", [(1, 0), (0, 0), (1, 1), (-1, 1), (2,), (0, 2)])
    def test_slots_must_be_ascending_operand_indices(self, slots):
        # every returned gradient is written by the pass; none is left unset
        a = as_tensor(np.ones((2, 3)))
        b = as_tensor(np.ones((3, 4)))
        with pytest.raises(ShapeMismatch, match="slots"):
            contract_grads(plan("ij,jk->ik"), [a, b], as_tensor(np.ones((2, 4))), slots)

    def test_gradients_on_their_own_are_sealed(self, rng):
        # the reverse pass seals its carrier itself, not only through contract_grads
        inputs = [as_tensor(rng.standard_normal(s)) for s in ((2, 3), (3, 4))]
        compiled = compile_plan(plan("ij,jk->ik"))
        grads = compiled.gradients(compiled.forward(inputs)[1], as_tensor(rng.standard_normal((2, 4))), (0, 1))
        assert not grads.flat.flags.writeable
        assert [view.flags.writeable for view in grads] == [False, False]
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalError, match="'ij,jk->ik' gradient produced a non-finite"
        ):
            compiled.gradients(compiled.forward(inputs)[1], np.full((2, 4), np.inf), (0, 1))

    def test_integer_operands_give_float64_gradients(self, rng):
        ints = [rng.integers(-3, 4, (2, 3)), rng.integers(-3, 4, (3, 4))]
        g = rng.integers(-3, 4, (2, 4))
        got = contract_grads(plan("ij,jk->ik"), ints, g, (0, 1))
        want = contract_grads(plan("ij,jk->ik"), [x.astype(float) for x in ints], g.astype(float), (0, 1))
        assert got.flat.dtype == np.float64 and got.flat.tobytes() == want.flat.tobytes()

    def test_tucker2_keeps_only_real_2d_transposes(self):
        sized = compile_plan(plan("oa,ab,ib->oi"))._sized(
            [np.zeros((5, 3)), np.zeros((3, 2)), np.zeros((4, 2))]
        )
        steps = [s for op_grad, _, acc_grad in sized.reverse for s in (op_grad, acc_grad)]
        assert all(shape is None for step in steps for shape in step[2:])
        perms = [perm for step in steps for perm in step[:2] if perm is not None]
        assert perms == [(1, 0)] * 3
        # the forward steps are kept only as code: one 2-D transpose, no reshape
        forward = "".join(linecache.getlines(sized.run_forward.__code__.co_filename))
        assert forward.count(".transpose(") == forward.count(".transpose((1, 0))") == 1
        assert ".reshape(" not in forward


class TestRenderedCode:
    """Each shape set's steps run as generated straight-line functions."""

    @staticmethod
    def count_compiles(monkeypatch):
        compiled = []

        def counted(source, filename, mode):
            if filename.startswith("<plan "):  # not a carrier layout's constructor
                compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(tensor, "compile", counted, raising=False)
        return compiled

    def test_each_shape_set_and_slots_renders_once(self, rng, monkeypatch):
        p = plan("ia,ajb,bk->ijk")
        tensor.compile_plan.cache_clear()  # a fresh compiled plan renders from scratch
        compiled = self.count_compiles(monkeypatch)
        for shapes in ([(3, 2), (2, 4, 3), (3, 5)], [(2, 2), (2, 3, 2), (2, 4)]):
            inputs = [as_tensor(rng.standard_normal(s)) for s in shapes]
            g = as_tensor(rng.standard_normal([shapes[0][0], shapes[1][1], shapes[2][1]]))
            for _ in range(3):
                contract(p, inputs)
                contract_grads(p, inputs, g, (0, 1, 2))
                contract_grads(p, [np.array(x) for x in inputs], g, (1, 2))
        assert len(compiled) == 6 and len(set(compiled)) == 6

    def test_clearing_the_shape_sets_clears_the_rendered_code(self, monkeypatch):
        p = plan("ij,jk->ik")
        tensor.compile_plan.cache_clear()
        compiled = self.count_compiles(monkeypatch)
        bound = tensor.CompiledPlan._MAX_SHAPE_SETS

        def pass_of(n):
            a, b = as_tensor(np.ones((n, 2))), as_tensor(np.ones((2, 3)))
            contract(p, [a, b])
            contract_grads(p, [a, b], as_tensor(np.ones((n, 3))), (0, 1))

        for n in range(1, bound + 1):
            pass_of(n)
        assert len(compiled) == 2 * bound
        first = compiled[:2]
        pass_of(1)  # still cached
        assert len(compiled) == 2 * bound
        pass_of(bound + 1)  # one set too many clears them all
        assert all(name not in linecache.cache for name in first)
        pass_of(1)
        assert len(compiled) == 2 * bound + 4 and compiled[-2:] == first

    def test_clearing_leaves_another_compiled_plans_code(self):
        # two compiled plans of one plan: one clears its shape sets while the other's code runs
        p = plan("ij,jk->ik")

        def forward_of(compiled, n):
            inputs = [as_tensor(np.ones((n, 3))), as_tensor(np.ones((3, 4)))]
            out = compiled.forward(inputs)[0]
            return out, compiled._sized(inputs).run_forward.__code__.co_filename

        tensor.compile_plan.cache_clear()
        first = compile_plan(p)
        filename = forward_of(first, 2)[1]
        assert len(linecache.getlines(filename)) == 4
        tensor.compile_plan.cache_clear()
        second = compile_plan(p)
        assert second is not first
        for n in range(2, tensor.CompiledPlan._MAX_SHAPE_SETS + 3):  # that set, then one too many
            forward_of(second, n)
        assert len(second._sizes) == 1  # it cleared its shape sets
        assert len(linecache.getlines(filename)) == 4
        out, again = forward_of(first, 2)
        assert again == filename and out.tobytes() == np.full((2, 4), 3.0).tobytes()

    def test_a_dropped_compiled_plan_takes_its_code_out_of_linecache(self):
        p = plan("ij,jk->ik")
        a, b = as_tensor(np.ones((2, 3))), as_tensor(np.ones((3, 4)))
        names = []
        for _ in range(3):
            tensor.compile_plan.cache_clear()
            contract(p, [a, b])
            names.append(compile_plan(p)._sized([a, b]).run_forward.__code__.co_filename)
        tensor.compile_plan.cache_clear()
        gc.collect()
        assert len(set(names)) == 3
        assert not any(name in linecache.cache for name in names)

    def test_code_outliving_its_shape_set_leaves_the_rerendered_source(self):
        p = plan("ij,jk->ik")
        tensor.compile_plan.cache_clear()
        compiled = compile_plan(p)

        def forward_of(n):
            return compiled._sized([as_tensor(np.ones((n, 3))), as_tensor(np.ones((3, 4)))]).run_forward

        old = forward_of(2)  # still held once its shape set is cleared
        for n in range(3, tensor.CompiledPlan._MAX_SHAPE_SETS + 3):
            forward_of(n)
        filename = forward_of(2).__code__.co_filename
        assert filename == old.__code__.co_filename and forward_of(2) is not old
        del old
        gc.collect()
        assert len(linecache.getlines(filename)) == 4

    def test_code_names_its_plan_and_shapes(self):
        p = plan("oa,ab,ib->oi")
        inputs = [as_tensor(np.ones(s)) for s in ((5, 3), (3, 2), (4, 2))]
        compiled = compile_plan(p)
        contract_grads(p, inputs, as_tensor(np.ones((5, 4))), (0, 1, 2))
        reverse = compiled._sized(inputs).run_reverse[(0, 1, 2)]
        ops, accs, _ = compiled.forward(inputs)[1]
        with pytest.raises(ValueError) as err:  # an output gradient of the wrong shape
            reverse(ops, accs, as_tensor(np.ones((4, 5))))
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert re.fullmatch(r"<plan #\d+ oa,ab,ib->oi 5x3,3x2,4x2 slots 0,1,2>", frame.filename)
        assert frame.name == "reverse" and frame.line.startswith("d2[...] = a1.transpose((1, 0)).dot(g)")


    @pytest.mark.parametrize(
        "make",
        [
            lambda: tucker_spec((20, 20, 20), (4, 4, 4)),
            lambda: tt_spec((4, 5, 6), (2, 3)),
            lambda: tt_spec((2, 3, 2, 2), (2, 2, 2)),
        ],
        ids=["tucker", "tt3", "tt4"],
    )
    def test_reverse_lowers_each_incoming_gradient_once(self, make, rng):
        # both products of a reverse step read the incoming gradient lowered alike
        tensor.compile_plan.cache_clear()  # a fresh compiled plan renders from scratch
        spec = make()
        cores = random_cores(spec, rng)
        grad_cores(spec, cores, as_tensor(rng.standard_normal(spec.output_shape)))
        sized = spec.compiled._sized(spec.operands(cores))
        source = "".join(linecache.getlines(sized.run_reverse[spec.core_slots].__code__.co_filename))
        lowered = re.findall(r"\bg(?:\.transpose\(\([\d, ]+\)\))?\.reshape\(\([\d, ]+\)\)", source)
        assert lowered and len(set(lowered)) == len(lowered), lowered
        assert source.count("h = g.") == len(lowered)

    @pytest.mark.parametrize(
        "expr",
        # the shipped families' plans and two tucker2 layers composed
        LOWERING_PLANS[:6] + ["cd,de,ae,fg,gh,ch,ab->fb"],
    )
    def test_each_gradient_write_is_one_product_into_place(self, expr, rng):
        # every reverse product is float64, so no write needs a fallback
        p = plan(expr)
        extents = {ch: 2 + i for i, ch in enumerate(sorted(set("".join(p.operand_labels))))}
        inputs = [as_tensor(rng.standard_normal([extents[ch] for ch in lb])) for lb in p.operand_labels]
        g = as_tensor(rng.standard_normal([extents[ch] for ch in p.output_labels]))
        every = tuple(range(len(p.operand_labels)))
        for slots in [every] + [(s,) for s in every]:
            contract_grads(p, inputs, g, slots)
            reverse = compile_plan(p)._sized(inputs).run_reverse[slots]
            filename = reverse.__code__.co_filename
            assert filename.startswith("<plan ") and f" slots {','.join(map(str, slots))}>" in filename
            source = [ln.strip() for ln in linecache.getlines(filename)]
            assert not any(re.search(r"\btry\b", ln) for ln in source)
            # the products: after the views of the flat array, before its finiteness check
            start = next(i for i, ln in enumerate(source) if "= flat[" in ln)
            end = next(i for i, ln in enumerate(source) if ln.startswith("if count_nonzero(isfinite(flat))"))
            for s in slots:
                writes = [ln for ln in source[start + 1:end] if re.search(rf"\bd{s}\b", ln)]
                assert len(writes) == 1, writes
                assert re.fullmatch(
                    rf".+\.dot\(.*, out=d{s}(\.reshape\(len\(lhs\), -1\))?\)"
                    rf"|d{s}\[\.\.\.\] = .*\.transpose\(\([\d, ]+\)\)",
                    writes[0],
                ), writes[0]


class TestFloat64Operands:
    """Operands of any real dtype enter ``contract``, ``reconstruct`` and
    ``contract_grads`` as float64, so every result is float64."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_results_match_float64_copies_bitwise(self, dtype, rng):
        p = plan("ia,ajb,bk->ijk")
        spec = tt_spec((3, 4, 5), (2, 3))
        ops = [(4 * rng.standard_normal(s)).astype(dtype) for s in spec.core_shapes]
        g = (4 * rng.standard_normal(spec.output_shape)).astype(dtype)
        as64 = [x.astype(np.float64) for x in ops]
        pairs = [
            (contract(p, ops), contract(p, as64)),
            (reconstruct(spec, ops), reconstruct(spec, as64)),
            (contract_grads(p, ops, g, (0, 1, 2)).flat,
             contract_grads(p, as64, g.astype(np.float64), (0, 1, 2)).flat),
        ]
        for got, want in pairs:
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


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


class TestFiniteness:
    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            as_tensor([1.0, float("nan")])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_detected(self):
        big = as_tensor([1e308, 1e308])
        cfg = SgdConfig(eta=10.0)
        with pytest.raises(NumericalError, match="optimizer update"):
            base_step([big], [as_tensor(-big)], cfg, init_state(cfg, [big]))

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_csv_non_finite_value_names_the_file(self, tmp_path, value):
        path = tmp_path / "t.csv"
        path.write_text(f"# shape: 3\n1,{value},3\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*non-finite"):
            read_csv_tensor(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_dtf1_non_finite_value_names_the_file(self, tmp_path, value):
        path = tmp_path / "t.dtf1"
        write_dtf1(path, np.array([1.0, value, 3.0]))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*non-finite"):
            read_dtf1(path)

    @pytest.mark.parametrize("reader", [read_tensor, read_dtf1, read_csv_tensor])
    def test_directory_is_a_format_error(self, tmp_path, reader):
        with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path))}: cannot read"):
            reader(tmp_path)

    @pytest.mark.parametrize("reader", [read_tensor, read_csv_tensor])
    def test_csv_not_utf8_is_a_format_error(self, tmp_path, reader):
        path = tmp_path / "t.csv"
        path.write_bytes("# shape: 1\n1.0 # caf\xe9\n".encode("latin-1"))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: cannot read.*utf-8"):
            reader(path)

    def test_csv_extent_too_large_for_int64(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# shape: 9999999999999999999999\n1,2\n")
        with pytest.raises(FormatError, match="cannot fill shape"):
            read_csv_tensor(path)

    def test_read_tensor_sniffs_format(self, tmp_path, rng):
        arr = as_tensor(rng.standard_normal((2, 2)))
        bin_path, csv_path = tmp_path / "t.dtf1", tmp_path / "t.csv"
        write_dtf1(bin_path, arr)
        write_csv_tensor(csv_path, arr)
        np.testing.assert_array_equal(read_tensor(bin_path), arr)
        np.testing.assert_array_equal(read_tensor(csv_path), arr)


CSV_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(2 ** 62, 2 ** 80).map(str),  # past int64, as the header parser meets them
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "0x10", "1_0", "\uff11", "#", ":", "\x00"]),
    st.text(max_size=4),
)


@st.composite
def csv_soup(draw):
    """CSV text built from tokens that are, or are near to, extents and values."""
    header = draw(st.sampled_from(["# shape:", "# shape: ", "#shape:", "", "# shape: 2,"]))
    lines = [header + ",".join(draw(st.lists(CSV_TOKENS, max_size=4)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(st.sampled_from([",", ", ", " , "])).join(draw(st.lists(CSV_TOKENS, max_size=6))))
    return "\n".join(lines)


class TestReadTensorFuzz:
    """Whatever the bytes, reading a tensor file either returns a tensor or
    raises FormatError."""

    @staticmethod
    def read(path, blob):
        path.write_bytes(blob)
        try:
            read_tensor(path)
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=80))
    def test_bytes_after_the_dtf1_magic(self, tmp_path, payload):
        self.read(tmp_path / "t.dtf1", b"DTF1" + payload)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=80))
    def test_raw_bytes(self, tmp_path, blob):
        self.read(tmp_path / "t.bin", blob)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_soup())
    def test_csv_token_soup(self, tmp_path, text):
        self.read(tmp_path / "t.csv", text.encode("utf-8"))
