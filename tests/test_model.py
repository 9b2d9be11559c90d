import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreflow.errors import LabelError, ShapeMismatch
from coreflow.objective import MaskedMse
from coreflow.optim import gradient_fn
from coreflow.model import (
    LayeredModel,
    ReconstructionSpec,
    check_directional_identity,
    check_scale_invariance,
    cp_spec,
    custom_spec,
    grad_cores,
    layered_spec,
    random_cores,
    reconstruct,
    reconstruct_with,
    tr_spec,
    tt_spec,
    tucker2_spec,
    tucker_spec,
)
from coreflow.tensor import (
    CompiledPlan,
    ContractionPlan,
    as_tensor,
    compile_plan,
    contract,
    frobenius_inner,
    frobenius_norm_sq,
)

from oracles import finite_difference_core_grads, naive_contract

ALL_FAMILIES = [
    lambda: cp_spec((4, 3, 2), 3),
    lambda: tucker_spec((3, 3, 2), (2, 2, 2)),
    lambda: tucker2_spec(5, 4, 3, 2),
    lambda: tt_spec((3, 3, 2), (2, 3)),
    lambda: tt_spec((2, 3, 2, 2), (2, 2, 2)),
    lambda: tr_spec((3, 2, 3), (2, 2, 2)),
    lambda: tr_spec((2, 2, 2, 2), (2, 2, 2, 2)),
]


def sum_sq_objective(target):
    """f(T) = sum((T - target)^2), gradient 2(T - target)."""

    def loss(t_hat):
        return float(np.sum((t_hat - target) ** 2))

    def grad(t_hat):
        return as_tensor(2.0 * (t_hat - target))

    return loss, grad


class TestSpecCopies:
    @pytest.mark.parametrize("make", [ALL_FAMILIES[0], ALL_FAMILIES[2]])  # a constant slot; all cores
    def test_spec_pickles_and_deep_copies_after_a_pass(self, make, rng):
        """A spec holds its compiled plan, whose rendered code does not pickle;
        the plan travels as its expression and comes back as the shared plan."""
        spec = make()
        cores = random_cores(spec, rng)
        obj = MaskedMse(reconstruct(spec, random_cores(spec, rng)), as_tensor(np.ones(spec.output_shape)))
        loss, grads = gradient_fn(spec, obj)(cores)
        for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert back.compiled is spec.compiled is compile_plan(spec.plan)
            assert back.core_shapes == spec.core_shapes and back.family == spec.family
            again = gradient_fn(back, obj)([np.array(c) for c in cores])
            assert again[0] == loss and again[1].flat.tobytes() == grads.flat.tobytes()


class TestShippedFamilies:
    """Each shipped family's plan and core shapes, pinned to literal values;
    distinct extents tell every label apart."""

    @pytest.mark.parametrize(
        "make, family, expression, core_shapes",
        [
            (lambda: cp_spec((7, 6, 5), 2), "cp", "abc,ia,jb,kc->ijk", ((7, 2), (6, 2), (5, 2))),
            (
                lambda: tucker_spec((7, 6, 5), (2, 3, 4)), "tucker",
                "abc,ia,jb,kc->ijk", ((2, 3, 4), (7, 2), (6, 3), (5, 4)),
            ),
            (lambda: tucker2_spec(7, 6, 2, 3), "tucker2", "oa,ab,ib->oi", ((7, 2), (2, 3), (6, 3))),
            (lambda: tt_spec((7, 6, 5), (2, 3)), "tt", "ia,ajb,bk->ijk", ((7, 2), (2, 6, 3), (3, 5))),
            (
                lambda: tt_spec((7, 6, 5, 4), (2, 3, 8)), "tt",
                "ia,ajb,bkc,cl->ijkl", ((7, 2), (2, 6, 3), (3, 5, 8), (8, 4)),
            ),
            (
                lambda: tr_spec((7, 6, 5), (2, 3, 4)), "tr",
                "aib,bjc,cka->ijk", ((2, 7, 3), (3, 6, 4), (4, 5, 2)),
            ),
            (
                lambda: tr_spec((7, 6, 5, 4), (2, 3, 8, 9)), "tr",
                "aib,bjc,ckd,dla->ijkl", ((2, 7, 3), (3, 6, 8), (8, 5, 9), (9, 4, 2)),
            ),
        ],
    )
    def test_plan_and_core_shapes(self, make, family, expression, core_shapes):
        spec = make()
        assert spec.plan is ContractionPlan.parse(expression) and spec.family == family
        assert spec.plan.expression() == expression and spec.core_shapes == core_shapes
        assert spec.output_shape == (7, 6, 5, 4)[: len(spec.plan.output_labels)]

    def test_cp_holds_its_superdiagonal(self):
        spec = cp_spec((7, 6, 5), 2)
        diag = np.zeros((2, 2, 2))
        diag[0, 0, 0] = diag[1, 1, 1] = 1.0
        assert spec.constants[1:] == (None, None, None)
        assert spec.constants[0].tobytes() == diag.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tt_spec((7, 6, 5), (2,)),
            lambda: tt_spec((7, 6, 5), (2, 3, 4)),
            lambda: tt_spec((7, 6, 5, 4), (2, 3)),
            lambda: tt_spec((7, 6, 5, 4), (2, 3, 8, 9)),
            lambda: tr_spec((7, 6, 5), (2, 3)),
            lambda: tr_spec((7, 6, 5), (2, 3, 4, 8)),
            lambda: tr_spec((7, 6, 5, 4), (2, 3, 8)),
            lambda: tr_spec((7, 6, 5, 4), (2, 3, 8, 9, 10)),
            lambda: tucker_spec((7, 6), (2, 3, 4)),
            lambda: tucker_spec((7, 6, 5), (2, 3, 4, 8)),
            lambda: cp_spec((7, 6, 5, 4), 2),
        ],
    )
    def test_a_rank_or_mode_too_many_or_too_few_raises(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [tt_spec, tr_spec])
    @pytest.mark.parametrize("order", [2, 5])
    def test_chains_ship_for_orders_three_and_four(self, make, order):
        with pytest.raises(ShapeMismatch, match="ships for orders 3 and 4"):
            make((2,) * order, (2,) * order)


class TestReconstruct:
    def test_tucker2_identity_factors(self):
        spec = tucker2_spec(2, 2, 2, 2)
        g = as_tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = as_tensor(np.eye(2))
        np.testing.assert_allclose(reconstruct(spec, [eye, g, eye]), g, rtol=1e-14)

    def test_cp_rank1_outer_product(self):
        spec = cp_spec((2, 2, 1), 1)
        a = as_tensor([[1.0], [2.0]])
        b = as_tensor([[1.0], [0.0]])
        c = as_tensor([[3.0]])
        out = reconstruct(spec, [a, b, c])
        np.testing.assert_allclose(out[:, :, 0], [[3.0, 0.0], [6.0, 0.0]], rtol=1e-14)

    def test_tt_matches_full_index_summation(self, rng):
        spec = tt_spec((2, 2, 2), (2, 2))
        cores = random_cores(spec, rng)
        out = reconstruct(spec, cores)
        ref = np.zeros((2, 2, 2))
        g1, g2, g3 = cores
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for a in range(2):
                        for b in range(2):
                            ref[i, j, k] += g1[i, a] * g2[a, j, b] * g3[b, k]
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_matches_enumeration_oracle(self, make, rng):
        spec = make()
        cores = random_cores(spec, rng, norm_spread=0.2)
        out = reconstruct(spec, cores)
        ref = naive_contract(
            spec.plan.operand_labels, spec.plan.output_labels, spec.operands(cores)
        )
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_multilinear_in_every_core(self, make, rng):
        spec = make()
        base = random_cores(spec, rng)
        for slot in range(spec.num_cores):
            x = as_tensor(rng.standard_normal(spec.core_shapes[slot]))
            y = as_tensor(rng.standard_normal(spec.core_shapes[slot]))
            c = 0.83
            lhs = reconstruct_with(spec, base, slot, as_tensor(c * x + y))
            rhs = c * reconstruct_with(spec, base, slot, x) + reconstruct_with(
                spec, base, slot, y
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_wrong_core_shape(self, rng):
        spec = tucker2_spec(3, 3, 2, 2)
        cores = random_cores(spec, rng)
        cores[1] = as_tensor(rng.standard_normal((3, 3)))
        with pytest.raises(ShapeMismatch):
            reconstruct(spec, cores)

    @pytest.mark.parametrize("shapes", [[(3, 2)], [(3, 2), (2, 4), (4, 1)]])
    def test_custom_spec_needs_one_shape_per_operand(self, shapes):
        with pytest.raises(ShapeMismatch):
            custom_spec("ij,jk->ik", shapes)

    def test_a_constant_that_disagrees_with_a_core_fails_when_the_spec_is_built(self):
        fixed = as_tensor(np.ones((5, 3)))
        with pytest.raises(ShapeMismatch, match="label 'b' has extents 4 and 5"):
            ReconstructionSpec(
                ContractionPlan.parse("ab,bc->ac"), ((2, 4),), constants=(None, fixed)
            )


class TestGradients:
    def test_zero_output_grad_gives_zero_core_grads(self, rng):
        spec = tucker_spec((3, 3, 2), (2, 2, 2))
        cores = random_cores(spec, rng)
        grads = grad_cores(spec, cores, as_tensor(np.zeros(spec.output_shape)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros(g.shape))

    def test_tucker2_matrix_calculus_oracle(self, rng):
        # f = 0.5*||A G B^T - Y||^2 has dA = R B G^T, dG = A^T R B, dB = R^T A G
        spec = tucker2_spec(2, 2, 2, 2)
        a, g, b = random_cores(spec, rng)
        y = as_tensor(rng.standard_normal((2, 2)))
        resid = np.asarray(a) @ np.asarray(g) @ np.asarray(b).T - y
        grads = grad_cores(spec, [a, g, b], as_tensor(resid))
        np.testing.assert_allclose(grads[0], resid @ b @ g.T, rtol=1e-12)
        np.testing.assert_allclose(grads[1], a.T @ resid @ b, rtol=1e-12)
        np.testing.assert_allclose(grads[2], resid.T @ a @ g, rtol=1e-12)

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_matches_finite_differences(self, make, rng):
        spec = make()
        cores = random_cores(spec, rng, norm_spread=0.3)
        target = as_tensor(rng.standard_normal(spec.output_shape))
        loss, grad = sum_sq_objective(target)
        analytic = grad_cores(spec, cores, grad(reconstruct(spec, cores)))
        fd = finite_difference_core_grads(
            lambda cs: loss(reconstruct(spec, [as_tensor(c) for c in cs])), cores
        )
        for got, ref in zip(analytic, fd):
            denom = np.maximum(np.abs(ref), 1e-6)
            assert np.max(np.abs(got - ref) / denom) < 1e-6


@st.composite
def random_models(draw):
    """A random spec with cores (and at most one constant slot) on 2-4 operands.

    Every operand pair shares a bond label or not at random, so plans include
    outer-product steps (no shared label) and ring closures; operands carry
    0-2 free labels, and all label orders are shuffled.  The constant, when
    there is one, may repeat a label of its own, which the engine collapses
    to a diagonal and sums at the end.
    """
    n = draw(st.integers(2, 4))
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    ops = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                ch = next(letters)
                ops[i].append(ch)
                ops[j].append(ch)
    free = []
    for labels in ops:
        for _ in range(draw(st.integers(0 if labels else 1, 2))):
            free.append(next(letters))
            labels.append(free[-1])
    const = draw(st.sampled_from([None] + list(range(n))))
    if const is not None and draw(st.booleans()):
        ops[const] += [next(letters)] * 2
    ops = ["".join(draw(st.permutations(labels))) for labels in ops]
    out = "".join(draw(st.permutations(free)))
    extents = {ch: draw(st.integers(1, 3)) for ch in "".join(ops)}
    shapes = [tuple(extents[ch] for ch in labels) for labels in ops]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    values = [as_tensor(rng.standard_normal(shape)) for shape in shapes]
    spec = ReconstructionSpec(
        plan=ContractionPlan(tuple(ops), out),
        core_shapes=tuple(s for i, s in enumerate(shapes) if i != const),
        constants=tuple(v if i == const else None for i, v in enumerate(values)),
    )
    assert spec.output_shape == tuple(extents[ch] for ch in out)
    cores = [v for i, v in enumerate(values) if i != const]
    return spec, cores, as_tensor(rng.standard_normal(spec.output_shape))


class TestReversePass:
    @settings(max_examples=150, deadline=None)
    @given(random_models())
    def test_matches_hole_contractions(self, model):
        spec, cores, dl = model
        ops = spec.operands(cores)
        labels = spec.plan.operand_labels
        grads = grad_cores(spec, cores, dl)
        assert len(grads) == spec.num_cores
        for slot, got in zip(spec.core_slots, grads):
            others = [i for i in range(len(ops)) if i != slot]
            ref = naive_contract(
                (spec.plan.output_labels,) + tuple(labels[i] for i in others),
                labels[slot],
                [dl] + [ops[i] for i in others],
            )
            assert got.shape == ref.shape
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_reconstruct_is_the_contraction(self, make, rng):
        spec = make()
        cores = random_cores(spec, rng)
        out = reconstruct(spec, cores)
        ref = contract(spec.plan, spec.operands(cores))
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


class TestScaleInvariance:
    def test_unit_scalars_exact(self, rng):
        spec = tucker2_spec(4, 3, 2, 2)
        cores = random_cores(spec, rng)
        assert check_scale_invariance(spec, cores, [1.0, 1.0, 1.0]) == 0.0

    def test_two_core_matrix_model(self, rng):
        spec = custom_spec("ij,jk->ik", [(4, 3), (3, 4)])
        cores = random_cores(spec, rng)
        assert check_scale_invariance(spec, cores, [2.0, 0.5]) <= 1e-10

    def test_cp_three_scalars(self, rng):
        spec = cp_spec((4, 3, 2), 2)
        cores = random_cores(spec, rng)
        assert check_scale_invariance(spec, cores, [2.0, 3.0, 1.0 / 6.0]) <= 1e-10

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_random_scalings_all_families(self, make, rng):
        spec = make()
        cores = random_cores(spec, rng)
        scales = rng.uniform(0.5, 2.0, spec.num_cores)
        scales[-1] = 1.0 / np.prod(scales[:-1])
        assert check_scale_invariance(spec, cores, scales) <= 1e-10

    def test_product_must_be_one(self, rng):
        spec = tucker2_spec(3, 3, 2, 2)
        with pytest.raises(ValueError):
            check_scale_invariance(spec, random_cores(spec, rng), [2.0, 2.0, 2.0])


class TestDirectionalIdentity:
    def test_zero_direction(self, rng):
        spec = tucker2_spec(4, 3, 2, 2)
        cores = random_cores(spec, rng)
        dl = as_tensor(rng.standard_normal(spec.output_shape))
        v = as_tensor(np.zeros(spec.core_shapes[1]))
        assert check_directional_identity(spec, cores, 1, v, dl) <= 1e-12

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_random_directions(self, make, rng):
        spec = make()
        cores = random_cores(spec, rng)
        dl = as_tensor(rng.standard_normal(spec.output_shape))
        for m in range(spec.num_cores):
            v = as_tensor(rng.standard_normal(spec.core_shapes[m]))
            assert check_directional_identity(spec, cores, m, v, dl) <= 1e-10

    def test_direction_equal_to_core_recovers_full_pullback(self, rng):
        # with v = G_m both sides equal <reconstruction, output-grad>
        spec = tucker_spec((3, 3, 2), (2, 2, 2))
        cores = random_cores(spec, rng)
        dl = as_tensor(rng.standard_normal(spec.output_shape))
        full = frobenius_inner(reconstruct(spec, cores), dl)
        grads = grad_cores(spec, cores, dl)
        for m in range(spec.num_cores):
            assert check_directional_identity(spec, cores, m, cores[m], dl) <= 1e-10
            assert frobenius_inner(cores[m], grads[m]) == pytest.approx(
                full, rel=1e-10
            )


class TestLayeredModel:
    def make_model(self, rng):
        s1, s2 = tucker2_spec(4, 3, 2, 2), tucker2_spec(2, 4, 2, 2)
        return LayeredModel(
            specs=[s1, s2],
            cores=[random_cores(s1, rng, 0.3), random_cores(s2, rng, 0.3)],
        )

    @staticmethod
    def flat(model):
        return [c for layer in model.cores for c in layer]

    def test_forward_is_matrix_chain(self, rng):
        model = self.make_model(rng)
        x = as_tensor(rng.standard_normal((3, 5)))
        w1, w2 = (reconstruct(s, c) for s, c in zip(model.specs, model.cores))
        out = reconstruct(model.spec(x), self.flat(model))
        np.testing.assert_allclose(out, w2 @ (w1 @ x), rtol=1e-12)

    def test_core_grads_match_finite_differences(self, rng):
        model = self.make_model(rng)
        x = as_tensor(rng.standard_normal((3, 2)))
        y = as_tensor(rng.standard_normal((2, 2)))
        spec = model.spec(x)

        def loss_of(flat):
            return float(np.sum((reconstruct(spec, flat) - y) ** 2))

        flat = self.flat(model)
        fd = finite_difference_core_grads(loss_of, flat)
        dl = as_tensor(2.0 * (reconstruct(spec, flat) - y))
        analytic = [g for layer in model.core_grads(x, dl) for g in layer]
        for got, ref in zip(analytic, fd):
            denom = np.maximum(np.abs(ref), 1e-6)
            assert np.max(np.abs(got - ref) / denom) < 1e-6

    def test_gradient_pass_builds_each_matrix_once(self, rng, monkeypatch):
        """A layered gradient pass is one forward and one reverse pass of one
        compiled plan; no layer's matrix is built on its own."""
        model = self.make_model(rng)
        x = as_tensor(rng.standard_normal((3, 2)))
        obj = MaskedMse(as_tensor(rng.standard_normal((2, 2))), as_tensor(np.ones((2, 2))))
        spec, flat = model.spec(x), self.flat(model)
        calls = []
        for name in ("forward", "gradients"):
            def counted(compiled, *args, name=name, real=getattr(CompiledPlan, name)):
                calls.append((compiled.plan, name))
                return real(compiled, *args)

            monkeypatch.setattr(CompiledPlan, name, counted)
        loss, grads = gradient_fn(spec, obj)(flat)
        assert calls == [(spec.plan, "forward"), (spec.plan, "gradients")]
        monkeypatch.undo()
        dl = obj.loss_and_grad(reconstruct(spec, flat))[1]
        want = [g for layer in model.core_grads(x, dl) for g in layer]
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]

    def test_mismatched_chain_rejected(self, rng):
        s1, s2 = tucker2_spec(4, 3, 2, 2), tucker2_spec(2, 5, 2, 2)
        model = LayeredModel(
            specs=[s1, s2],
            cores=[random_cores(s1, rng), random_cores(s2, rng)],
        )
        with pytest.raises(ShapeMismatch):
            model.spec(as_tensor(rng.standard_normal((3, 2))))


class TestLayeredSpec:
    def test_two_tucker2_layers(self):
        x = as_tensor(np.ones((5, 3)))
        spec = layered_spec([tucker2_spec(6, 5, 3, 3), tucker2_spec(4, 6, 3, 3)], x)
        assert spec.plan.expression() == "cd,de,ae,fg,gh,ch,ab->fb"
        assert spec.output_shape == (4, 3) and spec.constants[-1] is x

    def test_any_depth_with_constant_slots_is_the_matrix_chain(self, rng):
        fixed = as_tensor(rng.standard_normal((4, 3)))
        with_constant = ReconstructionSpec(
            ContractionPlan.parse("ab,bc->ac"), ((2, 4),), constants=(None, fixed)
        )
        specs = [
            tucker2_spec(4, 5, 2, 3), custom_spec("ab,bc->ac", [(3, 2), (2, 4)]), with_constant,
        ]
        cores = [random_cores(s, rng) for s in specs]
        x = as_tensor(rng.standard_normal((5, 2)))
        want = x
        for s, c in zip(specs, cores):
            want = reconstruct(s, c) @ want
        got = reconstruct(layered_spec(specs, x), [c for layer in cores for c in layer])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_layer_output_must_be_a_matrix(self):
        with pytest.raises(ShapeMismatch, match="not a matrix"):
            layered_spec([tucker_spec((3, 3, 2), (2, 2, 2))], as_tensor(np.ones((2, 1))))

    def test_input_must_be_a_matrix_that_meets_the_first_layer(self):
        layer = [tucker2_spec(2, 2, 1, 1)]
        with pytest.raises(ShapeMismatch, match="x must be a matrix"):
            layered_spec(layer, as_tensor(np.ones(2)))
        with pytest.raises(ShapeMismatch, match="of 3 columns"):
            layered_spec(layer, as_tensor(np.ones((3, 1))))

    def test_more_than_52_labels(self):
        # two labels for x, then three per tucker2 layer: 16 layers take 50
        x = as_tensor(np.ones((2, 1)))
        assert layered_spec([tucker2_spec(2, 2, 1, 1)] * 16, x).num_cores == 48
        with pytest.raises(LabelError, match="needs 53 labels"):
            layered_spec([tucker2_spec(2, 2, 1, 1)] * 17, x)


class TestSpecGroups:
    """A spec is the one record of its layer layout, checked when it is built."""

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_a_family_is_one_group(self, make):
        spec = make()
        assert spec.groups == (spec.num_cores,)

    def test_layered_spec_has_a_group_per_layer(self):
        layers = [tucker2_spec(6, 5, 3, 3), custom_spec("ab,bc->ac", [(4, 2), (2, 6)])]
        assert layered_spec(layers, as_tensor(np.ones((5, 3)))).groups == (3, 2)

    @pytest.mark.parametrize(
        "groups", [(2,), (2, 2), (0, 3)], ids=["sum-too-small", "sum-too-large", "empty-group"]
    )
    def test_groups_must_partition_the_cores(self, groups):
        plan = ContractionPlan.parse("ab,bc,cd->ad")
        with pytest.raises(ShapeMismatch, match=re.escape(f"groups {groups} must be >= 1 and sum to 3 cores")):
            ReconstructionSpec(plan, ((2, 3), (3, 4), (4, 5)), groups=groups)
        assert ReconstructionSpec(plan, ((2, 3), (3, 4), (4, 5)), groups=[1, 2]).groups == (1, 2)


class TestRandomCores:
    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_imbalance_scales_multiply_to_one(self, make, rng):
        spec = make()
        cores = random_cores(spec, rng, norm_spread=0.5)
        log_norms = [0.5 * np.log(frobenius_norm_sq(c)) for c in cores]
        assert abs(sum(log_norms)) < 1e-10

    def test_spread_zero_gives_unit_norms(self, rng):
        spec = tucker2_spec(4, 3, 2, 2)
        for c in random_cores(spec, rng):
            assert frobenius_norm_sq(c) == pytest.approx(1.0, rel=1e-12)
