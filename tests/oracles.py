"""Independent brute-force references the library is checked against.

Everything here is deliberately naive: full index enumeration, python loops,
no shared code with the package's contraction engine.  The one exception is
``unlowered_engine``, which runs that engine with every transpose and reshape
of its pairwise steps kept and every product written by a plain np.dot then
copyto: a bitwise reference for the lowered, rendered steps.
"""

import contextlib
import itertools
import math

import numpy as np


def naive_contract(operand_labels, output_labels, inputs):
    """Sum over all bound index assignments with nested loops."""
    extents = {}
    for labels, arr in zip(operand_labels, inputs):
        for ch, d in zip(labels, arr.shape):
            extents[ch] = d
    all_labels = sorted(extents)
    out_shape = tuple(extents[ch] for ch in output_labels)
    out = np.zeros(out_shape if out_shape else ())
    for assignment in itertools.product(*(range(extents[ch]) for ch in all_labels)):
        env = dict(zip(all_labels, assignment))
        term = 1.0
        for labels, arr in zip(operand_labels, inputs):
            term *= arr[tuple(env[ch] for ch in labels)] if labels else float(arr)
        idx = tuple(env[ch] for ch in output_labels)
        if out_shape:
            out[idx] += term
        else:
            out += term
    return out


def unlowered_size_pair(step, extents):
    """A pairwise step sized with every transpose and reshape kept, even those
    that leave their array as it is."""
    perm_x, perm_y, keep_x, summed, keep_y = step
    m, k, n = (math.prod(extents[ch] for ch in part) for part in (keep_x, summed, keep_y))
    return perm_x, perm_y, (m, k), (k, n), tuple(extents[ch] for ch in keep_x + keep_y)


def unlowered_product(step, x, y):
    """Source of a step from ``unlowered_size_pair`` on the arrays named x and
    y: transpose, reshape, dot, reshape."""
    perm_x, perm_y, shape_x, shape_y, shape_out = step
    return (
        f"np.dot({x}.transpose({perm_x}).reshape({shape_x}), "
        f"{y}.transpose({perm_y}).reshape({shape_y})).reshape({shape_out})"
    )


def unlowered_into(step, x, y, out):
    """The product copied into the array named ``out`` afterwards, so the
    engine's np.dot straight into ``out`` is checked against a plain np.dot."""
    return [f"np.copyto({out}, {unlowered_product(step, x, y)})"]


@contextlib.contextmanager
def unlowered_engine():
    """The contraction engine with the unlowered sizing and a plain rendering
    of each step in place of the lowered ones.  Compiled plans are dropped on
    entry and on exit, so no plan sized one way is run the other way; a
    ReconstructionSpec holds its compiled plan, so build specs inside."""
    from coreflow import tensor

    names = ("_size_pair", "_render_product", "_render_into")
    saved = [getattr(tensor, name) for name in names]
    tensor.compile_plan.cache_clear()
    for name, oracle in zip(names, (unlowered_size_pair, unlowered_product, unlowered_into)):
        setattr(tensor, name, oracle)
    try:
        yield
    finally:
        for name, original in zip(names, saved):
            setattr(tensor, name, original)
        tensor.compile_plan.cache_clear()


def finite_difference_core_grads(loss_of_cores, cores, h=1e-5):
    """Central differences of a scalar function of the core list."""
    grads = []
    for k, core in enumerate(cores):
        g = np.zeros(core.shape)
        for idx in np.ndindex(core.shape):
            up = [c.copy() for c in cores]
            dn = [c.copy() for c in cores]
            up[k][idx] += h
            dn[k][idx] -= h
            g[idx] = (loss_of_cores(up) - loss_of_cores(dn)) / (2.0 * h)
        grads.append(g)
    return grads


def scalar_adam(x0, grad_fn, eta, beta1, beta2, eps, steps):
    """Reference Adam on a single scalar, in plain python floats."""
    x, m, v = float(x0), 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        x = x - eta * m_hat / (v_hat ** 0.5 + eps)
    return x


def two_core_scalar_sam_step(x, y, rho, eta, target=1.0):
    """Hand-rolled SAM step for f(x, y) = (x*y - target)^2 on scalars."""
    r = x * y - target
    gx, gy = 2.0 * r * y, 2.0 * r * x
    u = (gx * gx + gy * gy) ** -0.5
    xp, yp = x + rho * u * gx, y + rho * u * gy
    rp = xp * yp - target
    gxp, gyp = 2.0 * rp * yp, 2.0 * rp * xp
    return x - eta * gxp, y - eta * gyp


def two_layer_scalar_sam_step(a, b, c, d, x, rho, eta, target):
    """Hand-rolled SAM step for f = ((c*d)*(a*b)*x - target)^2, the two-layer
    product-of-scalars chain with one global gradient normalizer."""
    w1, w2 = a * b, c * d
    r = w2 * w1 * x - target
    ga, gb = 2.0 * r * w2 * x * b, 2.0 * r * w2 * x * a
    gc, gd = 2.0 * r * w1 * x * d, 2.0 * r * w1 * x * c
    u = (ga * ga + gb * gb + gc * gc + gd * gd) ** -0.5
    ap, bp, cp, dp = a + rho * u * ga, b + rho * u * gb, c + rho * u * gc, d + rho * u * gd
    rp = (cp * dp) * (ap * bp) * x - target
    gap, gbp = 2.0 * rp * (cp * dp) * x * bp, 2.0 * rp * (cp * dp) * x * ap
    gcp, gdp = 2.0 * rp * (ap * bp) * x * dp, 2.0 * rp * (ap * bp) * x * cp
    return a - eta * gap, b - eta * gbp, c - eta * gcp, d - eta * gdp


def _norm_sq(a):
    flat = np.ravel(a)
    return float(np.dot(flat, flat))


def reference_steps(grads_of, cores, cfg, iters, groups=None):
    """``iters`` optimizer steps written plainly, one core at a time.

    ``cfg`` is an SGD/momentum, Adam, SAM or DAS config (read by its fields);
    ``grads_of(cores)`` gives (loss, per-core gradients).  Returns the final
    cores and, per step, the tuple (t, loss, core norms^2, gradient norms^2,
    lambdas, zero_gradient, u) that a StepRecord holds.
    """
    base = getattr(cfg, "base", cfg)
    adam = hasattr(base, "beta1")
    momentum = getattr(base, "momentum", 0.0)
    bufs = [np.zeros(c.shape) for c in cores]
    m = [np.zeros(c.shape) for c in cores]
    v = [np.zeros(c.shape) for c in cores]
    cores = [np.array(c) for c in cores]
    records = []
    for t in range(iters):
        loss, g = grads_of(cores)
        s = tuple(_norm_sq(c) for c in cores)
        gamma = tuple(_norm_sq(gk) for gk in g)
        lams, zero, u = None, False, 0.0
        update_grads, start = g, cores
        if hasattr(cfg, "rho"):
            total = sum(gamma)
            zero = total == 0.0
            if not zero:
                u = total ** -0.5
                perturbed = [c + cfg.rho * u * gk for c, gk in zip(cores, g)]
                update_grads = grads_of(perturbed)[1]
        elif hasattr(cfg, "alpha"):
            gbar = math.fsum(gamma) / len(gamma)
            zero = gbar == 0.0
            lams = (0.0,) * len(cores)
            if not zero:
                u = (len(gamma) * gbar) ** -0.5
                lams, first = [], 0
                for size in groups or (len(cores),):
                    gbar_l = math.fsum(gamma[first:first + size]) / size
                    for k in range(first, first + size):
                        lams.append(base.eta * cfg.alpha * u * (gamma[k] - gbar_l) / s[k])
                    first += size
                lams = tuple(lams)
            start = [(1.0 + lam) * c for lam, c in zip(lams, cores)]
        records.append((t, loss, s, gamma, lams, zero, u))
        shrink = 1.0 - base.eta * base.weight_decay
        new = []
        for k, (c, gk) in enumerate(zip(start, update_grads)):
            if adam:
                m[k] = base.beta1 * m[k] + (1.0 - base.beta1) * gk
                v[k] = base.beta2 * v[k] + (1.0 - base.beta2) * (gk * gk)
                c1 = 1.0 - base.beta1 ** (t + 1)
                c2 = 1.0 - base.beta2 ** (t + 1)
                step = (m[k] / c1) / (np.sqrt(v[k] / c2) + base.epsilon)
            elif momentum > 0.0:
                bufs[k] = momentum * bufs[k] + gk
                step = bufs[k]
            else:
                step = gk
            new.append(shrink * c - base.eta * step)
        cores = new
    return cores, records


def per_record_trajectory_rows(records):
    """Trajectory CSV rows with Q and Cov computed record by record."""
    from coreflow.diagnostics import norm_deviation, norm_grad_covariance

    k = len(records[0].core_norms_sq)
    header = ["t", "loss", "q", "cov"]
    header += [f"core_norm_sq_{i + 1}" for i in range(k)]
    header += [f"grad_norm_sq_{i + 1}" for i in range(k)]
    if records[0].lambdas is not None:
        header += [f"lambda_{i + 1}" for i in range(k)]
    rows = [",".join(header)]
    for rec in records:
        cells = [str(rec.t), repr(rec.loss), repr(norm_deviation(rec.core_norms_sq))]
        cells.append(repr(norm_grad_covariance(rec.core_norms_sq, rec.grad_norms_sq)))
        cells += [repr(v) for v in rec.core_norms_sq + rec.grad_norms_sq + (rec.lambdas or ())]
        rows.append(",".join(cells))
    return rows


def per_vector_deviation_forms():
    """The suite's deviation-forms report, each random norm vector run through
    the direct and pairwise forms on its own."""
    from coreflow.diagnostics import TheoremCheckReport, norm_deviation, norm_deviation_pairwise

    rng = np.random.Generator(np.random.PCG64(0))
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        s = rng.uniform(0.1, 10.0, k)
        a, b = norm_deviation(s), norm_deviation_pairwise(s)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    exact = abs(norm_deviation([2, 10, 18]) - 128.0) + abs(
        norm_deviation_pairwise([2, 10, 18]) - 128.0
    )
    return TheoremCheckReport(
        check="deviation_direct_vs_pairwise",
        measured=worst,
        predicted=0.0,
        abs_residual=worst,
        rel_residual=worst,
        params={"count": 1000},
        passed=worst <= 1e-10 and exact == 0.0,
        details={"worked_example_residual": exact},
    )


def layered_model_draw(kind, seed):
    """``experiments.layered_instance`` as a ``LayeredModel`` loop of its own,
    as (x, cores end to end, objective): each draw is x, then each layer's
    cores, then the unit residual; the draw is kept when every layer's cores
    and ``core_grads`` pass the suite's conditioning."""
    from coreflow import experiments
    from coreflow.model import LayeredModel, custom_spec, random_cores, reconstruct, tucker2_spec
    from coreflow.objective import MaskedMse

    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "tucker2":
        s1, s2 = tucker2_spec(6, 5, 3, 3), tucker2_spec(4, 6, 3, 3)
        x_shape = (5, 3)
    else:
        s1 = s2 = custom_spec("a,b->ab", [(1,), (1,)])
        x_shape = (1, 1)
    for _ in range(experiments._MAX_DRAWS):
        x = rng.standard_normal(x_shape)
        layers = [random_cores(s, rng, norm_spread=experiments._NORM_SPREAD) for s in (s1, s2)]
        model = LayeredModel([s1, s2], layers)
        cores = [c for layer in layers for c in layer]
        out = reconstruct(model.spec(x), cores)
        resid = rng.standard_normal(out.shape)
        resid /= math.sqrt(float(np.mean(resid * resid)))
        obj = MaskedMse(out - resid, np.ones(out.shape))
        _, dl = obj.loss_and_grad(out)
        layer_grads = model.core_grads(x, dl)
        if all(experiments._well_conditioned(c, g) for c, g in zip(layers, layer_grads)):
            return x, cores, obj
    raise RuntimeError(f"no well-conditioned layered {kind} instance for seed {seed}")


def per_record_drift_bounds(records, eta):
    """The balanced-start drift bound before each record and after the last,
    accumulated one record at a time into a running per-core drift."""
    drift = np.zeros(len(records[0].grad_norms_sq))
    before = []
    for rec in records:
        before.append(float(np.sum(drift * drift)))
        gamma = np.asarray(rec.grad_norms_sq)
        drift += eta * eta * np.abs(gamma - gamma.mean())
    return before, float(np.sum(drift * drift))


class PerStepNoisyTargetMse:
    """``NoisyTargetMse`` as a draw per step: one ``standard_normal`` call of
    the target's shape at construction and, resampling, one more at every
    ``begin_step``, with alpha*N formed on every loss."""

    def __init__(self, clean_target, alpha, seed=0, resample_each_step=False):
        self.clean_target, self.alpha = clean_target, alpha
        self.resample_each_step = resample_each_step
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.noise = self.rng.standard_normal(clean_target.shape)

    def begin_step(self, t):
        if self.resample_each_step:
            self.noise = self.rng.standard_normal(self.clean_target.shape)

    def loss_and_grad(self, t_hat):
        resid = t_hat - self.clean_target
        resid -= self.alpha * self.noise
        loss = float((resid * resid).sum())
        if not math.isfinite(loss):
            raise ValueError(f"non-finite loss {loss!r}")
        return loss, resid * 2.0
