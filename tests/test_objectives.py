import math

import numpy as np
import pytest

from esrate.objectives import (
    PERTURB_AMP,
    PERTURB_FREQ,
    TRANSFORMS,
    ObjectiveSpec,
    hessian_family,
    make_composite,
    perturbed_family,
    quadratic_diag,
    sphere,
    stack_evaluator,
)

RNG = np.random.default_rng(1234)


def test_value_at_optimum_is_zero():
    assert quadratic_diag([1.0, 1.0]).value([0.0, 0.0]) == 0.0


def test_value_weighted_quadratic():
    assert quadratic_diag([1.0, 10.0]).value([2.0, 1.0]) == pytest.approx(7.0)


def test_composite_value_at_shifted_optimum():
    comp = make_composite(sphere(2), "exp_minus_one", [1.0, 0.0])
    assert comp.value([1.0, 0.0]) == 0.0


def test_gradient_weighted_quadratic():
    g = quadratic_diag([1.0, 10.0]).gradient([2.0, 1.0])
    np.testing.assert_allclose(g, [2.0, 10.0])


def test_gradient_zero_at_origin():
    for spec in (sphere(4), hessian_family("h2", 4, 2), perturbed_family(4, 1)):
        np.testing.assert_allclose(spec.gradient(np.zeros(4)), np.zeros(4))


def test_gradient_norm_is_numpys_where_its_square_is_finite():
    rng = np.random.default_rng(5)
    for spec in (sphere(4), hessian_family("h1", 5, 1), hessian_family("h3", 6, 1),
                 perturbed_family(7, 1)):
        x = rng.standard_normal(spec.dim) * 3.0
        assert spec.gradient_norm(x) == float(np.linalg.norm(spec.gradient(x)))


def test_perturbed_gradient_matches_finite_differences():
    spec = perturbed_family(6, 1)
    for _ in range(20):
        x = RNG.standard_normal(6) * 3.0
        grad = spec.gradient(x)
        step = 1e-5 * (1.0 + np.linalg.norm(x))
        fd = np.empty(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = step
            fd[i] = (spec.value(x + e) - spec.value(x - e)) / (2.0 * step)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_hessian_family_h1():
    spec = hessian_family("h1", 3, 1)
    np.testing.assert_array_equal(spec.diag, [1.0, 10.0, 10.0])
    assert spec.trace_hessian == 21.0
    assert spec.strong_convexity == 1.0
    assert spec.smoothness == 10.0


def test_hessian_family_h2():
    spec = hessian_family("h2", 3, 2)
    np.testing.assert_allclose(spec.diag, [1.0, 10.0, 100.0])


def test_hessian_families_identity_at_kappa_zero():
    for kind in ("h1", "h2", "h3"):
        np.testing.assert_array_equal(hessian_family(kind, 5, 0).diag, np.ones(5))


@pytest.mark.parametrize("kappa", [-1, 309, 0.5, 2.0, True])
def test_hessian_family_rejects_bad_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be an integer"):
        hessian_family("h1", 3, kappa)


def test_hessian_family_accepts_largest_kappa():
    assert hessian_family("h3", 2, 308).diag[-1] == 1e308


def test_hessian_families_dim_one():
    for kind in ("h1", "h2", "h3"):
        np.testing.assert_array_equal(hessian_family(kind, 1, 3).diag, [1.0])


@pytest.mark.parametrize("d", [2, 5, 30])
@pytest.mark.parametrize("kappa", [0, 1, 3])
def test_traces_match_closed_forms(d, kappa):
    assert hessian_family("h1", d, kappa).trace_hessian == 1 + (d - 1) * 10.0**kappa
    assert hessian_family("h3", d, kappa).trace_hessian == d - 1 + 10.0**kappa
    expected = sum(10.0 ** (kappa * i / (d - 1)) for i in range(d))
    assert hessian_family("h2", d, kappa).trace_hessian == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 7, 30, 257])
@pytest.mark.parametrize("kind", ["h2", "perturbed"])
def test_value_many_matches_value_per_row(kind, dim):
    spec = perturbed_family(dim, 2) if kind == "perturbed" else hessian_family(kind, dim, 2)
    rng = np.random.default_rng(dim)
    for k in (1, 5, 8, 33):
        xs = rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        values = spec.value_many(xs)
        assert [float(v) for v in values] == [spec.value(x) for x in xs]
    # A stack of mixed diagonals evaluates each spec on its own rows, bit for bit.
    if kind == "perturbed":
        specs = [perturbed_family(dim, kappa) for kappa in (0, 2, 6)]
    else:
        specs = [hessian_family(fam, dim, kappa) for fam in ("h1", "h2", "h3") for kappa in (0, 6)]
    for k in (1, 8):
        xs = rng.standard_normal((len(specs), k, dim)) * 10.0 ** rng.uniform(-3, 3, (1, k, 1))
        values = stack_evaluator(specs)(xs)
        assert values.shape == (len(specs), k)
        for i, spec in enumerate(specs):
            assert [float(v) for v in values[i]] == [spec.value(x) for x in xs[i]]


def test_stack_evaluator_rejects_mixed_stacks():
    for specs in ([sphere(3), sphere(4)], [sphere(3), perturbed_family(3, 0)],
                  [make_composite(sphere(3), "identity", np.zeros(3))], []):
        with pytest.raises(ValueError):
            stack_evaluator(specs)


def test_identity_composite_matches_base():
    base = hessian_family("h2", 3, 1)
    comp = make_composite(base, "identity", np.zeros(3))
    for _ in range(50):
        x = RNG.standard_normal(3) * 2.0
        assert comp.value(x) == base.value(x)


def test_affine_composite_value():
    comp = make_composite(sphere(2), "affine", np.zeros(2))
    assert comp.value([1.0, 0.0]) == pytest.approx(4.0)


def test_cube_shift_composite_optimum_by_grid_search():
    x_opt = np.ones(3)
    comp = make_composite(hessian_family("h1", 3, 1), "cube_shift", x_opt)
    offsets = np.linspace(-0.5, 0.5, 11)
    best = None
    for a in offsets:
        for b in offsets:
            for c in offsets:
                v = comp.value(x_opt + np.array([a, b, c]))
                if best is None or v < best[0]:
                    best = (v, (a, b, c))
    assert best[1] == (0.0, 0.0, 0.0)
    assert best[0] == 0.0


@pytest.mark.parametrize(
    "spec",
    [sphere(5), hessian_family("h2", 4, 2), perturbed_family(6, 1)],
    ids=["sphere5", "h2_4_2", "perturbed6"],
)
def test_convexity_smoothness_sandwich(spec):
    lmod, umod = spec.strong_convexity, spec.smoothness
    rng = np.random.default_rng(99)
    xs = rng.standard_normal((10_000, spec.dim)) * 3.0
    ys = rng.standard_normal((10_000, spec.dim)) * 3.0
    fx = spec.value_many(xs)
    fy = spec.value_many(ys)
    grads = xs * spec.diag
    if spec.kind == "quadratic_perturbed":
        grads = grads + (PERTURB_AMP / PERTURB_FREQ) * np.sin(PERTURB_FREQ * xs)
    inner = np.einsum("ij,ij->i", ys - xs, grads)
    sq = np.einsum("ij,ij->i", ys - xs, ys - xs)
    tol = 1e-9 * (1.0 + np.abs(fy))
    assert np.all(fx + inner + 0.5 * lmod * sq <= fy + tol)
    assert np.all(fx + inner + 0.5 * umod * sq >= fy - tol)
    norms = np.einsum("ij,ij->i", xs, xs)
    assert np.all(2.0 * fx / umod <= norms + 1e-9 * (1 + norms))
    assert np.all(norms <= 2.0 * fx / lmod + 1e-9 * (1 + norms))


@pytest.mark.parametrize("name", TRANSFORMS)
def test_transforms_strictly_increasing(name):
    rng = np.random.default_rng(7)
    a = rng.uniform(-30.0, 30.0, 10_000)
    b = a + rng.uniform(1e-9, 10.0, 10_000)
    assert np.all(TRANSFORMS[name](a) < TRANSFORMS[name](b))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        sphere(3).value([1.0, 2.0])


def test_composite_gradient_unsupported():
    comp = make_composite(sphere(2), "cube_shift", np.zeros(2))
    with pytest.raises(ValueError):
        comp.gradient([1.0, 0.0])


def test_nested_composites_rejected():
    inner = make_composite(sphere(2), "identity", np.zeros(2))
    with pytest.raises(ValueError):
        make_composite(inner, "identity", np.zeros(2))


def test_perturbation_must_keep_convexity():
    with pytest.raises(ValueError, match="strong convexity"):
        ObjectiveSpec(kind="quadratic_perturbed", dim=2, diag=np.full(2, PERTURB_AMP))


def test_make_composite_rejects_unknown_transform():
    with pytest.raises(ValueError, match="unknown transform 'square'"):
        make_composite(sphere(2), "square", np.zeros(2))

