import math

import numpy as np
import pytest

from esrate.objectives import (
    ALL_TRANSFORMS,
    CUBE_SHIFT,
    EXP_MINUS_ONE,
    IDENTITY,
    Transform,
    affine_pos,
    from_json,
    hessian_family,
    make_composite,
    perturbed_family,
    quadratic_diag,
    quadratic_perturbed,
    sphere,
    to_json,
)

RNG = np.random.default_rng(1234)


def test_value_at_optimum_is_zero():
    assert quadratic_diag([1.0, 1.0]).value([0.0, 0.0]) == 0.0


def test_value_weighted_quadratic():
    assert quadratic_diag([1.0, 10.0]).value([2.0, 1.0]) == pytest.approx(7.0)


def test_composite_value_at_shifted_optimum():
    comp = make_composite(sphere(2), EXP_MINUS_ONE, [1.0, 0.0])
    assert comp.value([1.0, 0.0]) == 0.0


def test_gradient_weighted_quadratic():
    g = quadratic_diag([1.0, 10.0]).gradient([2.0, 1.0])
    np.testing.assert_allclose(g, [2.0, 10.0])


def test_gradient_zero_at_origin():
    for spec in (sphere(4), hessian_family("h2", 4, 2), perturbed_family(4, 1)):
        np.testing.assert_allclose(spec.gradient(np.zeros(4)), np.zeros(4))


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


def test_identity_composite_matches_base():
    base = hessian_family("h2", 3, 1)
    comp = make_composite(base, IDENTITY, np.zeros(3))
    for _ in range(50):
        x = RNG.standard_normal(3) * 2.0
        assert comp.value(x) == base.value(x)


def test_affine_composite_value():
    comp = make_composite(sphere(2), affine_pos(2.0, 3.0), np.zeros(2))
    assert comp.value([1.0, 0.0]) == pytest.approx(4.0)


def test_cube_shift_composite_optimum_by_grid_search():
    x_opt = np.ones(3)
    comp = make_composite(hessian_family("h1", 3, 1), CUBE_SHIFT, x_opt)
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
        grads = grads + (spec.perturb_amp / spec.perturb_freq) * np.sin(spec.perturb_freq * xs)
    inner = np.einsum("ij,ij->i", ys - xs, grads)
    sq = np.einsum("ij,ij->i", ys - xs, ys - xs)
    tol = 1e-9 * (1.0 + np.abs(fy))
    assert np.all(fx + inner + 0.5 * lmod * sq <= fy + tol)
    assert np.all(fx + inner + 0.5 * umod * sq >= fy - tol)
    norms = np.einsum("ij,ij->i", xs, xs)
    assert np.all(2.0 * fx / umod <= norms + 1e-9 * (1 + norms))
    assert np.all(norms <= 2.0 * fx / lmod + 1e-9 * (1 + norms))


@pytest.mark.parametrize("transform", ALL_TRANSFORMS, ids=lambda t: t.name)
def test_transforms_strictly_increasing(transform):
    rng = np.random.default_rng(7)
    a = rng.uniform(-30.0, 30.0, 10_000)
    b = a + rng.uniform(1e-9, 10.0, 10_000)
    assert np.all(transform(a) < transform(b))


def test_json_round_trip_family():
    spec = hessian_family("h3", 7, 2)
    again = from_json(to_json(spec))
    np.testing.assert_array_equal(spec.diag, again.diag)
    assert again.family == "h3" and again.kappa == 2


def test_json_round_trip_perturbed():
    spec = perturbed_family(5, 1, amp=0.25, freq=2.0)
    data = to_json(spec)
    assert data["perturb"] == {"M": 0.25, "omega": 2.0}
    again = from_json(data)
    assert again.perturb_amp == 0.25 and again.perturb_freq == 2.0
    np.testing.assert_array_equal(spec.diag, again.diag)


def test_json_round_trip_composite():
    spec = make_composite(hessian_family("h1", 3, 1), affine_pos(2.0, 3.0), [1.0, -2.0, 0.5])
    again = from_json(to_json(spec))
    x = RNG.standard_normal(3)
    assert again.value(x) == spec.value(x)
    np.testing.assert_array_equal(again.x_opt, spec.x_opt)


def test_json_rejects_untagged_diag():
    with pytest.raises(ValueError):
        to_json(quadratic_diag([1.0, 2.0]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        sphere(3).value([1.0, 2.0])


def test_composite_gradient_unsupported():
    comp = make_composite(sphere(2), CUBE_SHIFT, np.zeros(2))
    with pytest.raises(ValueError):
        comp.gradient([1.0, 0.0])


def test_nested_composites_rejected():
    inner = make_composite(sphere(2), IDENTITY, np.zeros(2))
    with pytest.raises(ValueError):
        make_composite(inner, IDENTITY, np.zeros(2))


def test_perturbation_must_keep_convexity():
    with pytest.raises(ValueError):
        quadratic_perturbed([1.0, 2.0], amp=1.0, freq=1.0)


def test_affine_transform_needs_positive_slope():
    with pytest.raises(ValueError):
        Transform("affine", a=-1.0)


def test_transform_encoding_round_trip():
    tr = affine_pos(2.5, -0.75)
    again = Transform.decode(tr.encode())
    assert again.a == 2.5 and again.b == -0.75
    assert Transform.decode("cube_shift").name == "cube_shift"
