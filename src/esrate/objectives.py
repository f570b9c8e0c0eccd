"""Strongly convex, Lipschitz-smooth test functions with known constants.

Three kinds of objective are supported:

* diagonal convex quadratics ``f(x) = 0.5 * sum(h_i * x_i^2)``, including the
  three benchmark Hessian families (cigar-like ``h1``, graded ``h2``,
  discus-like ``h3``) parameterised by a condition exponent ``kappa``;
* trigonometrically perturbed quadratics, a non-quadratic family whose Hessian
  spectrum stays inside a known ``[L, U]`` band;
* composites ``g(f(x - x_opt))`` of a base objective with a strictly
  increasing scalar transform and a translated optimum.

Every spec carries its strong-convexity modulus ``L`` and smoothness modulus
``U``.  Values are pure functions of immutable specs and safe to evaluate
concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "TRANSFORMS",
    "ObjectiveSpec",
    "quadratic_diag",
    "sphere",
    "hessian_family",
    "check_kappa",
    "is_int",
    "perturbed_family",
    "make_composite",
    "stack_evaluator",
]

#: Largest condition exponent of the benchmark Hessians: 10.0**308 is finite.
KAPPA_MAX = 308

#: Amplitude and frequency of the ``quadratic_perturbed`` kind's cosine term.
PERTURB_AMP = 0.5
PERTURB_FREQ = 3.0
_PERTURB_COEF = PERTURB_AMP / PERTURB_FREQ**2


#: Strictly increasing scalar maps by name; a composite stores one name.
#: Runs never evaluate them: the engine compares a composite's base values.
TRANSFORMS = {
    "identity": lambda y: y,
    "affine": lambda y: 2.0 * y + 3.0,
    "cube_shift": lambda y: y**3 + y,
    "exp_minus_one": np.expm1,  # keeps monotonicity and precision near 0
}


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Immutable description of a test objective.

    ``kind`` is one of ``quadratic_diag``, ``quadratic_perturbed``,
    ``composite``.  Quadratic kinds have their unique minimum at the origin
    with value 0; composites move the minimum to ``x_opt``.

    For ``quadratic_diag`` the Hessian diagonal is ``diag``; ``family`` and
    ``kappa`` record the benchmark family the spec was built from, when any.
    For ``quadratic_perturbed`` the value is
    ``0.5*sum(diag_i x_i^2) + (amp/freq^2) * sum(1 - cos(freq*x_i))`` with
    ``amp = PERTURB_AMP`` and ``freq = PERTURB_FREQ``, whose Hessian
    eigenvalues are within ``amp`` of the base diagonal.
    A ``composite`` is ``TRANSFORMS[transform](base.value(x - x_opt))``.

    Arrays are not defensively copied; treat specs as read-only.
    """

    kind: str
    dim: int
    diag: np.ndarray | None = None
    base: "ObjectiveSpec | None" = None
    transform: str | None = None
    x_opt: np.ndarray | None = None
    family: str | None = None
    kappa: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.kind in ("quadratic_diag", "quadratic_perturbed"):
            if self.diag is None or len(self.diag) != self.dim:
                raise ValueError("diagonal must have length dim")
            if not np.all(np.asarray(self.diag) > 0):
                raise ValueError("Hessian diagonal entries must be positive")
            if self.kind == "quadratic_perturbed":
                if float(np.min(self.diag)) - PERTURB_AMP <= 0:
                    raise ValueError(
                        "perturbation amplitude destroys strong convexity "
                        "(min diagonal entry must exceed amp)"
                    )
        elif self.kind == "composite":
            if self.base is None or self.x_opt is None:
                raise ValueError("composite needs base and x_opt")
            if self.transform not in TRANSFORMS:
                raise ValueError(f"unknown transform {self.transform!r}")
            if self.base.kind == "composite":
                raise ValueError("nesting composites is not supported")
            if self.base.dim != self.dim or len(self.x_opt) != self.dim:
                raise ValueError("composite members must share dim")
        else:
            raise ValueError(f"unknown objective kind {self.kind!r}")

    # -- characteristic constants ------------------------------------------

    @property
    def strong_convexity(self) -> float:
        """Strong convexity modulus L."""
        if self.kind == "quadratic_diag":
            return float(np.min(self.diag))
        if self.kind == "quadratic_perturbed":
            return float(np.min(self.diag)) - PERTURB_AMP
        return self.base.strong_convexity

    @property
    def smoothness(self) -> float:
        """Lipschitz smoothness modulus U (>= L)."""
        if self.kind == "quadratic_diag":
            return float(np.max(self.diag))
        if self.kind == "quadratic_perturbed":
            return float(np.max(self.diag)) + PERTURB_AMP
        return self.base.smoothness

    @property
    def trace_hessian(self) -> float:
        """Trace of the (constant) Hessian; defined for quadratic_diag only."""
        if self.kind != "quadratic_diag":
            raise ValueError("trace_hessian is defined for quadratic_diag specs only")
        return float(np.sum(self.diag))

    @property
    def is_quadratic(self) -> bool:
        return self.kind == "quadratic_diag"

    def canonical(self) -> tuple["ObjectiveSpec", np.ndarray]:
        """Return ``(base_spec, shift)`` so that self(x) = transform(base(x - shift))."""
        if self.kind == "composite":
            return self.base, self.x_opt
        return self, np.zeros(self.dim)

    # -- evaluation --------------------------------------------------------

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point has dim {x.shape[-1]}, spec has dim {self.dim}")
        return x

    def value(self, x) -> float:
        """Objective value at a single point ``x``."""
        x = self._check_dim(x)
        if self.kind == "composite":
            return float(TRANSFORMS[self.transform](self.base.value(x - self.x_opt)))
        return float(_FORMULAS[self.kind](self.diag, x))

    def value_many(self, xs: np.ndarray) -> np.ndarray:
        """Objective values for a batch of points, shape ``(n, dim)``.

        For the quadratic kinds row ``i`` equals ``value(xs[i])`` bit for
        bit; they are a stack of one spec (:func:`stack_evaluator`).
        """
        xs = self._check_dim(xs)
        if self.kind == "composite":
            return np.asarray(TRANSFORMS[self.transform](self.base.value_many(xs - self.x_opt)))
        return stack_evaluator([self])(xs[None])[0]

    def gradient(self, x) -> np.ndarray:
        """Exact gradient; unsupported for composites (never needed by the ES)."""
        if self.kind == "composite":
            raise ValueError("gradients of composite specs are not supported")
        x = self._check_dim(x)
        if self.kind == "quadratic_diag":
            return self.diag * x
        return self.diag * x + (PERTURB_AMP / PERTURB_FREQ) * np.sin(PERTURB_FREQ * x)

    def gradient_norm(self, x) -> float:
        """``||gradient(x)||``, silently ``inf`` past the float range.

        Where the squared norm overflows (an entry near 1e154, say ``kappa >= 154``)
        or falls below ``sys.float_info.min`` (every entry below about 1e-154),
        where a subnormal has lost digits, the scaled ``math.hypot`` takes over.
        """
        with np.errstate(over="ignore"):
            grad = self.gradient(x)
            sq = float(np.dot(grad, grad))
        return math.sqrt(sq) if sys.float_info.min <= sq < math.inf else math.hypot(*grad)


def _values(diag, xs, scratch=None):
    """``0.5 * <diag * x, x>`` along the last axis of ``xs``.

    The one quadratic formula of :meth:`ObjectiveSpec.value`, ``value_many``
    and :func:`stack_evaluator`; ``vecdot`` reduces a batch row as it does a
    single point, so every row equals ``value`` bit for bit.  ``scratch``, an
    array of the broadcast shape of ``diag * xs``, receives the elementwise
    temporaries, so a caller that evaluates many batches allocates them once;
    the values do not change.
    """
    return 0.5 * np.vecdot(np.multiply(diag, xs, out=scratch), xs)


def _perturbed_values(diag, xs, scratch=None):
    """:func:`_values` plus the cosine term of ``quadratic_perturbed``, summed
    along the last axis of ``xs``; ``scratch`` as for :func:`_values`."""
    quad = _values(diag, xs, scratch)
    cos = np.cos(np.multiply(PERTURB_FREQ, xs, out=scratch), out=scratch)
    return quad + _PERTURB_COEF * np.add.reduce(np.subtract(1.0, cos, out=cos), axis=-1)


#: Non-composite kind -> its formula of ``(diag, xs)``.
_FORMULAS = {"quadratic_diag": _values, "quadratic_perturbed": _perturbed_values}


def stack_evaluator(specs):
    """Evaluator of a stack of quadratic specs that share ``kind`` and ``dim``.

    The returned function maps ``xs`` of shape ``(len(specs), n, dim)``, and
    an optional scratch array of that shape, to values of shape
    ``(len(specs), n)``, with ``[i, j]`` equal to
    ``specs[i].value(xs[i, j])`` bit for bit: each spec's diagonal
    broadcasts over its own rows.  Raises ``ValueError`` for an empty
    stack, mixed kinds or dims, and composites.
    """
    kinds = {(s.kind, s.dim) for s in specs}
    if len(kinds) != 1:
        raise ValueError(f"a stack needs one kind and dim, got {sorted(kinds)}")
    kind, _ = kinds.pop()
    if kind == "composite":
        raise ValueError("stack the canonical base specs of composites")
    diag = np.stack([s.diag for s in specs])[:, None, :]
    return partial(_FORMULAS[kind], diag)


def quadratic_diag(diag, family: str | None = None, kappa: int | None = None) -> ObjectiveSpec:
    """Diagonal convex quadratic ``0.5 * sum(h_i x_i^2)``."""
    diag = np.asarray(diag, dtype=float)
    return ObjectiveSpec(
        kind="quadratic_diag", dim=len(diag), diag=diag, family=family, kappa=kappa
    )


def sphere(dim: int) -> ObjectiveSpec:
    """The isotropic quadratic ``0.5 * ||x||^2``."""
    return hessian_family("h1", dim, 0)


def hessian_family(kind: str, dim: int, kappa: int) -> ObjectiveSpec:
    """Benchmark diagonal Hessians, condition number ``10**kappa``.

    ``h1``: one unit entry then ``10**kappa`` repeated; ``h2``: geometric
    grading ``10**(kappa*i/(d-1))``; ``h3``: unit entries with a single
    ``10**kappa`` tail entry.  All reduce to the identity for ``kappa == 0``,
    and to ``(1,)`` for ``dim == 1``.
    """
    kind = kind.lower()
    if kind not in ("h1", "h2", "h3"):
        raise ValueError(f"unknown Hessian family {kind!r}")
    if not (is_int(dim) and dim >= 1):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    check_kappa(kappa)
    if dim == 1:
        diag = np.array([1.0])
    elif kind == "h1":
        diag = np.full(dim, 10.0**kappa)
        diag[0] = 1.0
    elif kind == "h2":
        diag = 10.0 ** (kappa * np.arange(dim) / (dim - 1))
    else:
        diag = np.ones(dim)
        diag[-1] = 10.0**kappa
    return quadratic_diag(diag, family=kind, kappa=kappa)


def is_int(value) -> bool:
    """An int or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_kappa(kappa) -> None:
    """Raise ``ValueError`` unless ``kappa`` is an integer in ``[0, KAPPA_MAX]``."""
    if not (is_int(kappa) and 0 <= kappa <= KAPPA_MAX):
        raise ValueError(f"kappa must be an integer in [0, {KAPPA_MAX}], got {kappa!r}")


def _positive_value(spec: ObjectiveSpec, m, where: str) -> float:
    """``f(m)``, warning-free; a ``ValueError`` naming ``where`` unless ``0 < f(m) < inf``."""
    with np.errstate(over="ignore", invalid="ignore"):
        f_m = spec.value(m)
    if not 0.0 < f_m < math.inf:
        raise ValueError(f"{where} must be off the optimum and within the float range: "
                         f"f(m) = {f_m!r} is 0 or not finite")
    return f_m


def perturbed_family(dim: int, kappa: int) -> ObjectiveSpec:
    """Perturbed quadratic over the graded ``h2`` diagonal; the CLI's "perturbed"."""
    base = hessian_family("h2", dim, kappa)
    return ObjectiveSpec(
        kind="quadratic_perturbed",
        dim=dim,
        diag=base.diag,
        family="perturbed",
        kappa=kappa,
    )


def make_composite(base: ObjectiveSpec, transform: str, x_opt) -> ObjectiveSpec:
    """Wrap ``base`` in the transform named ``transform`` (a key of
    :data:`TRANSFORMS`) and shift its optimum to ``x_opt``."""
    x_opt = np.asarray(x_opt, dtype=float)
    return ObjectiveSpec(
        kind="composite", dim=base.dim, base=base, transform=transform, x_opt=x_opt
    )

