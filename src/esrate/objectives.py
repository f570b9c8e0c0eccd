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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Transform",
    "IDENTITY",
    "CUBE_SHIFT",
    "EXP_MINUS_ONE",
    "affine_pos",
    "ALL_TRANSFORMS",
    "ObjectiveSpec",
    "quadratic_diag",
    "sphere",
    "hessian_family",
    "check_kappa",
    "quadratic_perturbed",
    "perturbed_family",
    "make_composite",
    "to_json",
    "from_json",
]

# Defaults for the perturbed family exposed through JSON and the CLI.
PERTURB_AMP_DEFAULT = 0.5
PERTURB_FREQ_DEFAULT = 3.0

#: Largest condition exponent of the benchmark Hessians: 10.0**308 is finite.
KAPPA_MAX = 308


@dataclass(frozen=True, eq=False)
class Transform:
    """A strictly increasing scalar map used to wrap objectives.

    ``name`` is one of ``identity``, ``affine``, ``cube_shift``,
    ``exp_minus_one``.  ``affine`` uses ``y -> a*y + b`` with ``a > 0``.
    """

    name: str
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in ("identity", "affine", "cube_shift", "exp_minus_one"):
            raise ValueError(f"unknown transform {self.name!r}")
        if self.name == "affine" and not self.a > 0:
            raise ValueError("affine transform requires slope a > 0")

    def __call__(self, y):
        if self.name == "identity":
            return y
        if self.name == "affine":
            return self.a * y + self.b
        if self.name == "cube_shift":
            return y**3 + y
        # exp_minus_one; expm1 keeps monotonicity and precision near 0
        return np.expm1(y)

    def encode(self) -> str:
        if self.name == "affine":
            return f"affine:{self.a!r}:{self.b!r}"
        return self.name

    @staticmethod
    def decode(text: str) -> "Transform":
        parts = text.split(":")
        if parts[0] == "affine":
            if len(parts) != 3:
                raise ValueError(f"bad affine transform encoding {text!r}")
            return Transform("affine", a=float(parts[1]), b=float(parts[2]))
        if len(parts) != 1:
            raise ValueError(f"bad transform encoding {text!r}")
        return Transform(parts[0])


IDENTITY = Transform("identity")
CUBE_SHIFT = Transform("cube_shift")
EXP_MINUS_ONE = Transform("exp_minus_one")


def affine_pos(a: float, b: float) -> Transform:
    """Strictly increasing affine transform ``y -> a*y + b`` with ``a > 0``."""
    return Transform("affine", a=float(a), b=float(b))


#: One representative of every transform variant (affine with generic params).
ALL_TRANSFORMS = (IDENTITY, affine_pos(2.0, 3.0), CUBE_SHIFT, EXP_MINUS_ONE)


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Immutable description of a test objective.

    ``kind`` is one of ``quadratic_diag``, ``quadratic_perturbed``,
    ``composite``.  Quadratic kinds have their unique minimum at the origin
    with value 0; composites move the minimum to ``x_opt``.

    For ``quadratic_diag`` the Hessian diagonal is ``diag``; ``family`` and
    ``kappa`` record the benchmark family the spec was built from, when any.
    For ``quadratic_perturbed`` the value is
    ``0.5*sum(diag_i x_i^2) + (amp/freq^2) * sum(1 - cos(freq*x_i))``,
    whose Hessian eigenvalues are within ``amp`` of the base diagonal.

    Arrays are not defensively copied; treat specs as read-only.
    """

    kind: str
    dim: int
    diag: np.ndarray | None = None
    perturb_amp: float = 0.0
    perturb_freq: float = 1.0
    base: "ObjectiveSpec | None" = None
    transform: Transform | None = None
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
                if self.perturb_amp < 0 or self.perturb_freq <= 0:
                    raise ValueError("need perturb_amp >= 0 and perturb_freq > 0")
                if float(np.min(self.diag)) - self.perturb_amp <= 0:
                    raise ValueError(
                        "perturbation amplitude destroys strong convexity "
                        "(min diagonal entry must exceed amp)"
                    )
        elif self.kind == "composite":
            if self.base is None or self.transform is None or self.x_opt is None:
                raise ValueError("composite needs base, transform and x_opt")
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
            return float(np.min(self.diag)) - self.perturb_amp
        return self.base.strong_convexity

    @property
    def smoothness(self) -> float:
        """Lipschitz smoothness modulus U (>= L)."""
        if self.kind == "quadratic_diag":
            return float(np.max(self.diag))
        if self.kind == "quadratic_perturbed":
            return float(np.max(self.diag)) + self.perturb_amp
        return self.base.smoothness

    @property
    def trace_hessian(self) -> float:
        """Trace of the (constant) Hessian; defined for quadratic_diag only."""
        if self.kind != "quadratic_diag":
            raise ValueError("trace_hessian is defined for quadratic_diag specs only")
        return float(np.sum(self.diag))

    @property
    def optimum(self) -> np.ndarray:
        if self.kind == "composite":
            return self.x_opt
        return np.zeros(self.dim)

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
        if self.kind == "quadratic_diag":
            return 0.5 * float(np.dot(self.diag * x, x))
        if self.kind == "quadratic_perturbed":
            quad = 0.5 * float(np.dot(self.diag * x, x))
            amp, freq = self.perturb_amp, self.perturb_freq
            return quad + (amp / freq**2) * float(np.sum(1.0 - np.cos(freq * x)))
        return float(self.transform(self.base.value(x - self.x_opt)))

    def value_many(self, xs: np.ndarray) -> np.ndarray:
        """Objective values for a batch of points, shape ``(n, dim)``.

        For the quadratic kinds row ``i`` equals ``value(xs[i])`` bit for
        bit: ``vecdot`` reduces each row in ``np.dot``'s order, and the
        cosine sum runs along the row like the 1-D sum.
        """
        xs = self._check_dim(xs)
        if self.kind == "quadratic_diag":
            return 0.5 * np.vecdot(self.diag * xs, xs)
        if self.kind == "quadratic_perturbed":
            quad = 0.5 * np.vecdot(self.diag * xs, xs)
            amp, freq = self.perturb_amp, self.perturb_freq
            return quad + (amp / freq**2) * np.sum(1.0 - np.cos(freq * xs), axis=1)
        return np.asarray(self.transform(self.base.value_many(xs - self.x_opt)))

    def canonical_value(self, x) -> float:
        """Pre-transform value: base objective at ``x - x_opt`` for composites."""
        if self.kind == "composite":
            return self.base.value(self._check_dim(x) - self.x_opt)
        return self.value(x)

    def gradient(self, x) -> np.ndarray:
        """Exact gradient; unsupported for composites (never needed by the ES)."""
        if self.kind == "composite":
            raise ValueError("gradients of composite specs are not supported")
        x = self._check_dim(x)
        if self.kind == "quadratic_diag":
            return self.diag * x
        amp, freq = self.perturb_amp, self.perturb_freq
        return self.diag * x + (amp / freq) * np.sin(freq * x)


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
    if dim < 1:
        raise ValueError("dim must be >= 1")
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


def check_kappa(kappa) -> None:
    """Raise ``ValueError`` unless ``kappa`` is an integer in ``[0, KAPPA_MAX]``."""
    is_int = isinstance(kappa, (int, np.integer)) and not isinstance(kappa, bool)
    if not (is_int and 0 <= kappa <= KAPPA_MAX):
        raise ValueError(f"kappa must be an integer in [0, {KAPPA_MAX}], got {kappa!r}")


def quadratic_perturbed(diag, amp: float, freq: float) -> ObjectiveSpec:
    """Quadratic plus bounded trigonometric perturbation (non-quadratic member)."""
    diag = np.asarray(diag, dtype=float)
    return ObjectiveSpec(
        kind="quadratic_perturbed",
        dim=len(diag),
        diag=diag,
        perturb_amp=float(amp),
        perturb_freq=float(freq),
    )


def perturbed_family(
    dim: int,
    kappa: int,
    amp: float = PERTURB_AMP_DEFAULT,
    freq: float = PERTURB_FREQ_DEFAULT,
) -> ObjectiveSpec:
    """Perturbed quadratic over the graded ``h2`` diagonal; the CLI's "perturbed"."""
    base = hessian_family("h2", dim, kappa)
    return ObjectiveSpec(
        kind="quadratic_perturbed",
        dim=dim,
        diag=base.diag,
        perturb_amp=float(amp),
        perturb_freq=float(freq),
        family="perturbed",
        kappa=kappa,
    )


def make_composite(base: ObjectiveSpec, transform: Transform, x_opt) -> ObjectiveSpec:
    """Wrap ``base`` in a strictly increasing transform and shift its optimum."""
    x_opt = np.asarray(x_opt, dtype=float)
    return ObjectiveSpec(
        kind="composite", dim=base.dim, base=base, transform=transform, x_opt=x_opt
    )


# -- JSON serialization -----------------------------------------------------


def to_json(spec: ObjectiveSpec) -> dict:
    """Serialize a spec to a plain dict (families, perturbed, composites)."""
    if spec.kind == "composite":
        return {
            "kind": "composite",
            "dim": spec.dim,
            "base": to_json(spec.base),
            "transform": spec.transform.encode(),
            "x_opt": [float(v) for v in spec.x_opt],
        }
    if spec.family in ("h1", "h2", "h3"):
        return {"kind": spec.family, "dim": spec.dim, "kappa": int(spec.kappa)}
    if spec.kind == "quadratic_perturbed":
        out = {
            "kind": "perturbed",
            "dim": spec.dim,
            "perturb": {"M": spec.perturb_amp, "omega": spec.perturb_freq},
        }
        if spec.kappa is not None:
            out["kappa"] = int(spec.kappa)
        return out
    raise ValueError("only family-tagged, perturbed or composite specs serialize")


def from_json(obj: dict) -> ObjectiveSpec:
    """Inverse of :func:`to_json`."""
    kind = obj["kind"]
    if kind in ("h1", "h2", "h3"):
        return hessian_family(kind, int(obj["dim"]), int(obj.get("kappa", 0)))
    if kind == "perturbed":
        perturb = obj.get("perturb", {})
        return perturbed_family(
            int(obj["dim"]),
            int(obj.get("kappa", 0)),
            amp=float(perturb.get("M", PERTURB_AMP_DEFAULT)),
            freq=float(perturb.get("omega", PERTURB_FREQ_DEFAULT)),
        )
    if kind == "composite":
        base = from_json(obj["base"])
        return make_composite(
            base, Transform.decode(obj["transform"]), np.asarray(obj["x_opt"], float)
        )
    raise ValueError(f"unknown objective kind {kind!r}")
