"""Birkhoff-James orthogonality and its two approximate relaxations.

x is Birkhoff-James orthogonal to y when ||x + t y|| >= ||x|| for every t.
The distance-type relaxation at level eps lowers the right side to
sqrt(1 - eps^2) ||x||; the quadratic-type relaxation instead requires
||x + t y||^2 >= ||x||^2 - 2 eps ||x|| ||t y||.  Both relations are
homogeneous, so every predicate here works on the normalized pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .minimize import dist_to_line, min_b_functional, sup_b_ratio
from .norms import as_vector, check_eps, is_collinear, one_sided_derivative

__all__ = [
    "PRED_TOL",
    "OrthReport",
    "is_bj_orthogonal",
    "in_x_plus",
    "in_x_minus",
    "is_approx_orth_d",
    "is_approx_orth_b",
    "eps_d_min",
    "eps_b_min",
    "orth_report",
]

# one-sided tolerance band: boundary cases count as orthogonal
PRED_TOL = 1e-9


def _unit_pair(spec, x, y):
    """x and y scaled to norm one; y is None when it is zero."""
    x = as_vector(x, spec.dim)
    y = as_vector(y, spec.dim)
    nx = spec.value(x)
    if nx == 0.0:
        raise ValueError("x must be nonzero")
    ny = spec.value(y)
    return x / nx, (y / ny if ny != 0.0 else None)


def is_bj_orthogonal(spec, x, y, tol=PRED_TOL):
    """Whether ||x + t y|| >= ||x|| for all t, within tol."""
    return is_approx_orth_d(spec, x, y, 0.0, tol)


def in_x_plus(spec, x, y, tol=PRED_TOL):
    """Whether ||x + t y|| >= ||x|| for all t >= 0 (right derivative >= 0)."""
    xu, yu = _unit_pair(spec, x, y)
    return yu is None or one_sided_derivative(spec, xu, yu, "plus") >= -tol


def in_x_minus(spec, x, y, tol=PRED_TOL):
    """Whether ||x + t y|| >= ||x|| for all t <= 0 (left derivative <= 0)."""
    xu, yu = _unit_pair(spec, x, y)
    return yu is None or one_sided_derivative(spec, xu, yu, "minus") <= tol


def is_approx_orth_d(spec, x, y, eps, tol=PRED_TOL):
    """Distance-type approximate orthogonality: inf ||x + t y|| >= sqrt(1-eps^2) ||x||."""
    check_eps(eps)
    xu, yu = _unit_pair(spec, x, y)
    return yu is None or dist_to_line(spec, xu, yu).value >= math.sqrt(1.0 - eps * eps) - tol


def is_approx_orth_b(spec, x, y, eps, tol=PRED_TOL):
    """Quadratic-type approximate orthogonality at level eps."""
    check_eps(eps)
    xu, yu = _unit_pair(spec, x, y)
    return yu is None or min_b_functional(spec, xu, yu, eps) >= -tol


def _eps_d(d):
    """The least distance-type eps for a line distance d of a unit x."""
    d = min(d, 1.0)
    return math.sqrt(max(0.0, 1.0 - d * d))


def eps_d_min(spec, x, y):
    """Least eps at which the distance-type relation holds."""
    xu, yu = _unit_pair(spec, x, y)
    if yu is None:
        raise ValueError("y must be nonzero")
    return _eps_d(dist_to_line(spec, xu, yu).value)


def eps_b_min(spec, x, y):
    """Least eps at which the quadratic-type relation holds."""
    xu, yu = _unit_pair(spec, x, y)
    if yu is None:
        raise ValueError("y must be nonzero")
    return sup_b_ratio(spec, xu, yu)


@dataclass(frozen=True)
class OrthReport:
    """Full orthogonality profile of a pair (x, y)."""

    bj: bool
    in_plus: bool
    in_minus: bool
    eps_d_min: float
    eps_b_min: float
    degenerate: bool


def orth_report(spec, x, y):
    """Assemble the orthogonality profile of (x, y); both must be nonzero."""
    xu, yu = _unit_pair(spec, x, y)
    if yu is None:
        raise ValueError("y must be nonzero")
    d = dist_to_line(spec, xu, yu).value
    # tau_-(x, y) = -tau_+(x, -y)
    tau_plus, tau_plus_neg = one_sided_derivative(spec, xu, np.stack([yu, -yu]), "plus")
    return OrthReport(
        bj=d >= 1.0 - PRED_TOL,
        in_plus=bool(tau_plus >= -PRED_TOL),
        in_minus=bool(-tau_plus_neg <= PRED_TOL),
        eps_d_min=_eps_d(d),
        eps_b_min=sup_b_ratio(spec, xu, yu),
        degenerate=is_collinear(x, y),
    )
