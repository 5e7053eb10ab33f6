"""Two-dimensional sections of higher-dimensional normed spaces.

The approximate-orthogonality sets in dimension n decompose as unions of
2-D cones over plane sections through x, so the plane case carries all of
the structure.  A SectionNorm is the norm induced on coefficient pairs
(a, b) -> ||a*x + b*y|| for a fixed basis of the section.
"""

import numpy as np

from .norms import Norm, as_vector, is_collinear
from .orthogonality import is_approx_orth_b, is_approx_orth_d

__all__ = ["SectionNorm", "restrict_norm", "f_membership", "g_membership"]


class SectionNorm(Norm):
    """Norm induced on the plane spanned by two independent ambient vectors."""

    dim = 2

    def __init__(self, ambient, basis_x, basis_y):
        bx = as_vector(basis_x, ambient.dim)
        by = as_vector(basis_y, ambient.dim)
        if is_collinear(bx, by, rtol=1e-12):
            raise ValueError("section basis vectors must be linearly independent")
        self.ambient = ambient
        self.basis = np.stack([bx, by])

    def __repr__(self):
        return f"SectionNorm(ambient={self.ambient!r})"

    def values(self, points):
        pts = self._check_points(points)
        return self.ambient.values(pts @ self.basis)

    def gradient(self, x):
        x = as_vector(x, 2)
        g = self.ambient.gradient(x @ self.basis)
        return None if g is None else self.basis @ g

    def right_derivative(self, x, y):
        return self.ambient.right_derivative(x @ self.basis, y @ self.basis)

    def line_min(self, points, dirs, eps=None):
        return self.ambient.line_min(points @ self.basis, dirs @ self.basis, eps)

    def chord(self, o, z):
        return self.ambient.chord(o @ self.basis, z @ self.basis)

    def known_smooth(self):
        # a section of a smooth norm is smooth, and a section of a polyhedral
        # norm is a polygon
        return self.ambient.known_smooth()

    @property
    def minimization_tol(self):
        return self.ambient.minimization_tol


def restrict_norm(spec, x, y):
    """The 2-D norm on span{x, y} in coefficient coordinates."""
    return SectionNorm(spec, x, y)


def f_membership(spec, x, eps, y):
    """Distance-type approximate orthogonality of (x, y) in any dimension."""
    return is_approx_orth_d(spec, x, y, eps)


def g_membership(spec, x, eps, y):
    """Quadratic-type approximate orthogonality of (x, y) in any dimension."""
    return is_approx_orth_b(spec, x, y, eps)
