"""Birkhoff-James orthogonality, approximate orthogonality, and normal cones."""

from . import cones, minimize, norms, oracle, orthogonality, sections
from .cones import *  # noqa: F403
from .minimize import *  # noqa: F403
from .norms import *  # noqa: F403
from .oracle import *  # noqa: F403
from .orthogonality import *  # noqa: F403
from .sections import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (cones, minimize, norms, oracle, orthogonality, sections)
           for name in module.__all__]
