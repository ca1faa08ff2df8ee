"""Frozen-Jacobian Newton iterations for square nonlinear systems.

One Jacobian factorization per outer iteration, ``m`` chord updates reusing
the frozen factors, local convergence order ``m + 1``.  Ships a registry of
five benchmark problems, a convergence-order estimator, and a CLI harness.
"""
from . import analysis, linalg, problems, solver
from .analysis import *
from .linalg import *
from .problems import *
from .solver import *

# Each submodule's __all__ is the one declaration of what it makes public.
__all__ = []
__all__ += analysis.__all__
__all__ += linalg.__all__
__all__ += problems.__all__
__all__ += solver.__all__

__version__ = "0.1.0"
