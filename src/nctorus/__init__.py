"""Magnetic Bloch waves on a torus at rational flux, the finite
noncommutative-torus matrix algebras they generate, and modular
invariance checks for the associated partition functions.

The package namespace holds every name of its modules' ``__all__``."""

from .core import *
from .errors import *
from .theta import *
from .fields import *
from .lll import *
from .matrices import *
from .partition import *

__version__ = "0.1.0"
