"""Explicit families of totally real cubic orders with certified unit pairs,
their lattice shapes, and escape of mass along the diagonal flow.

The package builds one- and two-unit parametric families of monic integer
cubics, proves fundamentality of the constructed unit pairs via a regulator
ratio criterion, reduces unit-lattice shapes to the modular surface, scans
escape of mass over hexagonal fundamental domains, and iterates the maps
that generate the ratio set of mutually-cubic-root pairs. Everything
user-facing is exact or carries explicit error bounds.

The package's public names are the union of its modules' `__all__` lists.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["__version__"]
for _name in ("cubics", "errors", "families", "masses", "precision", "ratios", "roots", "shapes", "units"):
    _module = import_module(f".{_name}", __name__)
    globals().update((public, getattr(_module, public)) for public in _module.__all__)
    __all__ += _module.__all__
del _name, _module
