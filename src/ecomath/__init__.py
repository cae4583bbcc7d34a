"""ecomath: a small quantitative-economics toolkit.

Subpackages and modules:

- ``linalg``    vectors, matrices and the shared matrix text format
- ``linsolve``  Gaussian elimination, determinants, inverses, symmetric eigenproblems
- ``leontief``  stationary input-output analysis
- ``simplex``   the simplex method for standard maximum problems
- ``finmath``   compound interest, annuities, redemption, pensions, depreciation
- ``calculus``  expression trees, differentiation, roots, curve reports, integration
- ``econ``      cost phases, profit/Cournot analysis, market equilibrium and surplus
- ``numeric``   the NumericalError base and the bracketed root finder, stdlib only

Submodules load on first attribute access (PEP 562), so ``import ecomath``
loads none of them.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "calculus",
    "econ",
    "finmath",
    "leontief",
    "linalg",
    "linsolve",
    "numeric",
    "simplex",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
