"""Compiled scipy modules loaded from their extension files.

The package calls two of scipy's compiled modules directly: the HiGHS
bindings (``scipy.optimize._highspy._core``) and the sparse matrix kernels
(``scipy.sparse._sparsetools``).  Importing either through its package
would first run that package's import: ``scipy.optimize`` loads
``scipy.spatial``, ``scipy.linalg`` and ``scipy.special``, and
``scipy.sparse`` about 60 modules, none of which the pipeline uses.

The loader still runs ``import scipy``, though ``importlib`` alone could
find its directory and version: ``scipy/__init__.py`` runs
``scipy._distributor_init``, the hook for distributors' init code such as
BLAS/LAPACK initialization, and no wheel's two extensions are verified to
load without it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _scipy_extension(relative_path: str):
    """The scipy extension module at ``relative_path`` (such as
    ``"sparse/_sparsetools"``) without its package import: the module
    already imported under its dotted name, or else its extension file,
    registered under that name before it runs, so a later import of the
    package reuses this module object."""
    name = "scipy." + relative_path.replace("/", ".")
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    base = os.path.join(os.path.dirname(scipy.__file__), *relative_path.split("/"))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(name, base + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no scipy extension {base}<suffix> for the suffixes "
                      f"{importlib.machinery.EXTENSION_SUFFIXES} "
                      f"(scipy {scipy.__version__})")
