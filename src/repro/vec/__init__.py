"""Flat array substrate for the vectorized solver strategies.

``repro.vec`` is a *leaf* layer (see ``repro.lint.tables.LAYER_DAG``): it
imports nothing from the rest of the package so the solver layers above
can depend on it freely. It contributes two small pieces:

* :mod:`repro.vec.strategy` — the scalar/vector strategy switch (the
  auto-switch threshold and the resolver every dual-path call site
  shares);
* :mod:`repro.vec.backend` — the numpy kernels the vector strategy runs
  on. This is the only module in the layer that touches numpy, and
  replint RPL002 polices who may import it.

The contract everywhere: the vectorized strategies are *bit-identical*
to their scalar twins — same selections, same ``float.hex`` loads, same
traces. ``tests/core/test_vector_equivalence.py`` enforces it.
"""

from repro.vec.strategy import (
    SCALAR,
    VECTOR,
    VECTOR_SIZE_THRESHOLD,
    resolve_strategy,
)

__all__ = [
    "SCALAR",
    "VECTOR",
    "VECTOR_SIZE_THRESHOLD",
    "resolve_strategy",
]
