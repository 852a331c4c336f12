"""The scalar/vector strategy switch shared by every dual-path call site.

The pattern started inside :class:`repro.core.ledger.CandidateGainIndex`:
one scalar implementation, one vectorized (numpy) implementation, an
auto-switch by instance size, and a hard bit-identity contract between
the two. This module centralizes the switch so the other hot paths
(candidate construction, the MCG greedy, set cover, B*-search re-solves,
shard stitching) all resolve their strategy the same way: an explicit
``strategy=`` argument at the call site wins; otherwise the instance
size picks, against :data:`VECTOR_SIZE_THRESHOLD`.

The threshold is read at *call* time, so a test can force every nested
dispatch site one way by patching it to ``0`` (always vector) or
``sys.maxsize`` (always scalar).
"""

from __future__ import annotations

SCALAR = "scalar"
VECTOR = "vector"

#: Auto-switch threshold, in call-site "work units" (``n_users * n_aps``
#: for the solvers and candidate construction, ``n_users`` for
#: materialization and stitching). Below it the scalar twin is faster —
#: python loop overhead beats array set-up on tiny instances — and above
#: it the numpy strategy wins by orders of magnitude. Same order of
#: magnitude as the ledger's ``_VECTORIZE_THRESHOLD``; documented in
#: docs/architecture.md.
VECTOR_SIZE_THRESHOLD = 2048


def resolve_strategy(size: int, override: str | None = None) -> str:
    """Pick ``SCALAR`` or ``VECTOR`` for an instance of ``size`` work units.

    A given ``override`` wins (and must be one of the two); otherwise
    vector once ``size`` reaches :data:`VECTOR_SIZE_THRESHOLD`.
    """
    if override is None:
        return VECTOR if size >= VECTOR_SIZE_THRESHOLD else SCALAR
    if override in (SCALAR, VECTOR):
        return override
    raise ValueError(
        f"strategy must be 'scalar' or 'vector', got {override!r}"
    )
