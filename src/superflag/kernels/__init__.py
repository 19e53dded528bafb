"""Scalar and monomial kernels.

Re-exports the pure-Python primitives of ``_pure``.  ``BACKEND`` names the
implementation and is quoted in verification reports.
"""

from ._pure import (
    Q_ONE,
    Q_ZERO,
    merge_odd,
    mul_even,
    q_add,
    q_inv,
    q_mul,
    q_neg,
    q_normalize,
    q_sub,
)

BACKEND = "pure"

__all__ = [
    "BACKEND", "Q_ZERO", "Q_ONE", "q_normalize", "q_add", "q_neg", "q_sub",
    "q_mul", "q_inv", "merge_odd", "mul_even",
]
