"""Experiment presets for the three standard convergence studies; a table's
runs also give its figure's per-step error curves.

The mesh sizes and weight exponents are those of the source tables; the
published values themselves live with the tests that compare against
them (tests/published.py).
"""

from __future__ import annotations

M_VALUES = (4, 8, 16, 32, 64)
TABLE2_MUS = (0.0, 0.25, 0.5, 0.75)
TABLE3_MUS = (0.0, 0.5, 0.75, 1.0)

# Experiment presets. The tables for examples 2 and 3 do not restate alpha;
# 0.75, the value used for example 1, is assumed throughout.
PRESETS = {
    "table1": dict(example="example1", alpha=0.75, M=list(M_VALUES), N=1000,
                   gamma=1.6, T=0.5, mu=[0.0]),
    "table2": dict(example="example2", alpha=0.75, M=list(M_VALUES), N=1300,
                   gamma=1.6, T=0.5, mu=list(TABLE2_MUS)),
    "table3": dict(example="example3", alpha=0.75, M=list(M_VALUES), N=1300,
                   gamma=1.6, T=0.5, mu=list(TABLE3_MUS)),
}
