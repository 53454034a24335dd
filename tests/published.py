"""Published reference values for the three standard convergence studies.

Errors are discrete max-norm values on the 127 x 127 evaluation lattice;
CR columns are log2 ratios under mesh doubling as printed in the source
tables. One printed rate (example 2, E_0, M=16) reads 9.536 where the
log2 ratio of the printed errors is 0.954; it is stored here as 0.9536,
i.e. with the evidently dropped decimal point restored.

The rows are M = subdiff.benchmarks.M_VALUES; the keys are each table's mu
(TABLE2_MUS and TABLE3_MUS there).
"""

# example 1, 1000 time subintervals, max error over steps (mu = 0)
TABLE1_ERRORS = {
    0.0: (1.2759e-02, 3.3749e-03, 8.7940e-04, 2.2284e-04, 5.6414e-05),
}
TABLE1_RATES = {
    0.0: (1.9186, 1.9402, 1.9805, 1.9819),
}

# example 2, 1300 time subintervals, weighted errors E_mu
TABLE2_ERRORS = {
    0.0: (3.008e-02, 1.054e-02, 5.441e-03, 1.876e-03, 8.667e-04),
    0.25: (9.521e-03, 1.412e-03, 4.112e-04, 1.391e-04, 6.425e-05),
    0.5: (3.610e-03, 5.342e-04, 1.279e-04, 3.344e-05, 8.598e-06),
    0.75: (1.597e-03, 2.401e-04, 5.678e-05, 1.513e-05, 4.055e-06),
}
TABLE2_RATES = {
    0.0: (1.513, 0.9536, 1.536, 1.114),
    0.25: (2.754, 1.779, 1.564, 1.114),
    0.5: (2.757, 2.062, 1.936, 1.959),
    0.75: (2.734, 2.080, 1.908, 1.900),
}

# example 3, 1300 time subintervals
TABLE3_ERRORS = {
    0.0: (1.0160e-00, 9.7501e-01, 7.0054e-01, 3.2311e-01, 1.5301e-01),
    0.5: (3.453e-02, 8.545e-03, 3.852e-03, 1.776e-03, 8.409e-04),
    0.75: (1.531e-02, 2.245e-03, 6.809e-04, 2.000e-04, 6.234e-05),
    1.0: (9.898e-03, 1.525e-03, 4.783e-04, 1.442e-04, 4.945e-05),
}
TABLE3_RATES = {
    0.0: (0.0594, 0.4769, 1.1164, 1.0783),
    0.5: (2.015, 1.150, 1.117, 1.078),
    0.75: (2.769, 1.721, 1.767, 1.682),
    1.0: (2.699, 1.672, 1.730, 1.544),
}

TABLES = {
    "table1": (TABLE1_ERRORS, TABLE1_RATES),
    "table2": (TABLE2_ERRORS, TABLE2_RATES),
    "table3": (TABLE3_ERRORS, TABLE3_RATES),
}
