"""Regenerate the frozen reference values used by the special-function tests.

Run manually (requires mpmath):  python tools/gen_mlf_reference.py

Two independent high-precision references:
  * the defining power series summed in extended precision, with the
    gamma arguments formed exactly (working digits sized to the largest
    alternating term, exp(x^(1/alpha)));
  * for alpha = 1/2, the closed form exp(x^2) erfc(x).

The series route needs ~0.45 x^(1/alpha) digits, so it is only feasible
while x^(1/alpha) stays moderate; the sample grids below respect that.
"""

import mpmath as mp


def mlf_series_oracle(alpha: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    T = float(x) ** (1.0 / alpha)
    if T > 3000.0:
        raise ValueError(f"series oracle infeasible: x^(1/alpha) = {T:.3g}")
    dps = int(T * 0.45) + 60
    with mp.workdps(dps):
        am = mp.mpf(alpha)  # exact conversion of the binary double
        xm = mp.mpf(x)
        s = mp.mpf(1)
        p = 0
        while True:
            p += 1
            term = (-xm) ** p / mp.gamma(am * p + 1)
            s += term
            if abs(term) < mp.mpf(10) ** (-30) * abs(s) and p > 2 * T + 10:
                break
        return float(s)


def mlf_half_identity(x: float) -> float:
    with mp.workdps(60):
        xm = mp.mpf(x)
        return float(mp.e ** (xm * xm) * mp.erfc(xm))


GRIDS = {
    0.01: [0.5, 1.04],
    0.02: [0.5, 1.04],
    0.25: [0.05, 0.3, 0.9, 1.5, 1.77, 1.9, 2.6, 4.0, 5.5, 7.0],
    0.5: [0.05, 0.3, 1.0, 2.5, 3.1, 3.3, 6.0, 12.0, 25.0, 49.5],
    0.75: [0.05, 0.5, 1.5, 3.0, 4.9, 5.1, 9.0, 17.0, 33.0, 49.5],
    0.95: [0.05, 0.5, 1.5, 3.0, 4.9, 5.1, 9.0, 17.0, 33.0, 49.5],
}


def main():
    print("MLF_SERIES_REFERENCE = {")
    for alpha, xs in GRIDS.items():
        print(f"    {alpha}: [")
        for x in xs:
            v = mlf_series_oracle(alpha, x)
            print(f"        ({x!r}, {v!r}),")
        print("    ],")
    print("}")
    print()
    print("MLF_HALF_IDENTITY = [")
    for x in [0.1, 1.0, 3.3, 10.0, 30.0, 60.0, 200.0, 1e3, 1e4, 1e5]:
        print(f"    ({x!r}, {mlf_half_identity(x)!r}),")
    print("]")


if __name__ == "__main__":
    main()
