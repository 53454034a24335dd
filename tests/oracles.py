"""Reference helpers shared by the tests; the package itself never needs them."""

import math
from typing import NamedTuple

import numpy as np

from subdiff.exact import InitialDatum
from subdiff.mittag_leffler import _NODES, _WEIGHTS, MlfEvaluator
from subdiff.sparse import RTOL, Stencil
from subdiff.stepping import FracWeights

# Frozen values of E_alpha(-x) from the extended-precision series oracle
# (tools/gen_mlf_reference.py): the defining series summed with ~0.45 x^(1/alpha)
# working digits and exactly-formed gamma arguments. The alpha = 0.01 and 0.02
# rows sit where x^(1/alpha) is large although x is small.
MLF_SERIES_REFERENCE = {
    0.01: [
        (0.5, 0.6653888206397369),
        (1.04, 0.48875326742802916),
    ],
    0.02: [
        (0.5, 0.6641206755431179),
        (1.04, 0.4873097820038107),
    ],
    0.25: [
        (0.05, 0.9475277926665173),
        (0.3, 0.7475917733762234),
        (0.9, 0.4908242549365998),
        (1.5, 0.3632779032999526),
        (1.77, 0.32496555062483684),
        (1.9, 0.3092236411721571),
        (2.6, 0.24506194184790323),
        (4.0, 0.17291766990277474),
        (5.5, 0.13134777146397314),
        (7.0, 0.10585848708784815),
    ],
    0.5: [
        (0.05, 0.9459900435549615),
        (0.3, 0.7345993345676551),
        (1.0, 0.427583576155807),
        (2.5, 0.2108063640611436),
        (3.1, 0.17371840860540824),
        (3.3, 0.16400729757293264),
        (6.0, 0.09277656780053835),
        (12.0, 0.04685422101489376),
        (25.0, 0.02254957243264136),
        (49.5, 0.011395444948937534),
    ],
    0.75: [
        (0.05, 0.9474293585630444),
        (0.5, 0.6037903450952468),
        (1.5, 0.2738222798391781),
        (3.0, 0.12585513691184153),
        (4.9, 0.06958052291535026),
        (5.1, 0.066341438620936),
        (9.0, 0.0344536279569295),
        (17.0, 0.01725159088254259),
        (33.0, 0.008624158289960495),
        (49.5, 0.005689261534458768),
    ],
    0.95: [
        (0.05, 0.9503167500543783),
        (0.5, 0.6046140273421318),
        (1.5, 0.23296065131182464),
        (3.0, 0.06753202221407191),
        (4.9, 0.022224601020698335),
        (5.1, 0.020379889507797688),
        (9.0, 0.007515547547803648),
        (17.0, 0.0034143827498039968),
        (33.0, 0.0016511481914742144),
        (49.5, 0.0010784466639386504),
    ],
}

# E_{1/2}(-x) = exp(x^2) erfc(x), evaluated at 60 digits
MLF_HALF_IDENTITY = [
    (0.1, 0.8964569799691267),
    (1.0, 0.427583576155807),
    (3.3, 0.16400729757293264),
    (10.0, 0.05614099274382259),
    (30.0, 0.01879588886141675),
    (60.0, 0.009401854275176388),
    (200.0, 0.0028209126572120466),
    (1000.0, 0.0005641893014533876),
    (10000.0, 5.641895807268084e-05),
    (100000.0, 5.6418958351954685e-06),
]


def to_csr(A: Stencil) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's entries between interior dofs as (rows, cols, values), lexsorted by
    (row, column): each center, east, north or north-east coupling of dof r
    to an interior neighbour q at (r, q) and, off the center, at (q, r).
    Couplings to boundary vertices must be 0, as a Stencil makes them."""
    m = A.coef.shape[1]
    r = np.arange(m * m)
    j, i = np.divmod(r, m)
    parts = []
    for v, (di, dj) in zip(A.coef, ((0, 0), (1, 0), (0, 1), (1, 1))):
        inside = (i + di < m) & (j + dj < m)
        v = v.ravel()
        assert not v[~inside].any(), "a coupling to a boundary vertex is not 0"
        p, q, v = r[inside], r[inside] + dj * m + di, v[inside]
        parts.append((p, q, v))
        if di or dj:
            parts.append((q, p, v))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def to_dense(A: Stencil) -> np.ndarray:
    """The stencil as a dense array."""
    rows, cols, vals = to_csr(A)
    D = np.zeros((A.n, A.n))
    np.add.at(D, (rows, cols), vals)
    return D


class Triangulation(NamedTuple):
    nodes: np.ndarray           # ((M+1)^2, 2) lattice coordinates
    triangles: np.ndarray       # (2 M^2, 3) node indices, CCW
    interior_index: np.ndarray  # ((M+1)^2,) dof index or -1 for boundary nodes


def triangulation(M: int) -> Triangulation:
    """The mesh with M subdivisions as explicit arrays: nodes and cells row
    by row (x fastest), each cell's lower (LL, LR, UR) triangle before its
    upper (LL, UR, UL) one, and the interior nodes numbered row by row."""
    side = np.arange(M + 1) / M
    X, Y = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ix, iy = np.meshgrid(np.arange(M), np.arange(M), indexing="xy")
    ll = (iy * (M + 1) + ix).ravel()
    lr, ul = ll + 1, ll + (M + 1)
    ur = ul + 1
    triangles = np.empty((2 * M * M, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])  # lower: below the diagonal
    triangles[1::2] = np.column_stack([ll, ur, ul])  # upper: above the diagonal
    interior_index = np.full((M + 1, M + 1), -1, dtype=np.int64)
    interior_index[1:-1, 1:-1] = np.arange((M - 1) ** 2).reshape(M - 1, M - 1)
    return Triangulation(nodes, triangles, interior_index.ravel())


def coo_reference(mesh, local: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the (ntri, 3, 3) element matrices of
    triangulation(mesh.M) summed over the interior dofs the general way: COO
    triplets in triangle order, lexsorted into CSR with each duplicate group
    summed by np.add.reduceat."""
    tri = triangulation(mesh.M)
    dof = tri.interior_index[tri.triangles]
    rows = np.repeat(dof, 3, axis=1).ravel()
    cols = np.tile(dof, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, vals = rows[keep], cols[keep], local.ravel()[keep]
    order = np.lexsort((cols, rows))  # stable: ties keep input order
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.nonzero(new)[0]
    return rows[starts], cols[starts], np.add.reduceat(vals, starts)


def frac_integral_nodes(weights: FracWeights, samples: np.ndarray) -> np.ndarray:
    """I^alpha of the piecewise-constant history at all mesh nodes t_1..t_N."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (weights.mesh.N,):
        raise ValueError("need one history sample per subinterval")
    return np.array([weights.row(n) @ samples[:n]
                     for n in range(1, weights.mesh.N + 1)])


def stencil_stiffness_dense(M: int) -> np.ndarray:
    """Unit-coefficient P1 stiffness on interior nodes from the known
    five-point stencil: 4 on the diagonal, -1 to axis neighbours."""
    m = M - 1
    A = np.zeros((m * m, m * m))
    for j in range(m):
        for i in range(m):
            r = j * m + i
            A[r, r] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    A[r, jj * m + ii] = -1.0
    return A


def stencil_mass_dense(M: int) -> np.ndarray:
    """Consistent P1 mass on interior nodes from the known stencil."""
    m = M - 1
    area = 1.0 / (2.0 * M * M)
    A = np.zeros((m * m, m * m))
    for j in range(m):
        for i in range(m):
            r = j * m + i
            A[r, r] = area
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    A[r, jj * m + ii] = area / 6.0
    return A


def heat_crank_nicolson_reference(M: int, u0: np.ndarray, tau: float,
                                  nsteps: int) -> np.ndarray:
    """Dense CN stepper for u' - div(grad u) = 0, first step fully implicit.

    Built from the analytic interior stencils and dense solves, independent
    of the sparse assembly and CG machinery. Returns all steps (nsteps, dof).
    """
    Md = stencil_mass_dense(M)
    Sd = stencil_stiffness_dense(M)
    out = np.empty((nsteps, u0.size))
    u = u0.copy()
    for n in range(1, nsteps + 1):
        if n == 1:
            u = np.linalg.solve(Md + tau * Sd, Md @ u)
        else:
            u = np.linalg.solve(Md + 0.5 * tau * Sd, (Md - 0.5 * tau * Sd) @ u)
        out[n - 1] = u
    return out


class DiagonalPencil(NamedTuple):
    """The pencil (I, diag(lam)) for stepping.step: each entry runs the scheme's
    scalar recurrence, with mass -> 1 and stiffness -> lam."""
    lam: np.ndarray

    def mass(self, u):
        return u.copy()  # the step subtracts from it in place

    def stiffness(self, u):
        return self.lam * u

    def solve(self, rhs, x0=None, s=0.0):
        return rhs / (1.0 + s * self.lam)


class DensePencil:
    """A converged stand-in for sparse.LinearSolver, with its constructor
    signature: the pencil (matrix, shift) as dense arrays, each solve of
    (matrix + s * shift) x = rhs by np.linalg.solve. rtol and x0 are taken
    and ignored."""

    def __init__(self, matrix: Stencil, shift: Stencil, rtol: float = RTOL):
        self._A, self._B = to_dense(matrix), to_dense(shift)

    def mass(self, u):
        return self._A @ u

    def stiffness(self, u):
        return self._B @ u

    def solve(self, rhs, x0=None, s=0.0):
        return np.linalg.solve(self._A + s * self._B, rhs)


def decay_reference(sol, t) -> np.ndarray:
    """E_alpha(-lambda t^alpha) of the series at every time t, shape
    (times, sol.lam.size), in one oracle call; a value's bits do not depend
    on its batch, so row k equals a DecayReader's row(k) bit for bit."""
    return MlfEvaluator(sol.alpha)(np.outer(np.asarray(t, float) ** sol.alpha, sol.lam))


def add_scaled(A: Stencil, B: Stencil, a: float, b: float) -> Stencil:
    """a*A + b*B."""
    return Stencil(a * A.coef + b * B.coef)


def _locate_scalar(M, x, y):
    """Point location one point at a time: floor division, gridline ties
    shifted to the lower cell, diagonal ties to the lower triangle."""
    sx, fx = divmod(x * M, 1.0)
    sy, fy = divmod(y * M, 1.0)
    sx, sy = int(sx), int(sy)
    if fx == 0.0 and sx > 0:
        sx, fx = sx - 1, 1.0
    if fy == 0.0 and sy > 0:
        sy, fy = sy - 1, 1.0
    cell = sy * M + sx
    if fx >= fy:
        return 2 * cell, (1.0 - fx, fx - fy, fy)
    return 2 * cell + 1, (1.0 - fy, fx, fy - fx)


def interpolation_matrix(mesh, M_s: int):
    """P1 interpolation onto the interior nodes of the M_s x M_s lattice,
    built point by point as COO triplets (rows, cols, vals): row
    ix * (M_s - 1) + iy holds the lattice point ((ix + 1) / M_s,
    (iy + 1) / M_s), and each column a dof."""
    xs = np.arange(1, M_s) / M_s
    mesh_tri = triangulation(mesh.M)
    rows, cols, vals = [], [], []
    for r, (x, y) in enumerate((x, y) for x in xs for y in xs):
        tri, lam = _locate_scalar(mesh.M, float(x), float(y))
        for k, node in enumerate(mesh_tri.triangles[tri]):
            dof = mesh_tri.interior_index[node]
            if dof >= 0 and lam[k] != 0.0:
                rows.append(r)
                cols.append(dof)
                vals.append(lam[k])
    return np.array(rows), np.array(cols), np.array(vals)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); zero at the poles and past the double-precision overflow."""
    if (x <= 0.0 and x == round(x)) or x > 171.62:
        return 0.0
    return 1.0 / math.gamma(x)


def mlf_complex_division(alpha, x):
    """E_alpha(-x), 0 < alpha < 1, from the package's contour rule summed as
    complex division: Re[w_k / (p_k + x)] over (8192 x 17) complex work
    matrices, with w_k = weight * s_k^(alpha-1), p_k = s_k^alpha, and
    E_alpha(0) = 1 exactly."""
    x = np.asarray(x, dtype=float)
    w, p = _WEIGHTS * _NODES ** (alpha - 1.0), _NODES ** alpha
    out = np.empty_like(x)
    for lo in range(0, x.size, 8192):
        out[lo:lo + 8192] = (w / (p + x[lo:lo + 8192, None])).real.sum(axis=1)
    out[x == 0.0] = 1.0
    return out


def _asymptotic_all_terms(alpha, x):
    """E_alpha(-x) for large x from the asymptotic series
    sum_k (-1)^(k+1) x^-k / Gamma(1 - alpha k), k = 1..40, optimally
    truncated: each point stops before its first term that grows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.zeros_like(x)
    smallest = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    power = np.ones_like(x)
    for k in range(1, 41):
        power = power * (1.0 / x)
        term = (1.0 if k % 2 else -1.0) * power * reciprocal_gamma(1.0 - alpha * k)
        mag = np.abs(term)
        active &= ~(mag > smallest)
        s[active] += term[active]
        np.minimum(smallest, np.where(mag > 0.0, mag, smallest), out=smallest)
    return s


# coefficients on m < n with n not a multiple of 3: the active rows and
# columns differ and the active set is not their tensor product
TRIANGLE = InitialDatum(
    "triangle", lambda x, y: np.zeros_like(x * y),
    lambda m, n: np.where((m < n) & (n % 3 != 0), 1.0 / (m * n), 0.0))


# TRIANGLE on odd m and n only: the tracker's quadrant path on an active
# set that is not the tensor product of its rows and columns
ODD_TRIANGLE = InitialDatum(
    "odd_triangle", lambda x, y: np.zeros_like(x * y),
    lambda m, n: np.where((m < n) & (m % 2 == 1) & (n % 2 == 1) & (n % 3 != 0),
                          1.0 / (m * n), 0.0))


# coefficients on even m only: every mode in x changes sign under x -> 1 - x
EVEN_M = InitialDatum(
    "even_m", lambda x, y: np.zeros_like(x * y),
    lambda m, n: np.where(m % 2 == 0, 1.0 / (m * n) ** 2, 0.0))
