"""Graded time meshes, fractional-integral weights, and the time stepper.

The scheme advances u' + d_t^(1-a) L u = f with a backward difference in
time and the fractional integral applied to the piecewise-constant history
built from midpoint averages, except on the first interval where the
history value is u^1 alone (so step one never touches u^0 through the
memory term). Multiplied through by the step size, step n solves

    (M + theta_n c_nn S) u^n = M u^(n-1) - sum_{j<n} c_nj S ubar_j
                               - (1 - theta_n) c_nn S u^(n-1) + tau_n f_n

with c_nj the increments of the integral weights between rows n-1 and n,
theta_1 = 1 and theta_n = 1/2 otherwise.

run sums the last two blocks of history directly and the older history
through a sum-of-exponentials form of the kernel (t - s)^(a-1) / Gamma(a),
accurate to machine precision (Jiang, Zhang, Zhang & Zhang, Commun. Comput.
Phys. 21, 2017), so its state and the cost of a step grow with the number
of steps N only through the number of exponentials, which is O(log N):
soe_kernel takes them from one trapezoid rule (McLean 2018; Trefethen &
Weideman, SIAM Rev. 56, 2014), 65 at N = 5200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import FieldP1, _eval_on, assemble_mass, assemble_stiffness, load_vector
from .mesh import StructuredMesh
from .sparse import RTOL, LinearSolver


@dataclass(frozen=True)
class GradedTimeMesh:
    """Nodes t_n = (n/N)^gamma T clustering near t = 0 for gamma > 1."""

    N: int
    gamma: float
    T: float
    t: np.ndarray = field(init=False, compare=False)
    tau: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "T", float(self.T))
        if not (np.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma!r}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be finite and > 0, got {self.T!r}")
        t = (np.arange(self.N + 1) / self.N) ** self.gamma * self.T
        tau = np.diff(t)
        if not np.all(tau > 0.0):
            raise ValueError(f"time mesh with N={self.N} and gamma={self.gamma!r} over "
                             f"T={self.T!r} has steps that are not positive; lower gamma "
                             f"or N, or raise T")
        t.setflags(write=False)
        tau.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tau", tau)


build_time_mesh = GradedTimeMesh  # perfbench/workloads.py calls this name


@dataclass(frozen=True)
class FracWeights:
    """Rows b_nj of the exact fractional integral of piecewise-constant data.

    I^alpha vbar(t_n) = sum_{j=1..n} b_nj vbar_j  with
    b_nj = ((t_n - t_(j-1))^alpha - (t_n - t_j)^alpha) / Gamma(alpha + 1).

    Rows are computed on demand in O(n), so the weights take O(N) memory.
    The raw difference loses digits when the step is tiny against t_n, so
    it is evaluated as A^a (-expm1(a log1p(-tau_j / A))) with
    A = t_n - t_(j-1).
    """

    mesh: GradedTimeMesh
    alpha: float
    inv_gamma: float = field(init=False, compare=False)  # 1 / Gamma(alpha + 1)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "inv_gamma", 1.0 / math.gamma(self.alpha + 1.0))

    def row(self, n: int, j0: int = 0) -> np.ndarray:
        """b_nj for j0 < j <= n; each entry as in the full row."""
        t = self.mesh.t
        tau = self.mesh.tau
        alpha = self.alpha
        A = t[n] - t[j0:n]
        b = np.empty(n - j0)
        if n - j0 > 1:
            ratio = tau[j0:n - 1] / A[:-1]
            b[:-1] = -np.expm1(alpha * np.log1p(-ratio)) * A[:-1] ** alpha
        b[-1] = tau[n - 1] ** alpha
        b *= self.inv_gamma
        return b

    def increment_rows(self, n0: int, n1: int, j0: int = 0) -> np.ndarray:
        """Rows c_n for n0 <= n < n1 and columns j0 < j, zero-padded to an
        (n1 - n0, n1 - 1 - j0) array: entry [i, j - 1 - j0] is c_(n0+i)j.

        c_nj = b_nj - b_(n-1)j for j < n, c_nn = b_nn.
        """
        C = np.zeros((n1 - n0, n1 - 1 - j0))
        prev = self.row(n0 - 1, j0) if n0 - 1 > j0 else None
        for i, n in enumerate(range(n0, n1)):
            bn = self.row(n, j0)
            C[i, : n - j0] = bn
            if prev is not None:
                C[i, : n - 1 - j0] -= prev
            prev = bn
        return C


frac_weights = FracWeights  # perfbench/spans.py wraps this name, which run calls


# steps per history block; once per block one GEMM sums the history before it
HISTORY_BLOCK = 32
# steps per forcing sample: f's temporaries hold FORCING_SLICE * (3 M^2 - 2 M)
# values, and a whole block of them set a forced run's peak memory at M = 32
FORCING_SLICE = 8
# the kernel's sum of exponentials: the trapezoid rule's step in x (at 0.3
# the kernel is off by 3e-13 relative and manufactured-long's err_T moves by
# 7e-11), and the exponents of its two cuts, exp(-SOE_LOW_CUT) of the weight
# at small s and exp(-SOE_HIGH_CUT) of exp(-s delta) at large s
SOE_STEP = 0.25
SOE_LOW_CUT = 40.0
SOE_HIGH_CUT = 40.0


def soe_kernel(alpha: float, T: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_q > 0 and weights w_q > 0 with
    t^(alpha-1) / Gamma(alpha) = sum_q w_q exp(-s_q t) to machine precision
    for delta <= t <= T.

    The kernel is c int_0^inf s^(-alpha) exp(-s t) ds with
    c = 1 / (Gamma(alpha) Gamma(1 - alpha)), not sin(pi alpha) / pi, which
    loses digits as alpha -> 1. Over s = exp(x - exp(-x)) / T the integrand
    decays double exponentially in x at both ends, so the trapezoid rule on
    x_k = k SOE_STEP converges exponentially (McLean, "Exponential sum
    approximations for t^(-beta)", Springer 2018; Trefethen & Weideman, SIAM
    Rev. 56, 2014). It runs from -ln(SOE_LOW_CUT / (1 - alpha)) to
    ln(SOE_HIGH_CUT T / delta) + 1, a unit of x of margin, so it holds down
    to delta / e. The nodes with s T < 2^-60, whose exp(-s t) is 1, become
    one node with their summed weight, so no s underflows to 0. Q is
    O(log(T / delta)) whatever alpha: 65 at N = 5200, gamma = 1.6.
    """
    c = alpha / math.gamma(1.0 + alpha) / math.gamma(1.0 - alpha)
    h = SOE_STEP
    x = h * np.arange(math.floor(-math.log(SOE_LOW_CUT / (1.0 - alpha)) / h),
                      math.ceil((math.log(SOE_HIGH_CUT * T / delta) + 1.0) / h) + 1)
    e = np.exp(-x)
    phi = x - e
    s = np.exp(phi) / T
    w = (c * h * T ** (alpha - 1.0)) * np.exp((1.0 - alpha) * phi) * (1.0 + e)
    # s grows with x, so the nodes merged are the first i + 1
    i = max(np.count_nonzero(s * T < 2.0 ** -60) - 1, 0)
    return s[i:], np.concatenate(([w[:i + 1].sum()], w[i + 1:]))


class _FarHistory:
    """sum_{j<=p} c_nj Z_j for n > p + HISTORY_BLOCK, held as Q vectors

        G_q = sum_{j<=p} exp(-s_q (t_p - t_j)) (1 - exp(-s_q tau_j)) / s_q Z_j

    with (s_q, w_q) the kernel's sum of exponentials on [delta, T],
    delta = t_2B - t_B: on a graded mesh every kernel argument of such a
    c_nj is at least delta. Then
    c_nj = sum_q w_q exp(-s_q (t_(n-1) - t_j)) (exp(-s_q tau_n) - 1)
    (1 - exp(-s_q tau_j)) / s_q.
    """

    def __init__(self, time_mesh: GradedTimeMesh, alpha: float, dofs: int):
        t, B = time_mesh.t, HISTORY_BLOCK
        self.s, self.w = soe_kernel(alpha, time_mesh.T, t[2 * B] - t[B])
        self.t, self.tau = t, time_mesh.tau
        self.G = np.zeros((self.s.size, dofs))
        self.p = 0

    def next_block(self, Z: np.ndarray, n0: int, n1: int) -> np.ndarray:
        """Move p past the history vectors Z_j, p < j <= p + len(Z), and
        return rows n0 <= n < n1 of sum_{j<=p} c_nj Z_j.

        The nodes go HISTORY_BLOCK at a time, so no temporary grows with Q.
        """
        p, q = self.p, self.p + len(Z)
        t, tau = self.t, self.tau
        age, tau_j = t[p + 1:q + 1] - t[q], tau[p:q]
        lag, tau_n = (t[q] - t[n0 - 1:n1 - 1])[:, None], tau[n0 - 1:n1 - 1, None]
        memory = np.zeros((n1 - n0, self.G.shape[1]))
        for a in range(0, self.s.size, HISTORY_BLOCK):
            s, G = self.s[a:a + HISTORY_BLOCK], self.G[a:a + HISTORY_BLOCK]
            col = s[:, None]
            G *= np.exp(col * (t[p] - t[q]))
            G += (np.exp(col * age) * np.expm1(-col * tau_j) / -col) @ Z
            W = self.w[a:a + HISTORY_BLOCK] * np.exp(s * lag) * np.expm1(-s * tau_n)
            memory += W @ G
        self.p = q
        return memory


@dataclass(eq=False)
class SchemeState:
    """Time-stepping state: the latest solution and a ring of history vectors.

    A step reads only u^(n-1), so us holds u^n alone (us[-1]); an observer
    passed to run collects the solutions it needs. Step n writes
    S ubar_n to row (n - 1) % len(Z) of Z, so Z keeps the last len(Z)
    history vectors; run needs min(N, 2 HISTORY_BLOCK) of them.
    """

    us: tuple           # (u^n,): the latest accepted coefficient vector
    Z: np.ndarray       # Z[(j-1) % len(Z)] = S ubar_j for the latest accepted steps
    n: int = 0

    @classmethod
    def start(cls, u0: np.ndarray, rows: int) -> "SchemeState":
        """The state before step 1: a copy of u^0 and a ring of rows history vectors."""
        return cls(us=(np.array(u0, dtype=float),), Z=np.zeros((rows, len(u0))))


def step(state: SchemeState, n: int, c_nn: float, memory: np.ndarray, pencil,
         load: np.ndarray | None = None) -> np.ndarray:
    """Advance the scheme from u^(n-1) to u^n; returns u^n, now the state's solution.

    c_nn is the step's own weight increment, memory the history sum
    sum_{j<n} c_nj Z_j (unused at n = 1) and load tau_n f_n or None. The pencil
    (M, S) offers mass(u), stiffness(u) and solve(rhs, x0, s) for (M + s S) x = rhs.
    """
    if n != state.n + 1:
        raise ValueError(f"expected step {state.n + 1}, got {n}")
    theta = 1.0 if n == 1 else 0.5
    u_prev = state.us[-1]

    rhs = pencil.mass(u_prev)
    if n >= 2:
        rhs -= memory
        rhs -= (1.0 - theta) * c_nn * pencil.stiffness(u_prev)
    if load is not None:
        rhs += load
    u_n = pencil.solve(rhs, x0=u_prev, s=theta * c_nn)

    # ubar_n: u^1 on the first interval, the midpoint average after
    state.Z[(n - 1) % len(state.Z)] = pencil.stiffness(u_n if n == 1 else 0.5 * (u_n + u_prev))
    state.us = (u_n,)
    state.n = n
    return u_n


def _history(Z: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Z_j for j0 < j <= j1 from the ring; run's ranges never wrap."""
    i = j0 % len(Z)
    return Z[i:i + j1 - j0]


def run(mesh: StructuredMesh, time_mesh: GradedTimeMesh, alpha: float, a,
        u0_field: FieldP1, f=None, observer=None, rtol: float = RTOL) -> SchemeState:
    """Run the scheme over the whole time mesh.

    Once per run: assembly, the weights and one solver for the pencil
    mass + s stiffness. Once per block of B = HISTORY_BLOCK steps
    k+1..stop, the memory sums are split at p = k - B:
    - the near part, k - B < j < n, is the direct sum with the weight
      rows c_nj over those columns only: one GEMM for j <= k, and each
      step adds its in-block tail k < j < n;
    - the far part, j <= p (from block k = 2B on), is a sum of
      exponentials approximation of the kernel, accurate to machine
      precision: Q vectors G_q hold that history, and two GEMMs per block
      move them past B more history vectors and give the block's far
      memory. The nodes are built when block 2B starts.
    The state keeps min(N, 2B) history vectors, so memory is
    O((Q + 2B) dof) and a block costs O(B (Q + B) dof), whatever N is.
    f, when given, is a space-time function f(x, y, t) sampled at interval
    midpoints in time and assembled with the standard load quadrature. It
    is sampled once per slice of FORCING_SLICE steps: x and y are the edge
    midpoints, t is the (FORCING_SLICE, 1) column of the slice's interval
    midpoints, and f must broadcast over it. Each step's load equals the
    load of its own midpoint alone, bit for bit. An f that takes scalars
    only (math.*) still works, evaluated point by point, but slowly.
    observer(n, t_n, FieldP1) is called once per step in increasing n.
    """
    if u0_field.mesh != mesh:
        raise ValueError("initial field is attached to a different mesh")
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh, a)
    weights = frac_weights(time_mesh, alpha)  # the alias, so perfbench/spans.py times it
    solver = LinearSolver(mass, shift=stiffness, rtol=rtol)
    t, tau, N, B = time_mesh.t, time_mesh.tau, time_mesh.N, HISTORY_BLOCK
    state = SchemeState.start(u0_field.values, min(N, 2 * B))
    far = None
    for k in range(0, N, B):
        stop = min(k + B, N)
        j0 = max(k - B, 0)
        C = weights.increment_rows(k + 1, stop + 1, j0)
        hist = C[:, :k - j0] @ _history(state.Z, j0, k)
        if k >= 2 * B:
            if far is None:
                far = _FarHistory(time_mesh, alpha, state.Z.shape[1])
            # the far part takes in the ring rows this block overwrites
            hist += far.next_block(_history(state.Z, j0 - B, j0), k + 1, stop + 1)
        for i, n in enumerate(range(k + 1, stop + 1)):
            load = None
            if f is not None:
                row = (n - 1) % FORCING_SLICE
                if row == 0:
                    e = min(n - 1 + FORCING_SLICE, N)
                    t_mid = (0.5 * (t[n - 1:e] + t[n:e + 1]))[:, None]
                    loads = load_vector(mesh, lambda x, y: _eval_on(f, x, y, t_mid))
                load = tau[n - 1] * loads[row]
            memory = hist[i] + C[i, k - j0:n - 1 - j0] @ _history(state.Z, k, n - 1)
            u_n = step(state, n, C[i, n - 1 - j0], memory, solver, load=load)
            if observer is not None:
                observer(n, t[n], FieldP1(mesh=mesh, values=u_n))
    return state
