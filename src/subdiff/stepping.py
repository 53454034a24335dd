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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .assembly import FieldP1, _eval_on, assemble_mass, assemble_stiffness, load_vector
from .mesh import StructuredMesh
from .sparse import LinearSolver


@dataclass(frozen=True)
class GradedTimeMesh:
    """Nodes t_n = (n/N)^gamma T clustering near t = 0 for gamma > 1."""

    N: int
    gamma: float
    T: float
    t: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not (np.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma!r}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be finite and > 0, got {self.T!r}")
        t = (np.arange(self.N + 1) / self.N) ** self.gamma * self.T
        tau = np.diff(t)
        if not np.all(tau > 0.0):
            raise ValueError(f"time mesh with N={self.N} and gamma={self.gamma!r} has "
                             f"steps that are not positive; lower gamma or N")
        t.setflags(write=False)
        tau.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tau", tau)


def build_time_mesh(N: int, gamma_exp: float, T: float) -> GradedTimeMesh:
    """Graded mesh with N subintervals, grading exponent gamma_exp, final time T."""
    return GradedTimeMesh(N=N, gamma=float(gamma_exp), T=float(T))


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
    inv_gamma: float = field(init=False)  # 1 / Gamma(alpha + 1)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "inv_gamma", 1.0 / math.gamma(self.alpha + 1.0))

    def row(self, n: int) -> np.ndarray:
        """b_nj for j = 1..n."""
        t = self.mesh.t
        tau = self.mesh.tau
        alpha = self.alpha
        A = t[n] - t[:n]
        b = np.empty(n)
        if n > 1:
            ratio = tau[: n - 1] / A[: n - 1]
            b[: n - 1] = -np.expm1(alpha * np.log1p(-ratio)) * A[: n - 1] ** alpha
        b[n - 1] = tau[n - 1] ** alpha
        b *= self.inv_gamma
        return b

    def increment_rows(self, n0: int, n1: int) -> np.ndarray:
        """Rows c_n for n0 <= n < n1, zero-padded to an (n1 - n0, n1 - 1) array.

        c_nj = b_nj - b_(n-1)j for j < n, c_nn = b_nn.
        """
        C = np.zeros((n1 - n0, n1 - 1))
        prev = self.row(n0 - 1) if n0 >= 2 else None
        for i, n in enumerate(range(n0, n1)):
            bn = self.row(n)
            C[i, :n] = bn
            if prev is not None:
                C[i, : n - 1] -= prev
            prev = bn
        return C


def frac_weights(mesh: GradedTimeMesh, alpha: float) -> FracWeights:
    """Quadrature weights of I^alpha on the mesh (rows come on demand)."""
    return FracWeights(mesh=mesh, alpha=alpha)


# steps per history block; one GEMM per block sums the history before it
HISTORY_BLOCK = 32


@dataclass
class SchemeState:
    """Time-stepping state: the latest solution and the history vectors.

    A step reads only u^(n-1), so us holds u^n alone (us[-1]); an observer
    passed to run collects the solutions it needs.
    """

    us: deque           # (u^n,): the latest accepted coefficient vector
    Z: np.ndarray       # Z[j-1] = S ubar_j for accepted steps
    n: int = 0

    @classmethod
    def start(cls, u0: np.ndarray, N: int) -> "SchemeState":
        """The state before step 1: a copy of u^0 and room for N history vectors."""
        return cls(us=deque([np.array(u0, dtype=float)], maxlen=1), Z=np.zeros((N, len(u0))))


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
    state.Z[n - 1] = pencil.stiffness(u_n if n == 1 else 0.5 * (u_n + u_prev))
    state.us.append(u_n)
    state.n = n
    return u_n


def run(mesh: StructuredMesh, time_mesh: GradedTimeMesh, alpha: float, a,
        u0_field: FieldP1, f=None, observer=None, rtol: float = 1e-12) -> SchemeState:
    """Run the scheme over the whole time mesh.

    Once per run: assembly, the weights and one solver for the pencil
    mass + s stiffness. Once per block of HISTORY_BLOCK steps k+1..stop:
    the weight rows c_nj, one GEMM for the history over j <= k, and the
    forcing; each step adds its in-block tail k < j < n to its memory sum.
    f, when given, is a space-time function f(x, y, t) sampled at interval
    midpoints in time and assembled with the standard load quadrature. It
    is sampled once per block: x and y are the edge midpoints, t is the
    (B, 1) column of the block's interval midpoints, and f must broadcast
    over it. An f that takes scalars only (math.*) still works, evaluated
    point by point, but slowly.
    observer(n, t_n, FieldP1) is called once per step in increasing n.
    """
    if u0_field.mesh != mesh:
        raise ValueError("initial field is attached to a different mesh")
    mass = assemble_mass(mesh)
    stiffness = assemble_stiffness(mesh, a)
    weights = frac_weights(time_mesh, alpha)
    solver = LinearSolver(mass, shift=stiffness, rtol=rtol)
    state = SchemeState.start(u0_field.values, time_mesh.N)
    t, tau, N = time_mesh.t, time_mesh.tau, time_mesh.N
    for k in range(0, N, HISTORY_BLOCK):
        stop = min(k + HISTORY_BLOCK, N)
        C = weights.increment_rows(k + 1, stop + 1)
        hist = C[:, :k] @ state.Z[:k]
        loads = None
        if f is not None:
            t_mid = (0.5 * (t[k:stop] + t[k + 1:stop + 1]))[:, None]
            loads = load_vector(mesh, lambda x, y: _eval_on(f, x, y, t_mid))
        for i, n in enumerate(range(k + 1, stop + 1)):
            memory = hist[i] + C[i, k:n - 1] @ state.Z[k:n - 1]
            u_n = step(state, n, C[i, n - 1], memory, solver,
                       load=None if loads is None else tau[n - 1] * loads[i])
            if observer is not None:
                observer(n, t[n], FieldP1(mesh=mesh, values=u_n))
    return state
