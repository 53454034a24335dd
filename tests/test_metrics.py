import numpy as np
import pytest

from subdiff.assembly import FieldP1, l2_project
from subdiff.benchmarks import (M_VALUES, TABLE1_ERRORS, TABLE1_RATES,
                                TABLE2_ERRORS, TABLE2_RATES, TABLE3_ERRORS,
                                TABLE3_RATES)
from subdiff.exact import DATA, make_series
from subdiff.mesh import build_mesh
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.sparse import csr_from_coo
from subdiff.metrics import (ErrorReport, FineLattice, LatticeInterpolator,
                             convergence_rates, fine_lattice, weighted_errors)


def test_fine_lattice_counts():
    lat = fine_lattice(128)
    assert lat.n_nodes == 127 ** 2 == 16129
    pts = lat.points()
    assert pts.shape == (16129, 2)
    assert np.all((pts > 0.0) & (pts < 1.0))


def test_fine_lattice_minimal():
    lat = fine_lattice(2)
    assert lat.n_nodes == 1
    assert tuple(lat.points()[0]) == (0.5, 0.5)


def test_fine_lattice_validation():
    with pytest.raises(ValueError):
        fine_lattice(1)


def test_interpolator_reproduces_coarse_nodes():
    mesh = build_mesh(4)
    lat = fine_lattice(16)
    interp = LatticeInterpolator(mesh, lat)
    rng = np.random.default_rng(9)
    field = FieldP1(mesh=mesh, values=rng.standard_normal(mesh.n_interior))
    grid = interp(field)
    # lattice indices 4k-1 in 0-based grid coords hit the coarse nodes,
    # and coarse node (ci, cj) is dof (cj - 1) * 3 + ci - 1
    for ci in range(1, 4):
        for cj in range(1, 4):
            gi, gj = 4 * ci - 1, 4 * cj - 1
            assert grid[gi, gj] == pytest.approx(
                field.values[(cj - 1) * 3 + ci - 1], abs=1e-15)


def test_step_error_symmetric_fields():
    mesh = build_mesh(8)
    lat = fine_lattice(32)
    interp = LatticeInterpolator(mesh, lat)
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    proj = l2_project(mesh, g)
    grid = interp(proj)
    assert np.abs(grid - grid.T).max() <= 1e-14


def test_weighted_errors_basic():
    t = np.array([0.5])
    errs = np.array([2.0])
    assert weighted_errors(t, errs, [0.0]) == [2.0]
    assert weighted_errors(t, errs, [1.0]) == [1.0]
    t = np.array([0.1, 0.2, 0.4])
    errs = np.array([3.0, 1.0, 0.5])
    assert weighted_errors(t, errs, [0.0])[0] == 3.0
    assert weighted_errors(t, errs, [1.0])[0] == pytest.approx(0.3)


def test_weighted_errors_validation():
    with pytest.raises(ValueError):
        weighted_errors(np.array([]), np.array([]), [0.0])


def test_convergence_rates():
    assert convergence_rates([4.0, 1.0]) == [2.0]
    assert convergence_rates([1e-3, 1e-3]) == [0.0]
    r = convergence_rates([1.2759e-2, 3.3749e-3])[0]
    assert r == pytest.approx(1.9186, abs=2e-4)
    with pytest.raises(ValueError):
        convergence_rates([1.0])
    with pytest.raises(ValueError):
        convergence_rates([1.0, 0.0])


def _check_table_rates(errors, rates):
    for mu, errs in errors.items():
        computed = convergence_rates(errs)
        for got, printed in zip(computed, rates[mu]):
            assert got == pytest.approx(printed, abs=2e-3), (mu, got, printed)


def test_published_rate_convention_table1():
    _check_table_rates(TABLE1_ERRORS, TABLE1_RATES)


def test_published_rate_convention_table2():
    _check_table_rates(TABLE2_ERRORS, TABLE2_RATES)


def test_published_rate_convention_table3():
    _check_table_rates(TABLE3_ERRORS, TABLE3_RATES)


def test_report_csv_roundtrip(tmp_path):
    t = np.array([0.1, 0.2])
    errors = np.array([0.5, 0.25])
    report = ErrorReport(M=4, t=t, errors=errors)
    path = tmp_path / "steps.csv"
    report.write_steps_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,t,err"
    assert lines[1] == "1,0.1,0.5"
    assert weighted_errors(report.t, report.errors, [0.0]) == [0.5]


def test_streaming_max_equals_posthoc():
    from subdiff.config import ExperimentConfig
    from subdiff.study import run_single
    cfg = ExperimentConfig(alpha=0.6, example="example1", N=25, gamma=1.6,
                           T=0.5, modes=12, mu=[0.0, 0.5], fine_M=16)
    cfg.validate()
    res = run_single(cfg, 4)
    posthoc = weighted_errors(res.report.t, res.report.errors, [0.0, 0.5])
    assert res.E_mu[0.0] == posthoc[0]
    assert res.E_mu[0.5] == posthoc[1]


def test_error_tracker_decay_matches_public_evaluator():
    # the tracker and eval_grid share one modal-decay path
    from subdiff.exact import DATA, make_series, eval_grid
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    from subdiff.mesh import build_mesh
    sol = make_series(DATA["example1"], 0.75, K=16)
    tm = build_time_mesh(40, 1.6, 0.5)
    mesh = build_mesh(4)
    lat = fine_lattice(16)
    tracker = ErrorTracker(sol, lat, tm, mesh)
    for n in (1, 17, 40):
        direct = eval_grid(sol, tm.t[n], lat.xs, lat.xs)
        assert np.array_equal(tracker.exact_on_lattice(n), direct)


def test_error_tracker_decay_bitwise_per_mode():
    # one evaluation per distinct eigenvalue must reproduce the per-mode
    # batch exactly: the evaluator's per-point results ignore the batch
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example1"], 0.75, K=30)
    tm = build_time_mesh(50, 1.6, 0.5)
    tracker = ErrorTracker(sol, fine_lattice(16), tm, build_mesh(4))
    lam_act = sol.lam[sol.active_mask]
    assert np.unique(lam_act).size < lam_act.size
    args = (lam_act[None, :] * (tm.t[1:] ** sol.alpha)[:, None]).ravel()
    per_mode = MlfEvaluator(sol.alpha)(args).reshape(tm.N, lam_act.size)
    assert np.array_equal(tracker.decay, per_mode)


def _count_mlf_calls(monkeypatch):
    calls = []
    real = MlfEvaluator.__call__

    def counted(self, x):
        calls.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(MlfEvaluator, "__call__", counted)
    return calls


def _fresh_decay(sol, tm):
    lam_act = sol.lam[sol.active_mask]
    args = (lam_act[None, :] * (tm.t[1:] ** sol.alpha)[:, None]).ravel()
    return MlfEvaluator(sol.alpha)(args).reshape(tm.N, lam_act.size)


def test_error_tracker_shares_decay_table_across_meshes(monkeypatch):
    # one study (same series and time mesh) evaluates the oracle once,
    # whatever the spatial mesh of each row
    from subdiff.stepping import build_time_mesh
    from subdiff.exact import _decay_table
    from subdiff.study import ErrorTracker
    _decay_table.cache_clear()
    sol = make_series(DATA["example1"], 0.75, K=12)
    tm = build_time_mesh(30, 1.6, 0.5)
    lat = fine_lattice(16)
    calls = _count_mlf_calls(monkeypatch)
    trackers = [ErrorTracker(sol, lat, tm, build_mesh(M)) for M in (2, 4, 8)]
    assert len(calls) == 1
    assert calls[0] == tm.N * np.unique(sol.lam[sol.active_mask]).size
    monkeypatch.undo()
    fresh = _fresh_decay(sol, tm)
    for tracker in trackers:
        assert np.array_equal(tracker.decay, fresh)


@pytest.mark.parametrize("change", ["alpha", "K", "N", "T"])
def test_error_tracker_decay_table_keyed_by_value(change, monkeypatch):
    from subdiff.exact import _decay_table
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    _decay_table.cache_clear()
    lat, mesh = fine_lattice(16), build_mesh(4)
    sol = make_series(DATA["example1"], 0.75, K=12)
    tm = build_time_mesh(30, 1.6, 0.5)
    ErrorTracker(sol, lat, tm, mesh)
    if change == "alpha":
        sol = make_series(DATA["example1"], 0.6, K=12)
    elif change == "K":
        sol = make_series(DATA["example1"], 0.75, K=14)
    elif change == "N":
        tm = build_time_mesh(31, 1.6, 0.5)
    else:
        tm = build_time_mesh(30, 1.6, 0.25)
    calls = _count_mlf_calls(monkeypatch)
    tracker = ErrorTracker(sol, lat, tm, mesh)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(tracker.decay, _fresh_decay(sol, tm))


def test_decay_table_is_read_only():
    from subdiff.exact import _decay_table
    from subdiff.stepping import build_time_mesh
    sol = make_series(DATA["example1"], 0.75, K=8)
    lam_u = np.unique(sol.lam[sol.active_mask])
    t = build_time_mesh(20, 1.6, 0.5).t[1:]
    table = _decay_table(sol.alpha, lam_u.tobytes(), t.tobytes())
    assert table.shape == (20, lam_u.size)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert _decay_table(sol.alpha, lam_u.tobytes(), t.tobytes()) is table


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


@pytest.mark.parametrize("M", [2, 3, 4, 8, 16, 32])
def test_interpolator_matches_loop_construction(M):
    """The vectorized build gives the rows, cols and vals of a point-by-point
    loop; nested lattices put points on gridlines, vertices and diagonals."""
    mesh = build_mesh(M)
    lat = fine_lattice(128)
    n = max(lat.n_nodes, mesh.n_interior)
    rows, cols, vals = list(range(n)), [0] * n, [0.0] * n
    for r, (x, y) in enumerate(lat.points()):
        tri, lam = _locate_scalar(M, float(x), float(y))
        for k, node in enumerate(mesh.triangles[tri]):
            dof = mesh.interior_index[node]
            if dof >= 0 and lam[k] != 0.0:
                rows.append(r)
                cols.append(dof)
                vals.append(lam[k])
    ref = csr_from_coo(n, rows, cols, vals)
    P = LatticeInterpolator(mesh, lat)._P
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(P, name), getattr(ref, name)), name
