import numpy as np
import pytest

from subdiff.assembly import FieldP1, l2_project
from subdiff.exact import DATA, make_series
from subdiff.mesh import build_mesh
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.metrics import (ErrorReport, FineLattice, LatticeInterpolator,
                             convergence_rates, fine_lattice, weighted_errors)

from oracles import TRIANGLE, interpolation_matrix
from published import (TABLE1_ERRORS, TABLE1_RATES, TABLE2_ERRORS, TABLE2_RATES,
                       TABLE3_ERRORS, TABLE3_RATES)


def test_fine_lattice_counts():
    lat = fine_lattice(128)
    assert lat.xs.shape == (127,)
    assert np.all((lat.xs > 0.0) & (lat.xs < 1.0))


def test_fine_lattice_minimal():
    lat = fine_lattice(2)
    assert tuple(lat.xs) == (0.5,)


def test_fine_lattice_validation():
    for bad in (1, 8.5, 8.0, True):
        for build in (fine_lattice, FineLattice):
            with pytest.raises(ValueError, match="M_s must be an integer"):
                build(bad)
    lat = fine_lattice(np.int64(8))
    assert type(lat.M_s) is int and lat.M_s == 8


def test_interpolator_reproduces_coarse_nodes():
    mesh = build_mesh(4)
    rng = np.random.default_rng(9)
    field = FieldP1(mesh=mesh, values=rng.standard_normal(mesh.n_interior))
    for q in (4, 3):  # fine_M need only be a multiple of M
        grid = LatticeInterpolator(mesh, fine_lattice(4 * q))(field)
        # lattice indices qk-1 in 0-based grid coords hit the coarse nodes,
        # and coarse node (ci, cj) is dof (cj - 1) * 3 + ci - 1
        for ci in range(1, 4):
            for cj in range(1, 4):
                gi, gj = q * ci - 1, q * cj - 1
                assert grid[gi, gj] == pytest.approx(
                    field.values[(cj - 1) * 3 + ci - 1], abs=1e-15), q


def test_interpolator_compares_the_field_mesh_by_value():
    interp = LatticeInterpolator(build_mesh(4), fine_lattice(16))
    with pytest.raises(ValueError, match="field is attached to a different mesh"):
        interp(FieldP1(mesh=build_mesh(8), values=np.zeros(49)))
    field = FieldP1(mesh=build_mesh(4), values=np.arange(9.0))  # an equal mesh built separately
    assert interp(field)[3, 3] == 0.0 and interp(field)[7, 3] == 1.0


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


@pytest.mark.parametrize("datum", ["example1", "example2", "example3", "triangle"])
def test_error_tracker_decay_matches_public_evaluator(datum):
    # the tracker and eval_grid share one modal-decay path, also on a
    # support that is not a full block
    from subdiff.exact import DATA, make_series, eval_grid
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    from subdiff.mesh import build_mesh
    sol = make_series(TRIANGLE if datum == "triangle" else DATA[datum], 0.75, K=16)
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
    lam_act = _block_eigenvalues(sol)
    assert np.unique(lam_act).size < lam_act.size
    assert np.array_equal(tracker.decay[:, sol.index], _fresh_decay(sol, tm))


def _count_mlf_calls(monkeypatch):
    calls = []
    real = MlfEvaluator.__call__

    def counted(self, x):
        calls.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(MlfEvaluator, "__call__", counted)
    return calls


def _block_eigenvalues(sol):
    """(m^2 + n^2) pi^2 on the active block, formed from its modes."""
    return (sol.m[:, None] ** 2 + sol.n[None, :] ** 2) * np.pi ** 2


def _fresh_decay(sol, tm):
    """The decay of every mode of the active block at every step, one
    oracle argument per mode, shape (N, rows, cols)."""
    lam_act = _block_eigenvalues(sol)
    args = (lam_act.ravel()[None, :] * (tm.t[1:] ** sol.alpha)[:, None]).ravel()
    return MlfEvaluator(sol.alpha)(args).reshape(tm.N, *lam_act.shape)


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
    assert calls[0] == tm.N * np.unique(_block_eigenvalues(sol)).size
    monkeypatch.undo()
    fresh = _fresh_decay(sol, tm)
    for tracker in trackers:
        assert np.array_equal(tracker.decay[:, sol.index], fresh)


def test_error_trackers_hold_one_decay_table():
    # trackers on the same series and time mesh share the cached table
    # itself, not a per-tracker copy of it
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example2"], 0.75, K=12)
    tm = build_time_mesh(30, 1.6, 0.5)
    lat = fine_lattice(16)
    a, b = (ErrorTracker(sol, lat, tm, build_mesh(M)) for M in (2, 4))
    assert a.decay is b.decay


def test_eval_grid_keeps_the_study_decay_table(monkeypatch):
    # eval_grid between two rows of a study must not evict the study's table,
    # and it evaluates the decay on the series' distinct eigenvalues, as the
    # table does: one oracle argument per distinct eigenvalue, no np.unique
    from subdiff.exact import _decay_table, decay_table, eval_grid, series_on_grid, sine_matrices
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example2"], 0.75, K=60)
    assert (sol.lam.size, sol.index.size) == (352, 900)
    tm = build_time_mesh(30, 1.6, 0.5)
    lat = fine_lattice(16)
    _decay_table.cache_clear()

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called after make_series")

    monkeypatch.setattr(np, "unique", no_unique)
    a = ErrorTracker(sol, lat, tm, build_mesh(2))
    calls = _count_mlf_calls(monkeypatch)
    vals = eval_grid(sol, 0.1, lat.xs, lat.xs)
    assert calls == [sol.lam.size]
    b = ErrorTracker(sol, lat, tm, build_mesh(4))
    monkeypatch.undo()
    assert a.decay is b.decay
    assert _decay_table.cache_info().misses == 1
    # the same values as a row of the cached table, bit for bit
    table = decay_table(sol, [0.1])
    ref = series_on_grid(sol, table[0][sol.index], *sine_matrices(sol, lat.xs, lat.xs))
    assert np.array_equal(vals, ref)


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
    assert np.array_equal(tracker.decay[:, sol.index], _fresh_decay(sol, tm))


def test_decay_table_is_read_only():
    from subdiff.exact import _decay_table
    from subdiff.stepping import build_time_mesh
    sol = make_series(DATA["example1"], 0.75, K=8)
    lam_u = np.unique(_block_eigenvalues(sol))
    t = build_time_mesh(20, 1.6, 0.5).t[1:]
    table = _decay_table(sol.alpha, lam_u.tobytes(), t.tobytes())
    assert table.shape == (20, lam_u.size)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert _decay_table(sol.alpha, lam_u.tobytes(), t.tobytes()) is table


@pytest.mark.parametrize("M, M_s", [pytest.param(M, 128, id=str(M))
                                     for M in (2, 4, 8, 16, 32, 64, 128)]
                         + [pytest.param(4, 16, id="4-on-16"),
                            pytest.param(3, 96, id="3-on-96"),
                            pytest.param(12, 96, id="12-on-96")])
def test_interpolator_matches_loop_construction(M, M_s):
    """Interpolated random fields match the point-by-point COO oracle within
    2 ulps of the field's scale (the cell-local product sums in another
    order); nested lattices put points on gridlines, vertices and diagonals."""
    mesh = build_mesh(M)
    lat = fine_lattice(M_s)
    rows, cols, vals = interpolation_matrix(mesh, M_s)
    interp = LatticeInterpolator(mesh, lat)
    rng = np.random.default_rng(M * M_s)
    for values in (rng.random(mesh.n_interior), rng.standard_normal(mesh.n_interior)):
        ref = np.bincount(rows, weights=vals * values[cols], minlength=(M_s - 1) ** 2)
        ref = ref.reshape(M_s - 1, M_s - 1)
        got = interp(FieldP1(mesh=mesh, values=values))
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 2 * np.finfo(float).eps * np.abs(values).max()


def test_interpolator_rejects_non_nested_lattice():
    with pytest.raises(ValueError, match="M_s=128 .* M=3"):
        LatticeInterpolator(build_mesh(3), fine_lattice(128))
