import numpy as np
import pytest

from subdiff.assembly import FieldP1, l2_project
from subdiff.exact import DATA, make_series
from subdiff.mesh import build_mesh
from subdiff.mittag_leffler import MlfEvaluator
from subdiff.metrics import (FineLattice, LatticeInterpolator, convergence_rates,
                             fine_lattice, weighted_errors)
from subdiff.study import RunResult

from oracles import EVEN_M, TRIANGLE, decay_reference, interpolation_matrix
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


def test_weighted_errors_rejects_non_finite_weighted_error():
    # 2 ** 1100 overflows: no inf E_mu and no RuntimeWarning (an error under pytest)
    with pytest.raises(ValueError, match=r"E_mu for mu=1100.0 is not finite"):
        weighted_errors([2.0], [1.0], [1100.0])


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
    run = RunResult(t=t, errors=errors, E_mu={0.0: 0.5})
    path = tmp_path / "steps.csv"
    run.write_steps_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,t,err"
    assert lines[1] == "1,0.1,0.5"
    assert weighted_errors(run.t, run.errors, [0.0]) == [0.5]


def test_streaming_max_equals_posthoc():
    from subdiff.config import ExperimentConfig
    from subdiff.study import run_single
    cfg = ExperimentConfig(alpha=0.6, example="example1", N=25, gamma=1.6,
                           T=0.5, modes=12, mu=[0.0, 0.5], fine_M=16)
    cfg.validate()
    res = run_single(cfg, 4)
    posthoc = weighted_errors(res.t, res.errors, [0.0, 0.5])
    assert res.E_mu[0.0] == posthoc[0]
    assert res.E_mu[0.5] == posthoc[1]


def _assert_near_eval_grid(got, ref):
    # the tracker sums the series on one quadrant and reflects it, so a
    # mirrored point reuses its mirror's sines: ulps of max|u| apart
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 4e-15 * np.abs(ref).max())


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
    reference = decay_reference(sol, tm.t[1:])
    for n in (1, 17, 40):
        assert np.array_equal(tracker.decay.row(n - 1), reference[n - 1])
        direct = eval_grid(sol, tm.t[n], lat.xs, lat.xs)
        _assert_near_eval_grid(tracker.exact_on_lattice(n), direct)


@pytest.mark.parametrize("M, fine_M", [(2, 2), (3, 3), (3, 15), (4, 16), (4, 128)])
@pytest.mark.parametrize("datum", ["example1", "example2", "example3", "triangle", "even_m",
                                   "zero"])
def test_exact_on_lattice_matches_eval_grid(datum, M, fine_M):
    # every parity of m and n, odd and even lattices, the one-point lattice
    from subdiff.exact import eval_grid
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    data = {**DATA, "triangle": TRIANGLE, "even_m": EVEN_M}
    sol = make_series(data[datum], 0.75, K=16)
    tm = build_time_mesh(40, 1.6, 0.5)
    lat = fine_lattice(fine_M)
    tracker = ErrorTracker(sol, lat, tm, build_mesh(M))
    for n in (1, 17, 40):
        got = tracker.exact_on_lattice(n)
        _assert_near_eval_grid(got, eval_grid(sol, tm.t[n], lat.xs, lat.xs))
        if datum.startswith("example"):
            # all modes odd: the field is symmetric under x -> 1 - x and
            # y -> 1 - y, bit for bit
            assert np.array_equal(got, got[::-1]) and np.array_equal(got, got[:, ::-1])


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
    assert np.array_equal(_read_all(tracker.decay, tm.N)[:, sol.index], _fresh_decay(sol, tm))


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


def _read_all(reader, n):
    """Rows 0..n-1 of a DecayReader, read in order, as one array."""
    return np.array([reader.row(k) for k in range(n)])


def test_error_tracker_evaluates_its_decay_by_block(monkeypatch):
    # every tracker evaluates its own run's decay, once per step: a block of
    # 32 steps on its first read, and nothing when the tracker is built
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example1"], 0.75, K=12)
    tm = build_time_mesh(70, 1.6, 0.5)
    lat = fine_lattice(16)
    fresh = _fresh_decay(sol, tm)
    calls = _count_mlf_calls(monkeypatch)
    trackers = [ErrorTracker(sol, lat, tm, build_mesh(M)) for M in (2, 4, 8)]
    assert calls == []
    for tracker in trackers:
        for n in range(1, tm.N + 1):
            assert np.array_equal(tracker.decay.row(n - 1)[sol.index], fresh[n - 1])
            tracker.exact_on_lattice(n)
    n_lam = np.unique(_block_eigenvalues(sol)).size
    assert calls == [32 * n_lam, 32 * n_lam, 6 * n_lam] * 3


def test_error_tracker_builds_one_evaluator_per_run(monkeypatch):
    # the three decay blocks of a 70-step run share one evaluator, so its
    # contour rule is formed once per run
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example1"], 0.75, K=12)
    tm = build_time_mesh(70, 1.6, 0.5)
    built = []
    real = MlfEvaluator.__post_init__

    def counted(self):
        built.append(self.alpha)
        real(self)

    monkeypatch.setattr(MlfEvaluator, "__post_init__", counted)
    tracker = ErrorTracker(sol, fine_lattice(16), tm, build_mesh(4))
    for n in range(1, tm.N + 1):
        tracker.exact_on_lattice(n)
    assert built == [0.75]


def test_error_trackers_hold_one_decay_block_each():
    # trackers on the same series and time mesh read separate decays, and
    # each holds the block of 32 rows it read last, not its N rows
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example2"], 0.75, K=12)
    tm = build_time_mesh(70, 1.6, 0.5)
    lat = fine_lattice(16)
    a, b = (ErrorTracker(sol, lat, tm, build_mesh(M)) for M in (2, 4))
    assert a.decay is not b.decay
    a.exact_on_lattice(40)
    b.exact_on_lattice(70)
    assert a.decay._block.shape == (32, sol.lam.size)
    assert b.decay._block.shape == (70 - 64, sol.lam.size)


def test_error_tracker_memory_does_not_grow_with_steps():
    # the tracemalloc peak of a tracker run on table2's series through 2000
    # steps exceeds that through 200 steps by less than one decay block;
    # a table of every step's decay would add (2000 - 200) rows
    import tracemalloc
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example2"], 0.75, K=60)
    assert sol.lam.size == 352
    lat, mesh = fine_lattice(16), build_mesh(4)
    u = FieldP1(mesh=mesh, values=np.zeros(mesh.n_interior))

    def peak(N):
        tm = build_time_mesh(N, 1.6, 0.5)
        tracemalloc.start()
        try:
            tracker = ErrorTracker(sol, lat, tm, mesh)
            for n in range(1, N + 1):
                tracker(n, tm.t[n], u)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) - peak(200) < 32 * sol.lam.size * 8


def test_eval_grid_keeps_the_tracker_decay_block(monkeypatch):
    # eval_grid between two reads of one block of a tracker's decay evaluates
    # its own row only, and the tracker keeps its block; both evaluate the
    # decay on the series' distinct eigenvalues: one oracle argument per
    # distinct eigenvalue, no np.unique
    from subdiff.exact import eval_grid, series_on_grid, sine_matrices
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    sol = make_series(DATA["example2"], 0.75, K=60)
    assert (sol.lam.size, sol.index.size) == (352, 900)
    tm = build_time_mesh(30, 1.6, 0.5)
    lat = fine_lattice(16)

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called after make_series")

    monkeypatch.setattr(np, "unique", no_unique)
    calls = _count_mlf_calls(monkeypatch)
    a = ErrorTracker(sol, lat, tm, build_mesh(2))
    a.exact_on_lattice(1)
    vals = eval_grid(sol, 0.1, lat.xs, lat.xs)
    a.exact_on_lattice(tm.N)
    assert calls == [tm.N * sol.lam.size, sol.lam.size]
    monkeypatch.undo()
    # the same values as a row of the whole table, bit for bit
    table = decay_reference(sol, [0.1])
    ref = series_on_grid(sol, table[0][sol.index], *sine_matrices(sol, lat.xs, lat.xs))
    assert np.array_equal(vals, ref)


@pytest.mark.parametrize("change", ["alpha", "K", "N", "T"])
def test_error_tracker_decay_table_keyed_by_value(change, monkeypatch):
    # a tracker reads the decay of its own alpha, modes and time mesh, also
    # after a tracker on other values has read its own
    from subdiff.stepping import build_time_mesh
    from subdiff.study import ErrorTracker
    lat, mesh = fine_lattice(16), build_mesh(4)
    sol = make_series(DATA["example1"], 0.75, K=12)
    tm = build_time_mesh(30, 1.6, 0.5)
    ErrorTracker(sol, lat, tm, mesh).exact_on_lattice(1)
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
    tracker.exact_on_lattice(1)
    assert calls == [tm.N * sol.lam.size]
    monkeypatch.undo()
    assert np.array_equal(_read_all(tracker.decay, tm.N)[:, sol.index], _fresh_decay(sol, tm))


def test_decay_table_is_read_only():
    # the rows a reader hands out are views of its block and cannot be written
    from subdiff.exact import DecayReader
    from subdiff.stepping import build_time_mesh
    sol = make_series(DATA["example1"], 0.75, K=8)
    reader = DecayReader(sol, build_time_mesh(20, 1.6, 0.5).t[1:])
    for k in (3, 4):
        row = reader.row(k)
        assert row.shape == (sol.lam.size,)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0


def test_first_step_evaluates_one_block_of_the_decay(monkeypatch):
    # a run's first step waits for the decay of its first 32 steps, not
    # of all N; every later block is evaluated when its first step reads it
    from subdiff.config import ExperimentConfig
    from subdiff.study import run_single
    cfg = ExperimentConfig(example="example2", M=[4], N=100, modes=12, fine_M=8)
    cfg.validate()
    n_lam = make_series(DATA["example2"], cfg.alpha, cfg.modes).lam.size
    calls = _count_mlf_calls(monkeypatch)
    seen = {}

    def observe(n, t_n, u_n):
        seen[n] = sum(calls)

    run_single(cfg, 4, observer_extra=observe)
    assert seen[1] == seen[32] == 32 * n_lam
    assert seen[33] == seen[64] == 64 * n_lam
    assert seen[97] == sum(calls) == cfg.N * n_lam
    assert len(calls) == 4


def test_decay_table_read_row_by_row_matches_full_table():
    # rows read one at a time, in any order, are the rows of the whole
    # table of the same times, bit for bit; the last block is partial
    from subdiff.exact import DecayReader
    from subdiff.stepping import build_time_mesh
    sol = make_series(DATA["example3"], 0.4, K=20)
    t = build_time_mesh(75, 1.6, 0.5).t[1:]
    reader = DecayReader(sol, t)
    order = np.random.default_rng(7).permutation(t.size)
    rows = np.empty((t.size, sol.lam.size))
    for k in order:
        rows[k] = reader.row(k)
    assert np.array_equal(rows, decay_reference(sol, t))


def test_decay_table_row_index_is_checked():
    # a row past either end is an IndexError, never a row of another
    # block; a negative index counts from the end, as for the whole table
    from subdiff.exact import DecayReader
    from subdiff.stepping import build_time_mesh
    sol = make_series(DATA["example1"], 0.75, K=8)
    t = build_time_mesh(40, 1.6, 0.5).t[1:]
    reader = DecayReader(sol, t)
    assert np.array_equal(reader.row(-1), decay_reference(sol, t)[-1])
    for k in (40, -41):
        with pytest.raises(IndexError):
            reader.row(k)


def test_non_finite_decay_block_raises(monkeypatch):
    # a block with a non-finite value raises on every read of its rows,
    # and the block held before it stays readable
    from subdiff.exact import DecayReader
    from subdiff.exceptions import EvaluationError
    from subdiff.stepping import build_time_mesh
    sol = make_series(DATA["example1"], 0.6, K=8)
    reader = DecayReader(sol, build_time_mesh(80, 1.6, 0.5).t[1:])
    real = MlfEvaluator.__call__
    calls = []

    def nan_after_first_call(self, x):
        calls.append(np.size(x))
        return real(self, x) if len(calls) == 1 else np.full(np.shape(x), np.nan)

    monkeypatch.setattr(MlfEvaluator, "__call__", nan_after_first_call)
    first = reader.row(0).copy()
    message = r"^Mittag-Leffler decay E_alpha\(-lambda t\^alpha\) is not finite for alpha=0\.6$"
    for k in (40, 63, 79):
        with pytest.raises(EvaluationError, match=message):
            reader.row(k)
    assert np.array_equal(reader.row(0), first)
    assert calls == [32 * sol.lam.size] * 3 + [16 * sol.lam.size]


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
