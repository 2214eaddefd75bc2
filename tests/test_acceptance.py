"""Acceptance criteria, one test per criterion, one PASS line each.

Criteria 1 and 6 are self-contained; the rest consume the session-scoped
example datasets from conftest (generated with the bundled presets).
"""

import numpy as np
import pytest
from scipy import ndimage

from baryrom import diagnostics as dg
from baryrom import cli, flow, online, pod
from baryrom import simplexqp as sq
from baryrom import transport as tr

from oracles import landscape_image, landscape_log10_w2, simplex_ls_active_set

EPS_TABLE = (0.1, 0.05, 0.01, 0.005)
CRITERION_7_TARGETS = (50, 175, 300, 425, 620)  # snapshot indices of example1


def _announce(num, detail):
    print(f"criterion {num}: PASS - {detail}")


def test_criterion_1_w2_reference_values():
    n = 1002
    cells = (np.arange(n) + 0.5) / n
    s1 = np.where(cells <= 0.1, 10.0, 0.0)
    s2 = np.where(cells <= 0.5, 2.0, 0.0)
    s3 = np.ones(n)
    dx = 1.0 / n
    l1_12 = np.abs(s1 - s2).sum() * dx
    l1_23 = np.abs(s2 - s3).sum() * dx
    assert l1_12 == pytest.approx(1.6, abs=0.02)
    assert l1_23 == pytest.approx(1.0, abs=0.02)
    i1, i2, i3 = (tr.snapshot_to_icdf(s) for s in (s1, s2, s3))
    w12 = tr.w2_distance(i1, i2)
    w23 = tr.w2_distance(i2, i3)
    assert w12 == pytest.approx(0.23, abs=0.01)
    assert w23 == pytest.approx(0.29, abs=0.01)
    assert l1_12 > l1_23 and w12 < w23  # the ordering flip the W2 metric buys
    _announce(1, f"L1 = ({l1_12:.3f}, {l1_23:.3f}), W2 = ({w12:.3f}, {w23:.3f})")


def test_criterion_2_pipeline_round_trip(example1):
    st = example1.store
    errs = np.empty(st.count)
    for k in range(st.count):
        c = tr.cdf(tr.normalize(tr.augment(st.values[k])))
        iic = tr.invert_icdf(tr.icdf(c, x_min=0.0, x_max=1.0), x_min=0.0, x_max=1.0)
        errs[k] = np.linalg.norm(iic - c)
    mean = float(errs.mean())
    assert 5e-5 <= mean <= 5e-3
    _announce(2, f"mean iicdf-vs-cdf L2 error {mean:.2e} in [5e-5, 5e-3]")


def test_criterion_3_example1_tables(example1):
    assert example1.store.count == 750
    g = {eps: example1.n_gbar(eps) for eps in EPS_TABLE}
    p = {eps: example1.n_pod(eps) for eps in EPS_TABLE}
    assert g[0.1] is not None and g[0.1] <= 4
    assert g[0.05] is not None and g[0.05] <= 6
    assert p[0.1] is not None and 25 <= p[0.1] <= 60
    assert p[0.01] is None or p[0.01] >= 150
    for eps in (0.1, 0.05, 0.01):
        assert g[eps] is not None, f"barycentric table must reach eps={eps}"
    for eps in EPS_TABLE:
        if g[eps] is not None:
            assert g[eps] < (p[eps] or np.inf), f"ordering violated at eps={eps}"
    fmt = lambda t: "/".join("-" if t[e] is None else str(t[e]) for e in EPS_TABLE)
    _announce(3, f"n_gBar = {fmt(g)}, n_POD = {fmt(p)} at eps = {EPS_TABLE}")


def test_criterion_4_example2_tables(example1, example2):
    assert example2.store.count == 700
    g2 = {eps: example2.n_gbar(eps) for eps in EPS_TABLE}
    p2 = {eps: example2.n_pod(eps) for eps in EPS_TABLE}
    p1 = {eps: example1.n_pod(eps) for eps in EPS_TABLE}
    assert g2[0.05] is not None and g2[0.05] <= 6
    for eps in (0.1, 0.05, 0.01):
        assert g2[eps] is not None, f"barycentric table must reach eps={eps}"
        assert g2[eps] < (p2[eps] or np.inf), f"gBar must beat POD at eps={eps}"
    for eps in EPS_TABLE:
        assert p2[eps] is not None
        assert p1[eps] is None or p2[eps] < p1[eps], (
            f"example-2 POD should need fewer modes than example 1 at eps={eps}"
        )
    fmt = lambda t: "/".join("-" if t[e] is None else str(t[e]) for e in EPS_TABLE)
    _announce(4, f"n_gBar = {fmt(g2)}, n_POD = {fmt(p2)} (example 1 POD {fmt(p1)})")


def test_criterion_5_greedy_diagnostics(example1):
    report = example1.report
    sizes = report.n
    cond = dict(zip(sizes, report.condition))
    vol = dict(zip(sizes, report.volume))
    assert 3 in cond and 25 in cond and 10 in vol and 20 in vol
    growth = cond[25] / cond[3]
    assert growth >= 1e4
    assert vol[20] < 0.1 * vol[10]
    _announce(
        5,
        f"cond(25)/cond(3) = {growth:.1e} >= 1e4; "
        f"vol(20)/vol(10) = {vol[20] / vol[10]:.1e} < 0.1",
    )


def test_criterion_6_property_suite():
    rng = np.random.default_rng(606)

    # simplex projection optimality against 1000 random feasible points
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        v = rng.uniform(-2.0, 2.0, n)
        proj = sq.project_to_simplex(v)
        w = rng.dirichlet(np.ones(n))
        assert np.sum((v - proj) ** 2) <= np.sum((v - w) ** 2) + 1e-12

    # QP solver vs exhaustive active-set oracle on n <= 3
    cells = (np.arange(58) + 0.5) / 58
    for _ in range(200):
        n = int(rng.integers(1, 4))
        widths = np.sort(rng.uniform(0.05, 1.0, n))
        atoms = np.stack(
            [tr.snapshot_to_icdf(np.where(cells <= w, 1.0 / w, 0.0)) for w in widths],
            axis=1,
        )
        target = tr.snapshot_to_icdf(rng.random(58) + 0.01)
        res = sq.solve_batch(atoms, target)
        _, f_star = simplex_ls_active_set(atoms, target)
        assert res.objective[0] <= f_star + 1e-8

    # barycenter vertex identity
    atoms = np.stack([tr.snapshot_to_icdf(rng.random(40) + 0.01) for _ in range(4)], axis=1)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        np.testing.assert_array_equal(tr.barycenter(atoms, e), atoms[:, i])

    # W2 metric axioms on random triples
    for _ in range(200):
        a, b, c = (tr.snapshot_to_icdf(rng.random(40) + 0.01) for _ in range(3))
        assert abs(tr.w2_distance(a, b) - tr.w2_distance(b, a)) <= 1e-12
        assert tr.w2_distance(a, b) <= (
            tr.w2_distance(a, c) + tr.w2_distance(c, b) + 1e-12
        )

    # flow solver: mass balance at 1e-8 relative and the maximum principle
    # on 50 random parameter draws
    for _ in range(50):
        n = int(rng.integers(60, 140))
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(
            n, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.5, 2.0)) * 1e-13
        )
        fluids = flow.FluidParams(0.003, float(rng.uniform(1.0, 25.0)) * 0.003,
                                  float(rng.uniform(1.0, 6.0)))
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        t_end = float(rng.uniform(0.2, 2.5))
        res = flow.simulate_batch(grid, [rock], [fluids], bc, [t_end])
        s = res.values[0, 0]
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        net = res.fluxes[0, 0, 0] - res.fluxes[0, 0, 1]
        pore_mass = np.sum(rock.porosity * grid.dx_m * s)
        assert pore_mass == pytest.approx(net, rel=1e-8)

    # POD reconstruction error monotone in the mode count
    snaps = rng.random((70, 20))
    basis = pod.compute(snaps)
    errs = pod.relative_l1_errors(basis, snaps)
    assert np.all(np.diff(errs.mean(axis=1)) <= 1e-12)

    # Wachspress map of the landscape pixels: partition of unity and linear
    # precision at 1e-10, uniform weights at the centre, and the area
    # coordinates on the triangle
    for n in range(3, 10):
        verts = dg.polygon_vertices(n)
        atoms = np.stack(
            [tr.snapshot_to_icdf(np.where(cells <= w, 1.0 / w, 0.0))
             for w in np.linspace(0.1, 0.9, n)],
            axis=1,
        )
        grid = dg.energy_landscape(atoms, atoms[:, 0], resolution=101)
        w = grid.weights
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(w @ verts - grid.xy).max() <= 1e-10
        centre = np.all(grid.xy == 0.0, axis=1)
        assert centre.sum() == 1 and np.abs(w[centre] - 1.0 / n).max() <= 1e-12
        if n == 3:
            # on a triangle the area coordinates are the affine ones
            lift = lambda pts: np.vstack([pts.T, np.ones(len(pts))])
            want = np.linalg.solve(lift(verts), lift(grid.xy)).T
            assert np.abs(w - want).max() <= 1e-12
    _announce(6, "projection/QP/barycenter/W2/flow/Wachspress/POD properties hold")


def test_criterion_7_landscape_sanity(example1):
    st = example1.store
    atoms = example1.model.dictionary.atoms[:, :3]
    m = atoms.shape[0]
    verts = dg.polygon_vertices(3)
    resolution = 201
    cell = 2.0 / (resolution - 1)

    # curvature-aware one-cell bound: an anisotropic valley moves the raster
    # argmin along the flat direction by up to sqrt(cond) cells
    planar = np.linalg.inv(np.vstack([verts.T, np.ones(3)]))[:, :2]
    hess = 2.0 * planar.T @ (atoms.T @ atoms / m) @ planar
    ev = np.linalg.eigvalsh(hess)
    radius = 0.5 * np.sqrt(2.0) * cell * (1.0 + np.sqrt(ev[-1] / ev[0]))

    worst_dist = 0.0
    for k in CRITERION_7_TARGETS:
        target = tr.snapshot_to_icdf(
            st.values[k], x_min=st.config.grid.x_min, x_max=st.config.grid.x_max
        )
        qp = sq.solve_batch(atoms, target)
        grid = dg.energy_landscape(atoms, target, resolution=resolution)
        w2_sq = 10.0 ** (2.0 * grid.log10_w2)
        assert np.all(w2_sq >= qp.objective[0] - 1e-12)  # QP is a true lower bound
        x_grid = grid.xy[int(np.argmin(grid.log10_w2))]
        x_qp = qp.weights[:, 0] @ verts
        dist = float(np.linalg.norm(x_grid - x_qp))
        assert dist <= radius
        worst_dist = max(worst_dist, dist)
        img = landscape_image(grid, resolution)
        inside = ~np.isnan(img)
        for q in (5, 10, 25, 50, 75, 90):
            thresh = np.percentile(grid.log10_w2, q)
            _, n_comp = ndimage.label(inside & (img <= thresh), structure=np.ones((3, 3)))
            assert n_comp <= 1, f"disjoint sublevel set at percentile {q}"
    _announce(
        7,
        f"grid minima within {worst_dist / cell:.1f} cells of the QP optimum "
        f"(anisotropy allowance {radius / cell:.1f}); sublevel sets connected",
    )


def test_landscape_matches_the_data_form_oracle(example1):
    st = example1.store
    atoms = example1.model.dictionary.atoms[:, :3]
    for k in CRITERION_7_TARGETS:
        target = tr.snapshot_to_icdf(
            st.values[k], x_min=st.config.grid.x_min, x_max=st.config.grid.x_max
        )
        grid = dg.energy_landscape(atoms, target, resolution=201)
        want = landscape_log10_w2(atoms, grid.weights, target)
        np.testing.assert_allclose(grid.log10_w2, want, rtol=0.0, atol=1e-10)


def test_landscape_csv_is_a_per_cell_repr(example1, tmp_path):
    # the whole landscape.csv of a criterion-7 target, byte for byte
    st = example1.store
    store_dir = example1.model_dir.parent / "example1_store"
    argv = ["landscape", "--model", str(example1.model_dir), "--store", str(store_dir),
            "--out", str(tmp_path), "--n", "3", "--target-index", "300"]
    assert cli.main(argv) == 0
    target = tr.snapshot_to_icdf(
        st.values[300], x_min=st.config.grid.x_min, x_max=st.config.grid.x_max
    )
    grid = dg.energy_landscape(example1.model.dictionary.atoms[:, :3], target)
    table = np.column_stack([grid.xy, grid.weights, grid.log10_w2])
    lines = ["x,y,lam_1,lam_2,lam_3,log10_w2"]
    lines += [",".join(repr(v) for v in row) for row in table.tolist()]
    assert (tmp_path / "landscape.csv").read_text() == "\n".join(lines) + "\n"


class TestPaperBehaviors:
    """Qualitative behaviors reported alongside the tables."""

    def test_example1_weight_maps_smooth_for_n3(self, example1):
        # with 3 atoms the optimal-weight maps vary smoothly over (mu, t)
        st = example1.store
        train = example1.training_icdfs()
        atoms = example1.model.dictionary.atoms[:, :3]
        res = sq.solve_batch(atoms, train)
        axes = example1.model.axes
        shape = tuple(ax.size for ax in axes) + (3,)
        table = np.zeros(shape)
        for row in range(st.count):
            idx = tuple(
                int(np.searchsorted(axes[j], st.params[row, j])) for j in range(3)
            )
            table[idx] = res.weights[:, row]
        beta0 = 0  # cross-section at the first beta value
        sheet = table[:, :, beta0, :]  # (t, mu, 3)
        t_jump = np.abs(np.diff(sheet, axis=0)).max()
        mu_jump = np.abs(np.diff(sheet, axis=1)).max()
        # time is densely sampled, so adjacent weights move gently; the mu
        # axis doubles per node at its coarse end and allows larger steps
        assert t_jump <= 0.5
        assert mu_jump <= 0.8
        print(f"weight-map jumps: t-axis {t_jump:.3f} <= 0.5, mu-axis {mu_jump:.3f}")

    def test_example1_pod_error_concentrates_at_front(self, example1):
        st = example1.store
        # mid-time snapshot of the base case has a sharp interior front
        k = int(np.flatnonzero(np.all(st.params == [2.0, 1.0, 2.0], axis=1))[0])
        truth = st.values[k]
        front = int(np.flatnonzero(truth > 0.01)[-1])
        for n in (10, 30, 50):
            psi = example1.pod_basis.modes[:, :n]
            rec = psi @ (psi.T @ truth)
            err = np.abs(rec - truth)
            assert abs(int(np.argmax(err)) - front) <= 5
            near = err[max(front - 10, 0) : front + 11]
            assert near.mean() > 3.0 * err.mean()
        print("POD ringing peaks at the jump; near-jump error density > 3x average")

    def test_example2_reconstruction_misses_kink(self, example2):
        st = example2.store
        # node with the interface at 0.05 and the front far past it
        sel = np.flatnonzero(
            (st.params[:, 0] == 10.0)
            & (st.params[:, 1] == 5e-14)
            & (st.params[:, 2] == 0.05)
        )
        k = int(sel[0])
        truth = st.values[k]
        rec = online.reconstruct(example2.model, st.params[k])
        err = np.abs(rec - truth)
        gamma_cell = int(0.05 * st.config.grid.n_cells)
        window = slice(max(gamma_cell - 15, 0), gamma_cell + 16)
        local = err[window].mean()
        assert local > 2.0 * err.mean()
        print(f"kink-local error {local:.4f} vs global mean {err.mean():.4f}")

    def test_example1_vertex_reconstructions(self, example1):
        st = example1.store
        model = example1.model
        for idx in model.dictionary.atom_indices[:5]:
            rec = online.reconstruct(model, st.params[idx])
            truth = st.values[idx]
            rel = np.abs(rec - truth).sum() / np.abs(truth).sum()
            assert rel <= 1e-2
        print("atom-parameter reconstructions at or below the 1e-2 pipeline floor")

    def test_example1_delta_mostly_decreasing(self, example1):
        delta = np.asarray(example1.report.delta)
        increases = int(np.count_nonzero(np.diff(delta) > 0))
        assert increases <= max(2, len(delta) // 10)
        assert delta[-1] < delta[0] / 50

    def test_density_round_trip_every_snapshot(self, example1, example2):
        # pdf -> cdf -> icdf -> iicdf -> pdf stays below 5e-3 for every
        # snapshot of both examples
        for data in (example1, example2):
            st = data.store
            for k in range(st.count):
                u = tr.normalize(tr.augment(st.values[k]))
                c = tr.cdf(u)
                iic = tr.invert_icdf(tr.icdf(c, x_min=0.0, x_max=1.0), x_min=0.0, x_max=1.0)
                u2 = tr.pdf_from_cdf(iic)
                assert np.linalg.norm(u2 - u) <= 5e-3

    def test_condition_trend_nondecreasing(self, example1, example2):
        for data in (example1, example2):
            cond = np.asarray(data.report.condition)
            finite = cond[np.isfinite(cond)]
            ratios = finite[1:] / finite[:-1]
            assert np.median(ratios) >= 1.0


def test_example1_weight_solves_converge(example1):
    # every greedy sweep solves its simplex least squares to the KKT tolerance
    assert example1.report.n_unconverged == [0] * len(example1.report.n)
    assert max(example1.report.kkt_max) <= 1e-10
