"""Recovery states, equipartition diagnostics, first-variation routes."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from wmcflab import experiments as ex, flow, grid as grid_module, sharp
from wmcflab import variations as var, wells
from wmcflab.errors import GeometryError, ResolutionError
from wmcflab.experiments import holds
from wmcflab.grid import Field, Grid, extract_levelset, gradient_neumann
from wmcflab.testfields import dilation_field, translation_field

from fieldcheck import along_axis, check_admissible, quartic, zero_field

SQRT2_6 = 0.23570226039551587
CENTER = (0.5, 0.5)


def disk():
    return sharp.Sphere(CENTER, 0.3)


class TestAdmissibility:
    def test_library_fields_vanish_on_boundary(self):
        g = Grid.box((0, 0), (1, 1), (64, 64))
        for psi in (dilation_field(CENTER, 0.38, 0.47),
                    translation_field((1, 0), CENTER, 0.38, 0.47)):
            assert check_admissible(psi, g) <= 1e-12


class TestBuildRecovery:
    def test_point1d_energy_near_sigma(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 1024)
        rec = var.build_recovery(sharp.Point1D(0.5), spec, g, 0.02)
        assert SQRT2_6 - 0.01 <= rec.energy_diffuse <= SQRT2_6 + 0.01

    def test_disk_energy_approaches_weighted_perimeter(self):
        # the gap has signed tail-truncation and resolution components, so
        # assert smallness at every eps rather than monotonicity
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (256, 256))
        target = 2 * np.pi * 0.3 * SQRT2_6
        for eps in (0.08, 0.04, 0.02):
            rec = var.build_recovery(disk(), spec, g, eps)
            assert rec.energy_sharp == pytest.approx(target, rel=1e-10)
            assert abs(rec.energy_diffuse - target) <= 1e-3

    def test_tail_values_sit_in_the_wells(self):
        # logistic tails: within 2e-5 of the wells at distance 8 eps and
        # within 1e-6 at distance 10 eps (exp(-sqrt(2) d/eps) oracle)
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (256, 256))
        eps = 0.02
        rec = var.build_recovery(disk(), spec, g, eps)
        pts = g.points()
        sd = disk().signed_distance(pts)
        u = rec.state.u.values
        dist_to_wells = np.minimum(np.abs(u), np.abs(u - 1.0))
        assert np.max(dist_to_wells[np.abs(sd) >= 8 * eps]) <= 2e-5
        assert np.max(dist_to_wells[np.abs(sd) >= 10 * eps]) <= 1e-6

    def test_values_stay_between_wells(self):
        spec = wells.linear_wells_quartic(0.0, 0.3, 1.0, 0.0)
        g = Grid.box((0, 0), (1, 1), (128, 128))
        rec = var.build_recovery(disk(), spec, g, 0.06)
        pts = g.points()
        assert np.all(rec.state.u.values >= spec.a(pts) - 1e-12)
        assert np.all(rec.state.u.values <= spec.b(pts) + 1e-12)

    def test_level_set_recovers_interface(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (256, 256))
        eps = 0.02
        rec = var.build_recovery(disk(), spec, g, eps)
        _, radius = extract_levelset(rec.state.u, 0.5).fitted_circle()
        h = float(np.max(g.spacing))
        assert abs(radius - 0.3) <= h + 10 * eps ** 2

    @pytest.mark.parametrize("spec", (
        wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0),
        wells.exp_scaled_quartic(0.5),
        along_axis(wells.affine_scaled_quartic(1.0, 0.5), 1),
        quartic(-0.2, 1.1, 2.0)),
        ids=("moving", "exp", "affine", "constant"))
    def test_state_and_reading_have_the_bits_of_positions(self, spec):
        # the well is bound once and u and its reading are formed from the
        # bound coefficients, which may be collapsed to scalars; written
        # with the coefficients at the positions they give the same bits
        g = Grid.box((0, 0), (1, 1), (48, 48))
        rec = var.build_recovery(disk(), spec, g, 0.1)
        pts = g.points()
        v = wells.optimal_profile_grid(spec, pts,
                                       disk().signed_distance(pts) / 0.1)
        a = spec.a(pts)
        u = a + (spec.b(pts) - a) * v
        assert rec.state.u.values.tobytes() == u.tobytes()
        reading = flow.read(rec.state, spec, pts)
        assert rec.reading.w.tobytes() == reading.w.tobytes()
        assert rec.reading.grad_norm.tobytes() == reading.grad_norm.tobytes()
        assert rec.energy_diffuse == reading.energy()
        assert rec.energy_diffuse.hex() == flow.energy_face(
            u, g, 0.1, spec, wells.bind(spec, pts)).hex()

    def test_underresolved_eps_raises(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        with pytest.raises(ResolutionError):
            var.build_recovery(disk(), spec, g, 0.02)

    def test_interface_too_close_to_boundary_raises(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (256, 256))
        with pytest.raises(GeometryError):
            var.build_recovery(sharp.Sphere(CENTER, 0.45), spec, g, 0.04)


class TestEquipartition:
    def test_well_state_has_zero_defect(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (32, 32))
        st = flow.PhaseState(Field.constant(g, 1.0), 0.05)
        reading = flow.read(st, spec, g.points())
        assert var.equipartition_defect(reading) == 0.0

    def test_exact_1d_profile_defect_below_tolerance(self):
        spec = wells.constant_quartic()
        g = Grid.interval(0.0, 1.0, 2048)
        rec = var.build_recovery(sharp.Point1D(0.5), spec, g, 0.05)
        assert var.equipartition_defect(rec.reading) <= 1e-6

    def test_defect_decreases_on_disk_sweep(self):
        spec = wells.linear_wells_quartic(0.0, 0.4, 1.0, 0.0)
        g = Grid.box((0, 0), (1, 1), (256, 256))
        defects = [var.equipartition_defect(
            var.build_recovery(disk(), spec, g, eps).reading)
            for eps in (0.08, 0.04, 0.02)]
        assert defects[2] < defects[1] < defects[0]

    def test_square_expansion_identity(self):
        # E_eps - int sqrt(2W)|grad u| = defect/2 exactly for the shared
        # discrete quadratures: E_eps summed with the centered |grad u| of
        # the reading, the defect's own quadrature
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (64, 64))
        pts = g.points()
        st = flow.PhaseState(
            Field(g, 0.5 + 0.4 * np.sin(5 * pts[..., 0]) * pts[..., 1]), 0.06)
        reading = flow.read(st, spec, pts)
        e = float(np.sum(reading.w / st.eps
                         + 0.5 * st.eps * reading.grad_norm ** 2)
                  * g.cell_volume)
        [(_, _, geo)] = var.measure_pairing(reading,
                                            [Field.constant(g, 1.0)])
        defect = var.equipartition_defect(reading)
        assert abs((e - geo) - 0.5 * defect) <= 1e-10 * max(1.0, e)


class TestMeasurePairings:
    def setup_method(self):
        self.spec = wells.constant_quartic()
        self.g = Grid.interval(0.0, 1.0, 1024)
        self.rec = var.build_recovery(sharp.Point1D(0.5), self.spec, self.g,
                                      0.02)

    def test_geometric_density_pairs_to_sigma(self):
        [(_, _, val)] = var.measure_pairing(self.rec.reading,
                                            [Field.constant(self.g, 1.0)])
        assert abs(val - SQRT2_6) <= 5 * (0.02 + self.g.spacing[0] ** 2)

    def test_faraway_test_function_pairs_to_nothing(self):
        psi = Field.from_function(
            self.g, lambda p: np.exp(-((p[..., 0] - 0.05) / 0.02) ** 2))
        [triple] = var.measure_pairing(self.rec.reading, [psi])
        for val in triple:
            assert abs(val) <= 1e-8

    def test_pairwise_gaps_bounded_by_defect(self):
        # |int (a^2 - b^2)| <= sqrt(defect * 4E) via Cauchy-Schwarz
        one = Field.constant(self.g, 1.0)
        [(pot, gra, geo)] = var.measure_pairing(self.rec.reading, [one])
        defect = var.equipartition_defect(self.rec.reading)
        e = self.rec.energy_diffuse
        bound = np.sqrt(defect * 4 * e) + 1e-12
        assert abs(pot - gra) <= bound
        assert abs(pot - geo) <= bound
        assert abs(gra - geo) <= bound

    def test_pairings_equal_density_formulas(self):
        # one reading of u, W and |grad u| serves the energy, the defect
        # and all three densities of every test sample, and gives the bits
        # of each formula evaluated on its own: the face-difference energy,
        # and the centered |grad u| of the densities and the defect
        spec = wells.linear_wells_quartic(0.0, 0.4, 1.0, 0.0)
        g = Grid.box((0, 0), (1, 1), (64, 64))
        rec = var.build_recovery(disk(), spec, g, 0.08)
        st = rec.state
        testers = [Field.constant(g, 1.0),
                   Field.from_function(g, lambda p: 1.0 + 0.5 * p[..., 0]),
                   Field.from_function(g, lambda p: np.exp(
                       -((p[..., 0] - 0.5) ** 2
                         + (p[..., 1] - 0.5) ** 2) / 0.08))]
        pts = g.points()
        w = spec.W(pts, st.u.values)
        gn = np.sqrt(sum(c ** 2 for c in
                         gradient_neumann(st.u).components))

        def pair(dens, psi):
            return float(np.sum(dens * psi.values) * g.cell_volume)

        assert var.measure_pairing(rec.reading, testers) == [
            (pair(2.0 / st.eps * w, psi),
             pair(st.eps * gn ** 2, psi),
             pair(np.sqrt(np.maximum(2.0 * w, 0.0)) * gn, psi))
            for psi in testers]
        assert rec.reading.energy().hex() == rec.energy_diffuse.hex() \
            == flow.energy_face(st.u.values, g, st.eps, spec,
                                wells.bind(spec, pts)).hex()
        root_eps = np.sqrt(st.eps)
        defect = float(np.sum((root_eps * gn - np.sqrt(
            np.maximum(2.0 * w, 0.0)) / root_eps) ** 2) * g.cell_volume)
        assert var.equipartition_defect(rec.reading) == defect


class TestOneReadingPerState:
    """The equipartition and first-variation sweeps read each recovery
    state once: one |grad u| and one W on the full grid per eps."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = collections.Counter()
        for name in ("gradient_neumann", "laplacian_neumann"):
            original = getattr(grid_module, name)

            def counted(*args, name=name, original=original, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            # every module binding of the one function, as imported by name
            for module in (grid_module, flow, var):
                assert getattr(module, name) is original
                monkeypatch.setattr(module, name, counted)
        return counts

    @staticmethod
    def counted_well(spec, counts, cells):
        def W(x, u):
            if np.shape(u) == cells:
                counts["W_full_grid"] += 1
            return spec.W(x, u)
        return dataclasses.replace(spec, W=W)

    def test_equipartition_reads_each_state_once(self, monkeypatch, counts):
        # the runner builds its well at call time, here the counted one
        well = wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0)
        spec = self.counted_well(well, counts, (64, 64))
        monkeypatch.setattr(wells, "linear_wells_quartic", lambda *args: spec)
        result = ex.run_equipartition(grid_n=64, eps_list=(0.1, 0.08))
        assert len(result.csv_rows) == 2
        assert counts == {"gradient_neumann": 2, "W_full_grid": 2}

    def test_first_variation_sweep_reads_each_state_once(self, counts):
        # per eps: the reading, and the normalized well W(x, a + gamma v)
        # of the reassembled route (an evaluation at a different u); the
        # diffuse first variation takes grad v, and the direct route the
        # Laplacian of u of the energy's L2-gradient
        spec = self.counted_well(wells.constant_quartic(), counts, (64, 64))
        g = Grid.box((0, 0), (1, 1), (64, 64))
        rows = var.first_variation_convergence(
            (0.1, 0.08), disk(), spec, dilation_field(CENTER, 0.38, 0.47), g)
        assert len(rows) == 2
        assert counts == {"gradient_neumann": 2 * 2, "laplacian_neumann": 2,
                          "W_full_grid": 2 * 2}


DERIVATIVE_WELLS = (
    wells.constant_quartic(), wells.affine_scaled_quartic(1.0, 1.0),
    wells.linear_wells_quartic(0.0, 0.6, 1.0, 0.0))


class TestFirstVariation:
    # the direct route is the exact derivative of the energy the schemes
    # descend, energy_face, along inner = gamma grad v . Psi. Richardson's
    # step on central differences at tau = 1e-3 and 5e-4 is O(tau^4): on
    # 60 draws of this family it met the direct value to 2.2e-13 at most,
    # 45x under the bound, while the derivative of the centered-difference
    # energy (grad u . grad inner) missed it by 2.4e-5 to 1.8e-3
    @settings(max_examples=20, deadline=None)
    @given(hst.sampled_from(DERIVATIVE_WELLS), hst.floats(0.04, 0.1),
           hst.tuples(hst.floats(-0.04, 0.04), hst.floats(-0.04, 0.04)),
           hst.one_of(hst.none(), hst.floats(0.0, 2 * np.pi)))
    def test_direct_route_is_the_derivative_of_energy_face(
            self, spec, eps, offset, angle):
        g = Grid.box((0, 0), (1, 1), (128, 128))
        pts = g.points()
        c = (0.5 + offset[0], 0.5 + offset[1])
        psi = (dilation_field(c, 0.38, 0.45) if angle is None else
               translation_field((np.cos(angle), np.sin(angle)), c, 0.38,
                                 0.45))
        u = var.build_recovery(disk(), spec, g, eps).state.u
        a = spec.a(pts)
        gamma = spec.b(pts) - a
        grad_v = gradient_neumann(Field(g, (u.values - a) / gamma))
        inner = gamma * sum(comp * psi.psi(pts)[..., k]
                            for k, comp in enumerate(grad_v.components))
        bound = wells.bind(spec, pts)

        def slope(tau):
            return (flow.energy_face(u.values + tau * inner, g, eps, spec,
                                     bound)
                    - flow.energy_face(u.values - tau * inner, g, eps, spec,
                                       bound)) / (2 * tau)

        derivative = (4 * slope(5e-4) - slope(1e-3)) / 3
        value = var.diffuse_first_variation(
            flow.PhaseState(u, eps), spec, psi).value
        assert abs(value - derivative) <= 1e-11

    def test_zero_field_gives_zero(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (128, 128))
        rec = var.build_recovery(disk(), spec, g, 0.06)
        fv = var.diffuse_first_variation(rec.state, spec, zero_field(2))
        assert fv.value == 0.0 and fv.reassembled == 0.0

    def test_sharp_dilation_value(self):
        sig = sharp.constant_scalar_sigma(SQRT2_6).about(CENTER)
        val = var.sharp_first_variation(disk(), sig,
                                        dilation_field(CENTER, 0.38, 0.47))
        assert_allclose(val, -2 * np.pi * 0.3 * SQRT2_6, atol=1e-9)

    def test_translation_invariance_diffuse(self):
        # constant sigma: a field constant near the interface pairs to
        # o(1); the cutoff annulus is placed off-center so only the
        # profile tails reach it (a symmetric placement cancels to
        # roundoff and shows nothing)
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (256, 256))
        tr = translation_field((1, 0), (0.55, 0.5), 0.36, 0.44)
        vals = [abs(var.diffuse_first_variation(
            var.build_recovery(disk(), spec, g, eps).state, spec, tr).value)
            for eps in (0.08, 0.04)]
        assert vals[1] < vals[0] / 2.0

    def test_routes_agree_and_tighten_under_refinement(self):
        spec = wells.affine_scaled_quartic(offset=1.0, slope=1.0)
        psi = dilation_field(CENTER, 0.38, 0.47)
        gaps = []
        for eps, n in ((0.08, 64), (0.04, 256)):
            g = Grid.box((0, 0), (1, 1), (n, n))
            rec = var.build_recovery(disk(), spec, g, eps)
            gaps.append(var.diffuse_first_variation(rec.state, spec, psi).gap)
        assert gaps[1] < gaps[0]

    def test_sweep_table_and_csv(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (128, 128))
        rows = var.first_variation_convergence(
            [0.08, 0.04], disk(), spec, dilation_field(CENTER, 0.38, 0.47), g)
        assert holds([r.gap for r in rows], "decreasing", None)

    def test_zero_field_sweep_rows_are_zero(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (128, 128))
        rows = var.first_variation_convergence([0.08], disk(), spec,
                                               zero_field(2), g)
        assert rows[0].diffuse == 0.0
        assert rows[0].sharp == 0.0

    def test_underresolved_sweep_raises(self):
        spec = wells.constant_quartic()
        g = Grid.box((0, 0), (1, 1), (64, 64))
        with pytest.raises(ResolutionError):
            var.first_variation_convergence([0.01], disk(), spec,
                                            zero_field(2), g)
