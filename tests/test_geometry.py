import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sixdma_isac.errors import ConfigError
from sixdma_isac.geometry import (
    AntennaLayout,
    SurfacePose,
    global_antenna_positions,
    half_space_ok,
    min_pairwise_distance,
    rotation_matrix,
    row_norms,
    square_grid_layout,
    surface_normal,
    validate_spacing,
)


def pose(center=(0.0, 0.0, 0.0), angles=(0.0, 0.0, 0.0)):
    return SurfacePose(np.asarray(center, dtype=float), np.asarray(angles, dtype=float))


class TestRotationMatrix:
    def test_zero_angles_is_identity(self):
        np.testing.assert_allclose(rotation_matrix([0.0, 0.0, 0.0]), np.eye(3), atol=0)

    def test_quarter_turn_about_x_maps_y_to_minus_z(self):
        # Hand-computed: the X block sends (0,1,0) to (0, cos a, -sin a).
        out = rotation_matrix([np.pi / 2, 0.0, 0.0]) @ np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-15)

    def test_half_turn_about_z_flips_x(self):
        out = rotation_matrix([0.0, 0.0, np.pi]) @ np.array([0.5, 0.0, 0.0])
        np.testing.assert_allclose(out, [-0.5, 0.0, 0.0], atol=1e-15)

    def test_orthonormal_and_proper_for_random_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r = rotation_matrix(rng.uniform(-np.pi, np.pi, size=3))
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(r) - 1.0) <= 1e-10

    def test_composition_order_is_observable(self):
        a = 0.3
        zyx = rotation_matrix([a, a, a])
        from sixdma_isac.geometry import rotation_x, rotation_y, rotation_z

        xyz = rotation_x(a) @ rotation_y(a) @ rotation_z(a)
        assert np.max(np.abs(zyx - xyz)) > 1e-6

    @pytest.mark.parametrize("build", [
        lambda: rotation_matrix([np.nan, 0.0, 0.0]),
        lambda: SurfacePose([0.0, np.inf, 0.0], np.zeros(3)),
        lambda: AntennaLayout(np.zeros((1, 3)), [1.0, np.nan, 0.0]),
        lambda: AntennaLayout(np.full((1, 3), np.nan), [1.0, 0.0, 0.0]),
    ])
    def test_rejects_non_finite(self, build):
        # geometry values are also built while a run acts: a bad one is a fault, not a usage error
        with pytest.raises(ValueError) as raised:
            build()
        assert not isinstance(raised.value, ConfigError)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(float, 3, elements=st.floats(-np.pi, np.pi)))
    def test_pose_rotation_is_the_frozen_rotation_matrix(self, angles):
        pose = SurfacePose(np.zeros(3), angles)
        rot = pose.rotation()
        assert np.array_equal(rot, rotation_matrix(angles))
        assert rot is pose.rotation()
        with pytest.raises(ValueError):
            rot[0, 0] = 2.0


class TestAntennaPositions:
    def test_zero_rotation_translates_layout(self):
        layout = square_grid_layout(2, 1.0)
        center = np.array([3.0, -2.0, 10.0])
        out = global_antenna_positions(pose(center), layout)
        np.testing.assert_allclose(out, center + layout.local_positions, atol=0)

    def test_half_turn_about_z(self):
        layout = AntennaLayout(np.array([[0.5, 0.0, 0.0]]), np.array([0.0, 0.0, 1.0]))
        out = global_antenna_positions(pose((0.0, 0.0, 200.0), (0.0, 0.0, np.pi)), layout)
        np.testing.assert_allclose(out[0], [-0.5, 0.0, 200.0], atol=1e-12)

    def test_rotation_is_an_isometry(self):
        layout = square_grid_layout(2, 1.0)
        rng = np.random.default_rng(11)
        base = global_antenna_positions(pose(), layout)
        ref = np.linalg.norm(base[:, None, :] - base[None, :, :], axis=-1)
        for _ in range(50):
            p = pose(rng.normal(size=3), rng.uniform(-np.pi, np.pi, size=3))
            pts = global_antenna_positions(p, layout)
            got = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


class TestSurfaceNormal:
    def test_zero_rotation_keeps_local_normal(self):
        layout = square_grid_layout(2, 1.0)
        np.testing.assert_allclose(surface_normal(pose(), layout), [1.0, 0.0, 0.0], atol=0)

    def test_quarter_turn_about_z(self):
        layout = square_grid_layout(2, 1.0)
        out = surface_normal(pose(angles=(0.0, 0.0, np.pi / 2)), layout)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_unit_norm_for_random_poses(self):
        layout = square_grid_layout(2, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = surface_normal(pose(angles=rng.uniform(-np.pi, np.pi, size=3)), layout)
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


class TestHalfSpace:
    layout = square_grid_layout(2, 1.0)
    # local normal +X rotated by theta_y = -pi/2 points along +Z
    up_pose = pose((0.0, 0.0, 200.0), (0.0, -np.pi / 2, 0.0))

    def test_point_above_plane(self):
        ok, margin = half_space_ok(self.up_pose, self.layout, [[0.0, 0.0, 250.0]])
        assert ok
        assert margin == pytest.approx(50.0, abs=1e-9)

    def test_point_below_plane(self):
        ok, margin = half_space_ok(self.up_pose, self.layout, [[0.0, 0.0, 150.0]])
        assert not ok
        assert margin == pytest.approx(-50.0, abs=1e-9)

    def test_point_on_plane_counts_as_ok(self):
        ok, margin = half_space_ok(pose((0.0, 0.0, 200.0)), self.layout, [[0.0, 5.0, 200.0]])
        assert ok
        assert margin == 0.0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            half_space_ok(self.up_pose, self.layout, np.empty((0, 3)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 3)) * 50.0
        p0 = pose((1.0, 2.0, 3.0), (0.2, -0.4, 0.9))
        _, margin = half_space_ok(p0, self.layout, pts)
        shift = rng.normal(size=3) * 100.0
        p1 = pose(p0.center + shift, p0.angles)
        _, margin_shifted = half_space_ok(p1, self.layout, pts + shift)
        assert margin_shifted == pytest.approx(margin, abs=1e-9)


class TestSpacing:
    def test_default_grid_meets_half_wavelength(self):
        layout = square_grid_layout(2, 1.0)
        assert layout.min_spacing() == pytest.approx(0.5)
        assert validate_spacing(layout, 0.125)

    def test_too_close_pair_fails(self):
        layout = AntennaLayout(
            np.array([[0.0, 0.0, 0.0], [0.0, 0.05, 0.0]]), np.array([1.0, 0.0, 0.0])
        )
        assert not validate_spacing(layout, 0.125)

    def test_single_antenna_is_vacuously_fine(self):
        layout = AntennaLayout(np.array([[0.0, 0.0, 0.0]]), np.array([1.0, 0.0, 0.0]))
        assert min_pairwise_distance(layout.local_positions) == np.inf
        assert validate_spacing(layout, 0.125)


point_sets = hnp.arrays(
    float, st.tuples(st.integers(1, 9), st.just(3)), elements=st.floats(-1e3, 1e3, allow_nan=False)
)


class TestDistances:
    @settings(max_examples=200, deadline=None)
    @given(points=point_sets)
    def test_min_pairwise_distance_equals_upper_triangle_minimum(self, points):
        n = len(points)
        if n < 2:
            assert min_pairwise_distance(points) == np.inf
            return
        dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
        assert min_pairwise_distance(points) == dists[np.triu_indices(n, 1)].min()

    @settings(max_examples=200, deadline=None)
    @given(points=point_sets)
    def test_row_norms_equal_one_row_norms(self, points):
        norms = row_norms(points)
        assert norms.shape == (len(points),)
        for norm, row in zip(norms, points):
            assert norm == np.linalg.norm(row)


class TestLayoutValidation:
    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            AntennaLayout(np.array([[0.0, 0.0, 0.0]]), np.array([2.0, 0.0, 0.0]))

    def test_rejects_out_of_plane_antenna(self):
        with pytest.raises(ValueError):
            AntennaLayout(np.array([[0.1, 0.0, 0.0]]), np.array([1.0, 0.0, 0.0]))

    def test_layout_arrays_are_frozen(self):
        layout = square_grid_layout(2, 1.0)
        with pytest.raises(ValueError):
            layout.local_positions[0, 0] = 1.0
