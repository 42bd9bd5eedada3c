import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sixdma_isac.channel import channel_matrix
from sixdma_isac.errors import SingularityError
from sixdma_isac.geometry import SurfacePose, global_antenna_positions, square_grid_layout

from oracles import array_response, channel_vector


def reference_channel(center, target, positions, wavelength):
    """Straight-line oracle: evaluates every term of the LoS model with
    scalar arithmetic, independent of the vectorized implementation."""
    center = np.asarray(center, float)
    target = np.asarray(target, float)
    d = float(np.sqrt(((target - center) ** 2).sum()))
    f = (target - center) / d
    entries = []
    for p in np.asarray(positions, float):
        phase = 2.0 * np.pi / wavelength * (f[0] * p[0] + f[1] * p[1] + f[2] * p[2])
        g = complex(np.cos(phase), np.sin(phase))
        scale = wavelength / (4.0 * np.pi * d) * complex(
            np.cos(-2.0 * np.pi * d / wavelength), np.sin(-2.0 * np.pi * d / wavelength)
        )
        entries.append(scale * g)
    return np.array(entries)


def per_point_channel(center, target, positions, wavelength):
    """One point at a time with Python-float scalars, the arithmetic the
    channel rows must reproduce bit for bit so that rollouts stay
    byte-stable."""
    delta = np.asarray(target, float) - np.asarray(center, float)
    dist = float(np.linalg.norm(delta))
    amplitude = wavelength / (4.0 * np.pi * dist)
    phase = np.exp(-1j * 2.0 * np.pi * dist / wavelength)
    return amplitude * phase * array_response(delta / dist, positions, wavelength)


class TestArrayResponse:
    def test_orthogonal_direction_gives_all_ones(self):
        positions = np.array([[0.0, 0.3, 0.0], [0.0, -0.3, 0.0]])
        out = array_response([1.0, 0.0, 0.0], positions, 0.125)
        np.testing.assert_allclose(out, [1.0 + 0.0j, 1.0 + 0.0j], atol=1e-15)

    def test_half_wavelength_path_flips_sign(self):
        wavelength = 0.125
        out = array_response([1.0, 0.0, 0.0], [[wavelength / 2.0, 0.0, 0.0]], wavelength)
        np.testing.assert_allclose(out[0], -1.0 + 0.0j, atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            f = rng.normal(size=3)
            f /= np.linalg.norm(f)
            positions = rng.normal(size=(5, 3))
            out = array_response(f, positions, 0.125)
            np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)

    def test_conjugates_under_direction_flip(self):
        rng = np.random.default_rng(31)
        f = rng.normal(size=3)
        f /= np.linalg.norm(f)
        positions = rng.normal(size=(4, 3))
        fwd = array_response(f, positions, 0.125)
        back = array_response(-f, positions, 0.125)
        np.testing.assert_allclose(back, fwd.conj(), atol=1e-12)


class TestChannelVector:
    wavelength = 0.125

    def test_entry_modulus_is_free_space_amplitude(self):
        rng = np.random.default_rng(37)
        center = np.array([0.0, 0.0, 200.0])
        target = np.array([40.0, -30.0, 150.0])
        positions = center + rng.normal(size=(4, 3)) * 0.3
        h = channel_vector(center, target, positions, self.wavelength)
        d = np.linalg.norm(target - center)
        np.testing.assert_allclose(np.abs(h), self.wavelength / (4 * np.pi * d), rtol=1e-12)

    def test_distance_equal_to_wavelength_has_unit_propagation_phase(self):
        center = np.zeros(3)
        target = np.array([self.wavelength, 0.0, 0.0])
        positions = np.array([[0.0, 0.1, 0.0]])
        h = channel_vector(center, target, positions, self.wavelength)
        g = array_response([1.0, 0.0, 0.0], positions, self.wavelength)
        np.testing.assert_allclose(h, g / (4 * np.pi), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            center = rng.normal(size=3) * 10.0
            target = center + rng.normal(size=3) * 100.0
            positions = center + rng.normal(size=(6, 3)) * 0.4
            got = channel_vector(center, target, positions, self.wavelength)
            want = reference_channel(center, target, positions, self.wavelength)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-18)

    def test_doubling_distance_halves_amplitude(self):
        center = np.array([1.0, 2.0, 3.0])
        offset = np.array([30.0, -40.0, 10.0])
        positions = center + np.array([[0.0, 0.25, 0.0], [0.0, -0.25, 0.0]])
        near = channel_vector(center, center + offset, positions, self.wavelength)
        far = channel_vector(center, center + 2.0 * offset, positions, self.wavelength)
        np.testing.assert_allclose(np.abs(far), np.abs(near) / 2.0, rtol=1e-13)

    def test_global_rotation_preserves_moduli_and_relative_phases(self):
        rng = np.random.default_rng(43)
        from sixdma_isac.geometry import rotation_matrix

        center = np.array([0.0, 0.0, 200.0])
        target = np.array([60.0, 20.0, 260.0])
        positions = center + rng.normal(size=(4, 3)) * 0.4
        h = channel_vector(center, target, positions, self.wavelength)
        q = rotation_matrix(rng.uniform(-np.pi, np.pi, size=3))
        rot_positions = center + (positions - center) @ q.T
        rot_target = center + q @ (target - center)
        h_rot = channel_vector(center, rot_target, rot_positions, self.wavelength)
        np.testing.assert_allclose(np.abs(h_rot), np.abs(h), rtol=1e-10)
        np.testing.assert_allclose(h_rot * h_rot[0].conj(), h * h[0].conj(), rtol=1e-9, atol=1e-18)

    def test_target_at_center_is_singular(self):
        with pytest.raises(SingularityError):
            channel_vector([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [[0.0, 0.1, 0.0]], self.wavelength)


coords = st.floats(-300.0, 300.0, allow_nan=False)


class TestChannelMatrix:
    wavelength = 0.125

    @settings(max_examples=200, deadline=None)
    @given(
        center=hnp.arrays(float, 3, elements=st.floats(-50.0, 50.0)),
        angles=hnp.arrays(float, 3, elements=st.floats(-np.pi, np.pi)),
        offsets=hnp.arrays(float, st.tuples(st.integers(1, 8), st.just(3)), elements=coords),
        n_side=st.integers(1, 4),
        side_length=st.floats(0.1, 2.0),
        wavelength=st.floats(0.01, 1.0),
    )
    def test_rows_equal_per_point_channels(self, center, angles, offsets, n_side, side_length, wavelength):
        assume(np.all(np.linalg.norm(offsets, axis=1) > 1e-6))
        positions = global_antenna_positions(SurfacePose(center, angles), square_grid_layout(n_side, side_length))
        points = center + offsets
        rows = channel_matrix(center, points, positions, wavelength)
        assert rows.shape == (len(points), n_side * n_side)
        for row, point in zip(rows, points):
            assert np.array_equal(row, channel_vector(center, point, positions, wavelength))
            assert np.array_equal(row, per_point_channel(center, point, positions, wavelength))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(47)
        center = np.array([0.0, 0.0, 200.0])
        points = center + rng.normal(size=(5, 3)) * 80.0
        positions = center + rng.normal(size=(4, 3)) * 0.3
        want = np.stack([reference_channel(center, p, positions, self.wavelength) for p in points])
        np.testing.assert_allclose(channel_matrix(center, points, positions, self.wavelength), want,
                                   rtol=1e-10, atol=1e-18)

    def test_any_point_at_center_is_singular(self):
        center = np.array([1.0, 2.0, 3.0])
        points = np.array([[10.0, 0.0, 0.0], center, [0.0, 10.0, 0.0]])
        with pytest.raises(SingularityError):
            channel_matrix(center, points, [[0.0, 0.1, 0.0]], self.wavelength)

    def test_rejects_bad_shapes_and_wavelength(self):
        with pytest.raises(ValueError):
            channel_matrix(np.zeros(3), np.ones(3), [[0.0, 0.1, 0.0]], self.wavelength)
        with pytest.raises(ValueError):
            channel_matrix(np.zeros(3), np.ones((2, 3)), [[0.0, 0.1, 0.0]], 0.0)
