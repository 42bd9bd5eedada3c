import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sixdma_isac.isac import (
    db_to_linear,
    dbm_to_watts,
    link_metrics,
    project_power,
    sensing_snr,
    sinr,
    sum_rate,
    tx_power,
)

from oracles import channel_vector, oracle_sensing, oracle_sinr, sensing_snr_quadratic


def random_instance(rng, n=4, m=3, j=2):
    channels_uav = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    channels_tgt = rng.normal(size=(j, n)) + 1j * rng.normal(size=(j, n))
    precoder = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return channels_uav, channels_tgt, precoder


class TestSinr:
    def test_single_stream_has_no_interference(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        w = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        got = sinr(h, w, 1e-8)
        want = abs(np.vdot(w[:, 0], h[0])) ** 2 / 1e-8
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_orthogonal_interferer_changes_nothing(self):
        h = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
        w = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
        got = sinr(h, w, 1e-2)
        assert got[0] == pytest.approx(1.0 / 1e-2, rel=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h, _, w = random_instance(rng)
            got = sinr(h, w, 1e-8)
            want = oracle_sinr(h, w, 1e-8)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_common_phase_rotation_is_invisible(self):
        rng = np.random.default_rng(6)
        h, _, w = random_instance(rng)
        phase = np.exp(1j * 1.234)
        np.testing.assert_allclose(sinr(h * phase, w * phase, 1e-8), sinr(h, w, 1e-8), rtol=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sinr(np.zeros((2, 4), complex), np.zeros((3, 2), complex), 1.0)


class TestSumRate:
    def test_unit_sinr(self):
        assert sum_rate([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)

    def test_zero_sinr(self):
        assert sum_rate([0.0, 0.0]) == 0.0

    def test_powers_of_two(self):
        assert sum_rate([3.0, 7.0]) == pytest.approx(5.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sum_rate([-0.1])

    def test_strictly_increasing_per_entry(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.0, 5.0, size=4)
        base = sum_rate(g)
        for m in range(4):
            bumped = g.copy()
            bumped[m] += 0.5
            assert sum_rate(bumped) > base


class TestSensingSnr:
    def test_zero_precoder(self):
        h = np.ones((2, 4), complex)
        np.testing.assert_array_equal(sensing_snr(h, np.zeros((4, 3), complex), 1e-8), [0.0, 0.0])

    def test_single_stream(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        w = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        want = abs(h[0] @ w[:, 0]) ** 2 / 1e-8
        assert sensing_snr(h, w, 1e-8)[0] == pytest.approx(want, rel=1e-12)

    def test_two_paths_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            _, h, w = random_instance(rng)
            a = sensing_snr(h, w, 1e-8)
            b = sensing_snr_quadratic(h, w, 1e-8)
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            _, h, w = random_instance(rng)
            np.testing.assert_allclose(sensing_snr(h, w, 1e-8), oracle_sensing(h, w, 1e-8), rtol=1e-9)

    def test_uniform_scaling_is_monotone(self):
        rng = np.random.default_rng(15)
        _, h, w = random_instance(rng)
        base = sensing_snr(h, w, 1e-8)
        scaled = sensing_snr(h, 1.7 * w, 1e-8)
        assert np.all(scaled >= base)
        np.testing.assert_allclose(scaled, base * 1.7**2, rtol=1e-10)


class TestPower:
    def test_zero(self):
        assert tx_power(np.zeros((4, 3), complex)) == 0.0

    def test_reference_column_hits_forty_milliwatts(self):
        w = np.full((4, 1), 0.1, dtype=complex)
        assert tx_power(w) == pytest.approx(0.04, rel=1e-12)

    def test_unitary_columns(self):
        w = np.eye(4, dtype=complex)[:, :3]
        assert tx_power(w) == pytest.approx(3.0)

    def test_projection_leaves_feasible_untouched(self):
        w = np.full((4, 1), 0.05, dtype=complex)  # power 0.01
        out = project_power(w, 0.04)
        assert out is w

    def test_projection_scales_to_budget(self):
        w = np.full((4, 1), 0.2, dtype=complex)  # power 0.16
        out = project_power(w, 0.04)
        np.testing.assert_allclose(out, w * 0.5, rtol=1e-12)
        assert tx_power(out) == pytest.approx(0.04, rel=1e-12)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        once = project_power(w, 0.04)
        twice = project_power(once, 0.04)
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    def test_scaling_multiplies_power_quadratically(self):
        rng = np.random.default_rng(20)
        w = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        assert tx_power(2.0 * w) == pytest.approx(4.0 * tx_power(w), rel=1e-12)


class TestConversions:
    def test_minus_fifty_dbm(self):
        assert dbm_to_watts(-50.0) == pytest.approx(1e-8, rel=1e-12)

    def test_one_db_linear(self):
        assert db_to_linear(1.0) == pytest.approx(1.2589, abs=1e-4)

    def test_forty_milliwatts(self):
        assert dbm_to_watts(10 * np.log10(40)) == pytest.approx(0.04, rel=1e-12)


class TestLinkMetrics:
    def test_aggregates_are_consistent(self):
        rng = np.random.default_rng(21)
        hc, hs, w = random_instance(rng)
        lm = link_metrics(hc, hs, w, 1e-8, 1e-8)
        assert lm.sum_rate == pytest.approx(sum_rate(lm.sinr_per_uav))
        assert lm.tx_power == pytest.approx(tx_power(w))
        assert lm.mean_target_snr == pytest.approx(float(np.mean(lm.snr_per_target)))


class TestAntennaPhaseReference:
    def test_global_vs_centered_positions_only_shift_a_common_phase(self):
        # array phases may be referenced to the global origin or to the
        # surface center; the difference is a common per-vector phase that
        # cancels in every SINR/SNR quantity
        rng = np.random.default_rng(22)
        center = np.array([3.0, -7.0, 50.0])
        positions = center + rng.normal(size=(4, 3)) * 0.4
        uavs = center + rng.normal(size=(2, 3)) * 60.0
        targets = center + rng.normal(size=(2, 3)) * 40.0
        wavelength = 0.125
        h_global = np.stack([channel_vector(center, p, positions, wavelength) for p in uavs])
        h_centered = np.stack(
            [channel_vector(center, p, positions - center, wavelength) for p in uavs]
        )
        s_global = np.stack([channel_vector(center, p, positions, wavelength) for p in targets])
        s_centered = np.stack(
            [channel_vector(center, p, positions - center, wavelength) for p in targets]
        )
        w = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        np.testing.assert_allclose(sinr(h_global, w, 1e-8), sinr(h_centered, w, 1e-8), rtol=1e-9)
        np.testing.assert_allclose(
            sensing_snr(s_global, w, 1e-8), sensing_snr(s_centered, w, 1e-8), rtol=1e-9
        )
        # per-row phase shift is common to all entries
        ratio = h_global[0] / h_centered[0]
        np.testing.assert_allclose(np.abs(ratio), 1.0, rtol=1e-12)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)


# zero or a magnitude in [1e-6, 1], either sign: products of tinier entries
# underflow toward subnormals, where no relative tolerance holds
entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


@st.composite
def complex_matrices(draw, rows, cols):
    parts = draw(hnp.arrays(float, (2, rows, cols), elements=entries))
    return parts[0] + 1j * parts[1]


@st.composite
def precoders(draw):
    return draw(complex_matrices(draw(st.integers(1, 8)), draw(st.integers(1, 4))))


@st.composite
def targets_and_precoder(draw):
    n, m, j = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(complex_matrices(j, n)), draw(complex_matrices(n, m))


budgets = st.floats(1e-4, 10.0)


class TestPowerProperties:
    @settings(max_examples=300, deadline=None)
    @given(w=precoders(), p_max=budgets)
    def test_projection_never_raises_power_and_meets_the_budget(self, w, p_max):
        out = project_power(w, p_max)
        assert tx_power(out) <= tx_power(w)
        assert tx_power(out) <= p_max * (1.0 + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(w=precoders(), headroom=st.floats(1.0, 100.0))
    def test_projection_returns_an_in_budget_precoder_unchanged(self, w, headroom):
        p_max = max(tx_power(w) * headroom, 1e-12)
        assert project_power(w, p_max) is w

    @settings(max_examples=300, deadline=None)
    @given(w=precoders(), p_max=budgets)
    def test_projection_is_idempotent(self, w, p_max):
        once = project_power(w, p_max)
        np.testing.assert_allclose(project_power(once, p_max), once, rtol=1e-12, atol=0.0)


class TestSensingSnrProperties:
    @settings(max_examples=300, deadline=None)
    @given(hw=targets_and_precoder(), sigma_s_sq=st.floats(1e-10, 1.0))
    def test_two_paths_agree(self, hw, sigma_s_sq):
        h, w = hw
        direct, quadratic = sensing_snr(h, w, sigma_s_sq), sensing_snr_quadratic(h, w, sigma_s_sq)
        # where h_j and the beams cancel, both paths round at the scale of
        # their terms, |h_j|^2 |W|^2, not at the scale of the result
        floor = 1e-13 * np.linalg.norm(h, axis=1) ** 2 * np.linalg.norm(w) ** 2 / sigma_s_sq
        assert np.all(np.abs(direct - quadratic) <= 1e-9 * np.abs(quadratic) + floor)


@st.composite
def receivers_and_precoder(draw):
    """(M, N) receiver channels and an (N, M) precoder: one stream per receiver."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    return draw(complex_matrices(m, n)), draw(complex_matrices(n, m))


def stream_gains(h, w):
    """gains[m, i] = |w_i^H h_m|^2, each product summed one term at a time."""
    gains = np.empty((h.shape[0], w.shape[1]))
    for m in range(h.shape[0]):
        for i in range(w.shape[1]):
            product = 0j
            for n in range(h.shape[1]):
                product += np.conj(w[n, i]) * h[m, n]
            gains[m, i] = abs(product) ** 2
    return gains


def signal_and_interference(gains):
    """Each receiver's own-stream gain and the sum of its other streams' gains, stream by stream."""
    count = len(gains)
    return np.diag(gains), np.array([sum(gains[m, i] for i in range(count) if i != m) for m in range(count)])


def term_scale(h, w):
    """scale[m, i] = (sum_n |w_ni| |h_mn|)^2: the size of the terms behind gains[m, i].  Summed in
    another order, a product agrees to a few ulps of this, not of itself, where its terms cancel."""
    return (np.abs(h) @ np.abs(w)) ** 2


class TestSinrProperties:
    @settings(max_examples=300, deadline=None)
    @given(hw=receivers_and_precoder(), sigma_c_sq=st.floats(1e-10, 1.0))
    def test_sinr_equals_a_per_stream_loop(self, hw, sigma_c_sq):
        h, w = hw
        gains, scale = stream_gains(h, w), term_scale(h, w)
        signal, interference = signal_and_interference(gains)
        want = signal / (interference + sigma_c_sq)
        # sinr sums each product in BLAS order and forms the interference as the row total minus the
        # signal, so the two round at the scale of the signal's terms and of the whole row's terms
        bound = 1e-12 * (np.diag(scale) + want * scale.sum(axis=1)) / (interference + sigma_c_sq)
        assert np.all(np.abs(sinr(h, w, sigma_c_sq) - want) <= bound)

    @settings(max_examples=300, deadline=None)
    @given(hw=receivers_and_precoder(), sigma_c_sq=st.floats(1e-10, 1.0))
    def test_signal_and_interference_add_up_to_the_received_power(self, hw, sigma_c_sq):
        h, w = hw
        gains, scale = stream_gains(h, w), term_scale(h, w)
        signal, interference = signal_and_interference(gains)
        # row m's total received power from every stream, h_m^H (W W^H) h_m
        received = np.einsum("mn,nk,mk->m", h.conj(), w @ w.conj().T, h).real
        # the quadratic form sums over antenna pairs, the loop over streams: they agree at the
        # scale of the row's terms
        assert np.all(np.abs(signal + interference - received) <= 1e-12 * scale.sum(axis=1))
        got = sinr(h, w, sigma_c_sq)
        assert np.all(np.abs(got * (received - signal + sigma_c_sq) - signal)
                      <= 1e-12 * (np.diag(scale) + got * scale.sum(axis=1)))
