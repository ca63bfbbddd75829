import numpy as np
import pytest

from convsep.errors import ParameterError
from convsep.simulate import (
    MixingSystem,
    SimScenario,
    SourceSet,
    build_scenario,
    cyclic_envelope,
    delayed_pair_scenario,
    diagonal_scenario,
    generate_ecg_interferer,
    generate_impulse_train,
    instantaneous_pair_scenario,
    mix,
    muap_kernel_components,
    respiratory_scenario,
    stream_rng,
)

TA = 0.976e-3


def naive_mix(signals, kernels, gains):
    """Direct convolution-sum oracle for the mixing model."""
    q_count, n = signals.shape
    p_count, length = kernels.shape[1], kernels.shape[2]
    out = np.zeros((p_count, n))
    for q in range(q_count):
        for p in range(p_count):
            for k in range(length):
                for t in range(n):
                    if t - k >= 0:
                        out[p, t] += gains[q] * kernels[q, p, k] * signals[q, t - k]
    return out


class TestImpulseTrain:
    def test_zero_rate(self):
        out = generate_impulse_train(0.0, np.ones(100), 100, TA, stream_rng(0, "t"))
        assert np.all(out == 0.0)

    def test_zero_jitter_exact_spacing(self):
        n = 2000
        rate = 20.0
        out = generate_impulse_train(rate, np.ones(n), n, TA, stream_rng(0, "t"), jitter=0.0)
        spikes = np.flatnonzero(out)
        spacing = int(round(1.0 / (rate * TA)))
        assert spikes[0] == spacing
        assert np.all(np.diff(spikes) == spacing)

    def test_spike_count_statistics(self):
        n = int(round(10.0 / TA))
        counts = [
            int(generate_impulse_train(20.0, np.ones(n), n, TA, stream_rng(s, "t")).sum())
            for s in range(10)
        ]
        # ~200 expected; generous 3-sigma band for the jittered renewal process
        assert all(abs(c - 200) < 3 * np.sqrt(200) for c in counts)

    def test_respects_envelope(self):
        n = 4000
        env = np.zeros(n)
        env[: n // 2] = 1.0
        out = generate_impulse_train(30.0, env, n, TA, stream_rng(1, "t"))
        assert out[n // 2 :].sum() == 0.0
        assert out[: n // 2].sum() > 0


class TestMuapKernel:
    def test_zero_amplitude(self):
        prop, eof = muap_kernel_components(0.01, 0.0, 4.0, TA, 16, amplitude=0.0)
        assert np.all(prop == 0.0) and np.all(eof == 0.0)

    def test_support_is_kernel_length(self):
        for part in muap_kernel_components(0.01, 0.01, 4.0, TA, 16):
            assert part.shape == (16,)
            assert np.all(np.isfinite(part))

    def test_depth_ratios(self):
        # direct evaluation of the two wavelet amplitudes: alpha=2 vs beta=1
        p1, e1 = muap_kernel_components(0.01, 0.0, 4.0, TA, 16)
        p2, e2 = muap_kernel_components(0.02, 0.0, 4.0, TA, 16)
        np.testing.assert_allclose(np.abs(p2).max() / np.abs(p1).max(), 0.25, rtol=1e-12)
        np.testing.assert_allclose(np.abs(e2).max() / np.abs(e1).max(), 0.5, rtol=1e-12)

    def test_depth_monotonicity(self):
        depths = [0.008, 0.01, 0.015, 0.02, 0.03]
        peaks, ratios = [], []
        for d in depths:
            prop, eof = muap_kernel_components(d, 0.0, 4.0, TA, 16)
            peaks.append(np.abs(prop).max())
            ratios.append(np.abs(eof).max() / np.abs(prop).max())
        assert all(a > b for a, b in zip(peaks, peaks[1:]))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_delay_too_long(self):
        with pytest.raises(ParameterError):
            muap_kernel_components(0.01, 0.1, 4.0, TA, 16)

    def test_offset_sets_delay(self):
        offset = 0.0156  # ~4 samples at 4 m/s
        near, _ = muap_kernel_components(0.01, 0.0, 4.0, TA, 32, end_of_fiber_amp=0.0)
        far, _ = muap_kernel_components(0.01, offset, 4.0, TA, 32, end_of_fiber_amp=0.0)
        xcorr = np.correlate(far, near, mode="full")
        lag = int(np.argmax(xcorr)) - (len(near) - 1)
        assert lag == 4


class TestEcg:
    def test_short_signal_single_pulse(self):
        n = int(round(0.6 / TA))  # below one 60-bpm period
        out = generate_ecg_interferer(60.0, n, TA, stream_rng(2, "ecg"))
        # at most one R peak: count local maxima above half the global peak
        peak = np.abs(out).max()
        above = np.abs(out) > 0.9 * peak
        assert np.sum(np.diff(above.astype(int)) == 1) <= 1

    def test_pulse_count(self):
        n = int(round(10.0 / TA))
        out = generate_ecg_interferer(60.0, n, TA, stream_rng(3, "ecg"))
        peak = out.max()
        crossings = np.flatnonzero((out[1:] > 0.5 * peak) & (out[:-1] <= 0.5 * peak))
        assert 9 <= len(crossings) <= 11

    def test_unit_rms(self):
        n = int(round(20.0 / TA))
        out = generate_ecg_interferer(70.0, n, TA, stream_rng(4, "ecg"))
        np.testing.assert_allclose(np.sqrt(np.mean(out**2)), 1.0, rtol=1e-12)

    def test_zero_amplitude(self):
        out = generate_ecg_interferer(70.0, 1000, TA, stream_rng(5, "ecg"), amplitude=0.0)
        assert np.all(out == 0.0)


class TestMix:
    def test_delta_kernel_identity(self):
        rng = stream_rng(6, "s")
        sig = rng.standard_normal((1, 50))
        sources = SourceSet(sig, ("noise",), 6, TA)
        kernels = np.zeros((1, 1, 8))
        kernels[0, 0, 0] = 1.0
        mixed, images = mix(sources, MixingSystem(kernels), [1.0])
        np.testing.assert_array_equal(mixed.data[0], sig[0])
        np.testing.assert_array_equal(images[0].data, mixed.data)

    def test_superposition(self):
        rng = stream_rng(7, "s")
        sig = rng.standard_normal((2, 60))
        kernels = rng.standard_normal((2, 2, 4))
        sources = SourceSet(sig, ("noise", "noise"), 7, TA)
        system = MixingSystem(kernels)
        both, _ = mix(sources, system, [1.0, 1.0])
        only1, _ = mix(sources, system, [1.0, 0.0])
        only2, _ = mix(sources, system, [0.0, 1.0])
        np.testing.assert_array_equal(both.data, only1.data + only2.data)

    def test_matches_naive_convolution(self):
        rng = stream_rng(8, "s")
        sig = rng.standard_normal((2, 40))
        kernels = rng.standard_normal((2, 3, 4))
        gains = [0.7, -1.3]
        sources = SourceSet(sig, ("noise", "noise"), 8, TA)
        mixed, images = mix(sources, MixingSystem(kernels), gains)
        np.testing.assert_allclose(mixed.data, naive_mix(sig, kernels, gains), atol=1e-12)

    def test_images_sum_to_mixture(self):
        sim = build_scenario(respiratory_scenario(seed=1, duration_s=5.0))
        total = sum(img.data for img in sim.images)
        scale = np.sqrt(np.mean(sim.mixed.data**2))
        np.testing.assert_allclose(total, sim.mixed.data, atol=1e-12 * scale)


class TestEnvelope:
    def test_antiphase_no_overlap(self):
        n = 10000
        insp = cyclic_envelope(n, TA, 4.0, 0.0, 0.45)
        exp = cyclic_envelope(n, TA, 4.0, 0.5, 0.95)
        overlap = np.sum((insp > 0) & (exp > 0)) / n
        assert overlap < 0.05

    def test_invalid_window(self):
        with pytest.raises(ParameterError):
            cyclic_envelope(100, TA, 4.0, 0.5, 0.4)


class TestBuildScenario:
    def test_deterministic_for_fixed_seed(self):
        a = build_scenario(respiratory_scenario(seed=3, duration_s=4.0))
        b = build_scenario(respiratory_scenario(seed=3, duration_s=4.0))
        np.testing.assert_array_equal(a.mixed.data, b.mixed.data)
        np.testing.assert_array_equal(a.sources.signals, b.sources.signals)
        np.testing.assert_array_equal(a.system.kernels, b.system.kernels)

    def test_seed_changes_output(self):
        a = build_scenario(respiratory_scenario(seed=3, duration_s=4.0))
        b = build_scenario(respiratory_scenario(seed=4, duration_s=4.0))
        assert not np.array_equal(a.mixed.data, b.mixed.data)

    def test_ecg_dominance_ratio(self):
        sim = build_scenario(respiratory_scenario(seed=0, duration_s=30.0))
        kinds = sim.sources.kinds
        ecg_idx = kinds.index("ecg")
        emg_idx = [i for i, k in enumerate(kinds) if k.startswith("emg")]
        ecg_rms = np.sqrt(np.mean(sim.images[ecg_idx].data ** 2))
        emg_rms = np.mean(
            [np.sqrt(np.mean(sim.images[i].data ** 2)) for i in emg_idx]
        )
        assert 500.0 <= ecg_rms / emg_rms <= 2000.0

    def test_default_is_paper_shaped(self):
        sc = respiratory_scenario()
        assert sc.n_sources == sc.n_sensors == 4
        assert sc.sample_interval_s == pytest.approx(0.976e-3)
        assert sc.ecg_gain == 1000.0
        assert sc.kernel_length == 16

    def test_sensor_count_must_match(self):
        with pytest.raises(ParameterError):
            SimScenario(n_sources=4, n_sensors=3)

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ParameterError, match="seed"):
            respiratory_scenario(seed=-1)

    def test_ecg_bpm_must_be_positive(self):
        with pytest.raises(ParameterError, match="ecg_bpm"):
            SimScenario(ecg_bpm=0.0)

    def test_propagation_delay_checked_at_construction(self):
        # 2 + 3 * 0.015 / (v * 0.976e-3) <= 15 holds from v = 3.5466 m/s
        build_scenario(respiratory_scenario(conduction_velocity_m_s=3.55, duration_s=2.0))
        with pytest.raises(ParameterError, match="conduction_velocity_m_s"):
            respiratory_scenario(conduction_velocity_m_s=3.54)
        # no propagating MUAP kernel is built, so no delay has to fit
        respiratory_scenario(conduction_velocity_m_s=0.5, mixing="instantaneous")
        SimScenario(
            source_kinds=("ecg", "noise", "noise", "noise"),
            firing_rates_hz=(0.0,) * 4,
            conduction_velocity_m_s=0.5,
        )

    def test_pair_scenarios(self):
        for factory in (delayed_pair_scenario, instantaneous_pair_scenario, diagonal_scenario):
            sim = build_scenario(factory(seed=0, duration_s=3.0))
            assert sim.mixed.n_channels == 2
            assert len(sim.images) == 2

    def test_instantaneous_kernels_are_lag_zero(self):
        sim = build_scenario(instantaneous_pair_scenario(seed=0, duration_s=3.0))
        assert np.all(sim.system.kernels[:, :, 1:] == 0.0)

    def test_delayed_kernels_have_distinct_delays(self):
        sim = build_scenario(delayed_pair_scenario(seed=0, duration_s=3.0))
        k = sim.system.kernels
        own = np.argmax(np.abs(k[0, 0]))
        cross = np.argmax(np.abs(k[0, 1]))
        assert cross - own >= 3
