"""Per-VM workload stream tests."""

import numpy as np
import pytest

from repro.cluster.resources import NUM_RESOURCES
from repro.errors import ConfigurationError
from repro.traces.workload import WorkloadStream, overload_ramp


class TestOverloadRamp:
    def test_shape_and_plateau(self):
        r = overload_ramp(100, start=40, ramp_len=20, peak=0.8)
        assert (r[:40] == 0).all()
        assert r[60:].max() == pytest.approx(0.8)
        assert r[59] == pytest.approx(0.8)

    def test_monotone_rise(self):
        r = overload_ramp(100, start=10, ramp_len=30, peak=1.0)
        assert (np.diff(r[10:40]) > 0).all()

    def test_start_past_end_is_silent(self):
        assert (overload_ramp(50, start=60, ramp_len=5) == 0).all()

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            overload_ramp(10, start=-1, ramp_len=5)
        with pytest.raises(ConfigurationError):
            overload_ramp(10, start=0, ramp_len=0)


class TestWorkloadStream:
    def test_shape_and_bounds(self):
        ws = WorkloadStream.generate(200, seed=0)
        assert ws.profile.shape == (200, NUM_RESOURCES)
        assert (ws.profile >= 0).all() and (ws.profile <= 1).all()

    def test_at_clamps_past_end(self):
        ws = WorkloadStream.generate(50, seed=1)
        np.testing.assert_array_equal(ws.at(49), ws.at(1000))

    def test_at_refuses_a_negative_round(self):
        # a negative index would wrap to the final row
        ws = WorkloadStream.generate(50, seed=1)
        with pytest.raises(ConfigurationError, match="round must be >= 0"):
            ws.at(-1)

    def test_history_window(self):
        ws = WorkloadStream.generate(100, seed=2)
        h = ws.history(30, 10)
        assert h.shape == (10, NUM_RESOURCES)
        np.testing.assert_array_equal(h[-1], ws.at(30))
        # early history shrinks instead of wrapping
        assert ws.history(3, 10).shape == (4, NUM_RESOURCES)

    def test_ramp_injection_crosses_threshold(self):
        ws = WorkloadStream.generate(
            200, ramps=[(0, 120, 30, 0.9)], seed=3, base_level=0.3
        )
        assert ws.profile[160, 0] > 0.85
        assert ws.profile[100, 0] < 0.85

    def test_rejects_unknown_resource(self):
        with pytest.raises(ConfigurationError):
            WorkloadStream.generate(50, ramps=[(9, 0, 5, 0.5)])

    def test_rejects_bad_profile(self):
        with pytest.raises(ConfigurationError):
            WorkloadStream(profile=np.ones((10, 2)))
        with pytest.raises(ConfigurationError):
            WorkloadStream(profile=np.full((10, NUM_RESOURCES), 1.5))

    def test_deterministic(self):
        a = WorkloadStream.generate(64, seed=5)
        b = WorkloadStream.generate(64, seed=5)
        np.testing.assert_array_equal(a.profile, b.profile)


class TestGenerateStreams:
    def test_batch_shape_and_bounds(self):
        from repro.traces.workload import generate_streams

        streams = generate_streams(12, 80, seed=1)
        assert len(streams) == 12
        for s in streams:
            assert s.profile.shape == (80, NUM_RESOURCES)
            assert (s.profile >= 0).all() and (s.profile <= 1).all()

    def test_batch_deterministic(self):
        from repro.traces.workload import generate_streams

        a = generate_streams(5, 40, seed=9)
        b = generate_streams(5, 40, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.profile, y.profile)

    def test_streams_differ_within_batch(self):
        from repro.traces.workload import generate_streams

        a, b = generate_streams(2, 60, seed=3)
        assert not np.allclose(a.profile, b.profile)

    def test_batch_statistics_match_single_recipe(self):
        """Batch and single-stream paths share the same distribution."""
        from repro.traces.workload import generate_streams

        batch = generate_streams(300, 96, seed=4, burst_rate=0.0)
        singles = [
            WorkloadStream.generate(96, seed=400 + i, burst_rate=0.0)
            for i in range(60)
        ]
        mb = np.mean([s.profile.mean() for s in batch])
        ms = np.mean([s.profile.mean() for s in singles])
        assert abs(mb - ms) < 0.05

    def test_empty_batch(self):
        from repro.traces.workload import generate_streams

        assert generate_streams(0, 50) == []

    def test_validation(self):
        from repro.traces.workload import generate_streams

        with pytest.raises(ConfigurationError):
            generate_streams(-1, 50)
        with pytest.raises(ConfigurationError):
            generate_streams(3, 0)


def _generate_profiles_frozen(count, length, *, burst_rate, seed):
    """The batch recipe as it stood before its temporaries were removed.

    A frozen copy (defaults inlined): three ``(count, length)`` temporaries
    per resource and a burst filter that runs even over an all-zero matrix.
    """
    from scipy.signal import lfilter

    from repro.traces.diurnal import diurnal_pattern

    rng = np.random.default_rng(seed)
    profiles = np.empty((count, length, NUM_RESOURCES))
    for r in range(NUM_RESOURCES):
        base = diurnal_pattern(
            length, 96, base=0.45, amplitude=0.15,
            peak_phase=0.5 + 0.05 * r, sharpness=1.4,
        )
        eps = rng.normal(0.0, 0.03, size=(count, length))
        wander = lfilter([1.0], [1.0, -0.85], eps, axis=1)
        starts = rng.random((count, length)) < burst_rate
        heights = np.where(starts, rng.exponential(0.12, size=(count, length)), 0.0)
        bursts = lfilter([1.0], [1.0, -0.5], heights, axis=1)
        profiles[:, :, r] = base[None, :] + wander + bursts
    np.clip(profiles, 0.0, 1.0, out=profiles)
    return profiles


@pytest.mark.parametrize("burst_rate", [0.0, 0.01])
def test_generate_streams_bit_equal_to_frozen_recipe(burst_rate):
    from repro.traces.workload import generate_streams

    want = _generate_profiles_frozen(40, 300, burst_rate=burst_rate, seed=9)
    got = generate_streams(40, 300, burst_rate=burst_rate, seed=9)
    # bytes, not values (the sign of a zero counts); resources 1..3 also
    # show that every draw is still made when no burst can start
    for i, stream in enumerate(got):
        assert stream.profile.tobytes() == want[i].tobytes()
