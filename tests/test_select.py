import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triad import (
    InputError,
    SelectionPolicy,
    relative_angle_translation,
    select_frames,
)
from triad.synth import constant_velocity_trajectory, stop_and_go_trajectory

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reference_scan(traj, keyframe, policy):
    """Straightforward reimplementation of the adaptive outward scan."""
    accepted = []
    last = {-1: keyframe, +1: keyframe}
    n = len(traj)
    for offset in range(1, n):
        if len(accepted) >= policy.n_frames - 1:
            break
        for side in (-1, +1):
            if len(accepted) >= policy.n_frames - 1:
                break
            idx = keyframe + side * offset
            if not (0 <= idx < n):
                continue
            anchor = keyframe if policy.anchor == "keyframe" else last[side]
            angle, dist = relative_angle_translation(traj.poses[idx], traj.poses[anchor])
            if angle >= policy.theta_min or dist >= policy.t_min:
                accepted.append(idx)
                last[side] = idx
    return sorted(accepted)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="nearest"),
            dict(n_frames=1),
            dict(fixed_step=0),
            dict(theta_min=-0.1),
            dict(t_min=-1.0),
            dict(theta_min=float("nan")),
            dict(t_min=float("nan")),
            dict(anchor="middle"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InputError):
            SelectionPolicy(**kwargs)


class TestFixedPolicy:
    def test_middle_image_protocol(self):
        traj = constant_velocity_trajectory(30, velocity=(0.01, 0, 0))
        policy = SelectionPolicy(mode="fixed", n_frames=5, fixed_step=5)
        selection = select_frames(traj, 15, policy)
        assert selection.indices == (5, 10, 20, 25)
        assert not selection.shortfall

    def test_truncation_at_sequence_start(self):
        traj = constant_velocity_trajectory(30, velocity=(0.01, 0, 0))
        policy = SelectionPolicy(mode="fixed", n_frames=5, fixed_step=5)
        selection = select_frames(traj, 4, policy)
        assert selection.indices == (9, 14)  # both "before" slots fall off the sequence
        assert selection.shortfall

    def test_even_frame_count_puts_extra_frame_after(self):
        traj = constant_velocity_trajectory(20, velocity=(0.01, 0, 0))
        policy = SelectionPolicy(mode="fixed", n_frames=4, fixed_step=2)
        selection = select_frames(traj, 10, policy)
        assert selection.indices == (8, 12, 14)

    def test_keyframe_out_of_range(self):
        traj = constant_velocity_trajectory(5, velocity=(0.01, 0, 0))
        with pytest.raises(InputError):
            select_frames(traj, 5, SelectionPolicy())


class TestAdaptivePolicy:
    def test_stationary_trajectory_accepts_nothing(self):
        traj = constant_velocity_trajectory(20, velocity=(0.0, 0.0, 0.0))
        policy = SelectionPolicy(mode="adaptive", n_frames=5, theta_min=0.05, t_min=0.05)
        selection = select_frames(traj, 10, policy)
        assert selection.indices == ()
        assert selection.shortfall

    def test_equals_fixed_on_constant_velocity(self):
        # dyadic speed keeps the distance comparisons exact in floating point
        speed, step = 0.0625, 2
        traj = constant_velocity_trajectory(30, velocity=(speed, 0, 0))
        adaptive = SelectionPolicy(
            mode="adaptive", n_frames=5, theta_min=np.pi, t_min=speed * step
        )
        fixed = SelectionPolicy(mode="fixed", n_frames=5, fixed_step=step)
        for keyframe in (6, 10, 15, 22):
            got = select_frames(traj, keyframe, adaptive)
            want = select_frames(traj, keyframe, fixed)
            assert got.indices == want.indices

    @given(seeds)
    @settings(max_examples=40)
    def test_matches_reference_scan_on_stop_and_go(self, seed):
        rng = np.random.default_rng(seed)
        move = int(rng.integers(1, 4))
        dwell = int(rng.integers(0, 5))
        n = int(rng.integers(8, 40))
        traj = stop_and_go_trajectory(n, velocity=(0.08, 0, 0), move=move, dwell=dwell)
        keyframe = int(rng.integers(0, n))
        policy = SelectionPolicy(
            mode="adaptive",
            n_frames=int(rng.integers(2, 8)),
            theta_min=0.05,
            t_min=float(rng.uniform(0.01, 0.2)),
        )
        selection = select_frames(traj, keyframe, policy)
        assert list(selection.indices) == reference_scan(traj, keyframe, policy)
        assert selection.shortfall == (len(selection.indices) < policy.n_frames - 1)

    @given(seeds)
    @settings(max_examples=25)
    def test_consecutive_accepted_frames_clear_thresholds(self, seed):
        rng = np.random.default_rng(seed)
        traj = stop_and_go_trajectory(
            30, velocity=(0.06, 0, 0), move=int(rng.integers(1, 3)), dwell=int(rng.integers(0, 4))
        )
        keyframe = int(rng.integers(0, 30))
        policy = SelectionPolicy(mode="adaptive", n_frames=7, theta_min=0.02, t_min=0.09)
        selection = select_frames(traj, keyframe, policy)
        before = [i for i in selection.indices if i < keyframe][::-1]
        after = [i for i in selection.indices if i > keyframe]
        for side in (before, after):
            anchor = keyframe
            for idx in side:
                angle, dist = relative_angle_translation(traj.poses[idx], traj.poses[anchor])
                assert angle >= policy.theta_min or dist >= policy.t_min
                anchor = idx

    def test_output_sorted_and_deterministic(self):
        traj = stop_and_go_trajectory(25, velocity=(0.05, 0, 0), move=1, dwell=3)
        policy = SelectionPolicy(mode="adaptive", n_frames=5, theta_min=0.05, t_min=0.04)
        a = select_frames(traj, 12, policy)
        b = select_frames(traj, 12, policy)
        assert a == b
        assert list(a.indices) == sorted(a.indices)
        assert 12 not in a.indices

    def test_anchor_keyframe_differs_from_previous(self):
        # t_min = 1.5 steps: measuring against the keyframe accepts consecutive
        # far frames; measuring against the last accepted frame must skip ahead
        speed = 0.0625
        traj = constant_velocity_trajectory(40, velocity=(speed, 0, 0))
        base = dict(mode="adaptive", n_frames=5, theta_min=np.pi, t_min=1.5 * speed)
        keyframe = 20
        previous = select_frames(traj, keyframe, SelectionPolicy(**base, anchor="previous"))
        anchored = select_frames(traj, keyframe, SelectionPolicy(**base, anchor="keyframe"))
        assert previous.indices == (16, 18, 22, 24)
        assert anchored.indices == (17, 18, 22, 23)
