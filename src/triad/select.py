"""Adjacent-frame selection around a keyframe: fixed interval or motion-adaptive.

The fixed policy takes frames at keyframe +/- j * step, split evenly around
the keyframe (the middle-image convention). The adaptive policy scans outward
from the keyframe, alternating before/after, and accepts a frame once its
relative rotation or translation w.r.t. the last accepted frame on that side
clears a threshold; this skips the zero-baseline frames that a fixed stride
picks up whenever the camera dwells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .geometry import Trajectory, relative_angle_translation


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick the adjacent frames for one keyframe.

    n_frames counts the keyframe itself, so n_frames - 1 adjacent frames are
    sought. The rotation/translation thresholds combine with OR, so pure
    rotations and pure translations both trigger acceptance. ``anchor``
    selects what adaptive thresholds are measured against: the previously
    accepted frame on the same side (default) or always the keyframe.
    """

    mode: str = "fixed"
    n_frames: int = 5
    fixed_step: int = 1
    theta_min: float = 0.05  # radians
    t_min: float = 0.05  # meters
    anchor: str = "previous"

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise InputError(f"unknown selection mode {self.mode!r}")
        if self.n_frames < 2:
            raise InputError("n_frames must be at least 2")
        if self.fixed_step < 1:
            raise InputError("fixed_step must be at least 1")
        if not (self.theta_min >= 0 and self.t_min >= 0):  # NaN fails too
            raise InputError("thresholds must be nonnegative")
        if self.anchor not in ("previous", "keyframe"):
            raise InputError(f"unknown anchor {self.anchor!r}")


@dataclass(frozen=True)
class Selection:
    """Chosen adjacent frame indices (ascending) and whether the target count was met."""

    indices: tuple[int, ...]
    shortfall: bool


def _clears_threshold(traj: Trajectory, i: int, j: int, policy: SelectionPolicy) -> bool:
    angle, dist = relative_angle_translation(traj.poses[i], traj.poses[j])
    return angle >= policy.theta_min or dist >= policy.t_min


def select_frames(traj: Trajectory, keyframe_index: int, policy: SelectionPolicy) -> Selection:
    """Pick up to n_frames - 1 adjacent frames for the keyframe under the policy.

    Returns fewer indices (possibly none) with the shortfall flag set when the
    sequence is exhausted first. Output indices are sorted ascending and never
    include the keyframe.
    """
    n = len(traj)
    if not (0 <= keyframe_index < n):
        raise InputError(f"keyframe index {keyframe_index} out of range [0, {n})")
    wanted = policy.n_frames - 1

    if policy.mode == "fixed":
        n_before = wanted // 2
        steps = (keyframe_index + policy.fixed_step * j for j in range(-n_before, wanted - n_before + 1) if j)
        chosen = [index for index in steps if 0 <= index < n]
        return Selection(tuple(chosen), shortfall=len(chosen) < wanted)

    accepted: list[int] = []
    last_accepted = {-1: keyframe_index, +1: keyframe_index}  # per side
    # outward by offset, the frame before the keyframe first at each offset
    scan = ((side, keyframe_index + side * offset) for offset in range(1, n) for side in (-1, +1))
    for side, candidate in scan:
        if len(accepted) == wanted:
            break
        if not (0 <= candidate < n):
            continue
        anchor = keyframe_index if policy.anchor == "keyframe" else last_accepted[side]
        if _clears_threshold(traj, candidate, anchor, policy):
            accepted.append(candidate)
            last_accepted[side] = candidate
    return Selection(tuple(sorted(accepted)), shortfall=len(accepted) < wanted)
