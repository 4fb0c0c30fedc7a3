import ast
import math
from pathlib import Path

import numpy as np
import pytest

import triad.workers as workers_module
from triad import FlowField, FormatError
from triad.fileio import (
    FLO_MAGIC,
    flow_size,
    read_flow,
    read_image,
    read_intrinsics,
    read_pfm,
    read_trajectory,
    write_flow,
    write_image,
    write_intrinsics,
    write_lines,
    write_pfm,
    write_trajectory,
)
from triad.geometry import Intrinsics, RelativePose, Trajectory, quaternion_to_rotation

from helpers import compose, inverse, poison_flow, pose_matrix, random_pose, traced_peak


class TestFlo:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        flow = rng.uniform(-50, 50, (13, 17, 2)).astype(np.float32)
        flow[3, 4] = 1e10  # invalid sentinel
        path = tmp_path / "f.flo"
        write_flow(flow, path)
        again = read_flow(path)
        assert again.dtype == np.float32
        assert np.array_equal(flow, again)
        write_flow(again, tmp_path / "g.flo")
        assert (tmp_path / "f.flo").read_bytes() == (tmp_path / "g.flo").read_bytes()

    def test_one_pixel_file_is_20_bytes(self, tmp_path):
        path = tmp_path / "tiny.flo"
        write_flow(np.zeros((1, 1, 2), dtype=np.float32), path)
        assert path.stat().st_size == 20  # 4 magic + 4 width + 4 height + 8 payload

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(b"XXXX" + np.array([1, 1], dtype="<i4").tobytes() + b"\0" * 8)
        with pytest.raises(FormatError):
            read_flow(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.flo"
        write_flow(np.zeros((4, 4, 2), dtype=np.float32), path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            read_flow(path)

    def test_writer_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(FormatError):
            write_flow(np.zeros((4, 4)), tmp_path / "x.flo")

    def test_nan_components_read_as_invalid(self):
        raster = np.zeros((2, 2, 2), dtype=np.float32)
        raster[0, 0, 0] = np.nan
        field = FlowField.from_raster(raster)
        assert not field.valid[0, 0]
        assert field.valid[1, 1]

    def test_sentinels_survive_field_round_trip(self, tmp_path):
        vectors = np.zeros((4, 5, 2))
        vectors[1, 2] = (3.5, -2.0)
        valid = np.ones((4, 5), dtype=bool)
        valid[0, 0] = False
        field = FlowField(vectors, valid)
        path = tmp_path / "field.flo"
        write_flow(field.to_raster(), path)
        again = FlowField.from_raster(read_flow(path))
        assert np.array_equal(again.valid, valid)
        assert np.allclose(again.vectors[valid], vectors[valid])


class TestFloReadInPlace:
    """read_flow reads the payload straight into its result, with the same checks and messages.

    The PFM and PGM readers share its payload read, so each of them checks
    the file size before it allocates too.
    """

    @staticmethod
    def _message(path, data):
        path.write_bytes(data)
        with pytest.raises(FormatError) as caught:
            read_flow(path)
        return str(caught.value)

    def test_error_messages_unchanged(self, tmp_path):
        path = tmp_path / "f.flo"
        header = FLO_MAGIC + np.array([3, 2], dtype="<i4").tobytes()
        assert self._message(path, b"XXXX" + header[4:]) == f"{path}: bad flow magic b'XXXX'"
        assert self._message(path, b"PI") == f"{path}: bad flow magic b'PI'"
        assert self._message(path, FLO_MAGIC + b"\0" * 7) == f"{path}: truncated flow header"
        zero = FLO_MAGIC + np.array([0, 2], dtype="<i4").tobytes()
        assert self._message(path, zero) == f"{path}: invalid flow dimensions 0x2"
        negative = FLO_MAGIC + np.array([3, -1], dtype="<i4").tobytes()
        assert self._message(path, negative + b"\0" * 8) == f"{path}: invalid flow dimensions 3x-1"
        short = header + b"\0" * 47
        assert self._message(path, short) == f"{path}: truncated flow payload (59 < 60 bytes)"

    def test_huge_header_on_short_file_is_truncated_payload(self, tmp_path):
        path = tmp_path / "huge.flo"
        header = FLO_MAGIC + np.array([2**31 - 1, 2**31 - 1], dtype="<i4").tobytes()
        expected = 12 + 8 * (2**31 - 1) ** 2
        message = self._message(path, header + b"\0" * 8)
        assert message == f"{path}: truncated flow payload (20 < {expected} bytes)"

    @pytest.mark.parametrize(
        "reader, data, message",
        [(read_pfm, b"Pf\n1000000 1000000\n-1.0\n" + b"\0" * 4, "truncated PFM payload (28 < 4000000000024 bytes)"),
         (read_image, b"P5\n1000000 1000000\n65535\n" + b"\0" * 2, "truncated PGM payload (27 < 2000000000025 bytes)")],
        ids=["pfm", "pgm"],
    )
    def test_huge_raster_header_on_short_file_is_truncated_payload(self, tmp_path, reader, data, message):
        # the traced peak catches an allocation the host would grant lazily
        path = tmp_path / "huge"
        path.write_bytes(data)

        def read():
            with pytest.raises(FormatError) as caught:
                reader(path)
            return caught

        caught, peak = traced_peak(read)
        assert str(caught.value) == f"{path}: {message}"
        assert peak < 1 << 20

    def test_result_is_writable_native_float32(self, tmp_path):
        rng = np.random.default_rng(5)
        flow = rng.uniform(-50, 50, (6, 9, 2)).astype(np.float32)
        path = tmp_path / "f.flo"
        write_flow(flow, path)
        # trailing bytes after the payload are ignored
        path.write_bytes(path.read_bytes() + b"tail")
        again = read_flow(path)
        assert again.dtype == np.float32 and again.dtype.isnative
        assert again.flags.writeable and again.flags.c_contiguous
        assert np.array_equal(again, flow)
        again[0, 0, 0] = 7.0  # writable without touching the file
        assert np.array_equal(read_flow(path), flow)


class TestFloBands:
    """read_flow(path, rows) reads only those rows, with every check of a whole read."""

    @pytest.mark.parametrize("band_pixels", [1, 17, 60, 1000, workers_module.BAND_PIXELS])
    def test_every_band_equals_those_rows_of_the_whole(self, tmp_path, monkeypatch, band_pixels):
        raster = np.random.default_rng(3).uniform(-50, 50, (13, 17, 2)).astype(np.float32)
        poison_flow(raster, np.random.default_rng(4))
        path = tmp_path / "f.flo"
        write_flow(raster, path)
        whole = read_flow(path)
        monkeypatch.setattr(workers_module, "BAND_PIXELS", band_pixels)
        bands = workers_module.row_bands(13, 17)
        for rows in [*bands, slice(None), slice(0, 0), slice(4, 100), slice(-3, None), slice(9, 2)]:
            band = read_flow(path, rows)
            assert band.dtype == np.float32 and band.flags.c_contiguous and band.flags.writeable
            assert band.shape == whole[rows].shape
            assert band.tobytes() == whole[rows].tobytes()

    def test_strided_rows_are_refused(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(np.zeros((4, 3, 2), dtype=np.float32), path)
        with pytest.raises(ValueError, match="step 1"):
            read_flow(path, slice(0, 4, 2))

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(0, 0), slice(1, 2)])
    def test_a_band_read_checks_the_whole_file(self, tmp_path, rows):
        # the short file holds the first row but not the whole payload
        path = tmp_path / "f.flo"
        header = FLO_MAGIC + np.array([3, 2], dtype="<i4").tobytes()
        path.write_bytes(header + b"\0" * 47)
        with pytest.raises(FormatError) as caught:
            read_flow(path, rows)
        assert str(caught.value) == f"{path}: truncated flow payload (59 < 60 bytes)"

    def test_flow_size_makes_every_check_read_flow_makes(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(np.zeros((5, 7, 2), dtype=np.float32), path)
        assert flow_size(path) == (7, 5)
        header = FLO_MAGIC + np.array([3, 2], dtype="<i4").tobytes()
        bad = [b"XXXX" + header[4:], b"PI", FLO_MAGIC + b"\0" * 7, FLO_MAGIC + np.array([0, 2], dtype="<i4").tobytes(),
               header + b"\0" * 47, FLO_MAGIC + np.array([2**31 - 1, 2**31 - 1], dtype="<i4").tobytes() + b"\0" * 8]
        for data in bad:
            path.write_bytes(data)
            with pytest.raises(FormatError) as want:
                read_flow(path)
            with pytest.raises(FormatError) as got:
                flow_size(path)
            assert str(got.value) == str(want.value)


class TestFromRasterLayout:
    def test_non_contiguous_raster_decodes_like_a_contiguous_one(self):
        rng = np.random.default_rng(6)
        raster = rng.uniform(-5, 5, (5, 7, 2)).astype(np.float32)
        raster[1, 2, 0] = np.nan
        raster[3, 4, 1] = 1e10
        want = FlowField.from_raster(raster)
        for view in (np.asfortranarray(raster), raster.transpose(1, 0, 2).copy().transpose(1, 0, 2)):
            got = FlowField.from_raster(view)
            assert np.array_equal(got.valid, want.valid)
            assert got.vectors.tobytes() == want.vectors.tobytes()
            assert not np.shares_memory(got.vectors, view)


class TestPfmWriteBytes:
    @pytest.mark.parametrize("shape", [(9, 7), (4, 5, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_equal_flipped_float32_payload(self, tmp_path, shape, dtype):
        rng = np.random.default_rng(7)
        img = rng.uniform(0.1, 10, shape).astype(dtype)
        img[1, 1] = np.nan
        path = tmp_path / "d.pfm"
        write_pfm(img, path)
        h, w = shape[:2]
        magic = b"Pf" if len(shape) == 2 else b"PF"
        payload = np.flipud(img.astype(np.float32)).astype("<f4").tobytes()
        assert path.read_bytes() == magic + f"\n{w} {h}\n-1.0\n".encode("ascii") + payload


def every_writer() -> dict:
    """A small file for every writer: {file name: write(path)}."""
    rng = np.random.default_rng(3)
    flow = rng.uniform(-1, 1, (3, 4, 2)).astype(np.float32)
    depth, image = rng.uniform(1, 2, (3, 4)), rng.uniform(0, 1, (3, 4))
    k = Intrinsics(100, 100, 16, 12, 32, 24)
    traj = Trajectory(np.array([0.0, 1.0]), (random_pose(rng), random_pose(rng)))
    return {
        "f.flo": lambda p: write_flow(flow, p),
        "d.pfm": lambda p: write_pfm(depth, p),
        "t.pgm": lambda p: write_image(image, p),
        "k.txt": lambda p: write_intrinsics(k, p),
        "t.txt": lambda p: write_trajectory(traj, p),
        "r.txt": lambda p: write_lines(p, ["[run]", "keyframe = 2", "ünïcode"]),
    }


class TestRewrite:
    def test_every_writer_shrinks_a_longer_file(self, tmp_path):
        for name, write in every_writer().items():
            fresh, reused = tmp_path / ("fresh_" + name), tmp_path / name
            reused.write_bytes(b"\xff" * 10_000)
            write(fresh)
            write(reused)
            assert reused.read_bytes() == fresh.read_bytes(), name


class TestOneWriter:
    def test_every_writer_makes_a_missing_directory(self, tmp_path):
        for name, write in every_writer().items():
            flat, nested = tmp_path / name, tmp_path / "new" / name / "deeper" / name
            write(flat)
            write(nested)
            assert nested.read_bytes() == flat.read_bytes(), name

    def test_text_is_utf8_with_newline_ends(self, tmp_path):
        write_lines(tmp_path / "r.txt", ["a = 1", "ü"])
        assert (tmp_path / "r.txt").read_bytes() == b"a = 1\n\xc3\xbc\n"

    def test_only_fileio_opens_a_file_for_writing(self):
        package = Path(__file__).resolve().parents[1] / "src" / "triad"
        writers = []
        for source in sorted(package.glob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for call in ast.walk(tree):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "open"):
                    continue
                modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
                mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
                if not set(mode) & set("wax+"):
                    continue
                scope = parents.get(call)
                while scope is not None and not isinstance(scope, ast.FunctionDef):
                    scope = parents.get(scope)
                writers.append((source.name, scope and scope.name))
        assert writers == [("fileio.py", "write_file")]


class TestPfm:
    def test_vga_read_holds_one_copy(self, tmp_path):
        path = tmp_path / "vga.pfm"
        write_pfm(np.random.default_rng(8).uniform(1, 4, (480, 640)), path)
        depth, peak = traced_peak(lambda: read_pfm(path))
        assert depth.dtype == np.float32 and depth.shape == (480, 640)
        assert peak <= 1.1 * depth.nbytes

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        depth = rng.uniform(0.1, 10, (9, 7)).astype(np.float32)
        depth[2, 2] = np.nan  # invalid-depth marker
        path = tmp_path / "d.pfm"
        write_pfm(depth, path)
        again = read_pfm(path)
        assert np.array_equal(depth, again, equal_nan=True)
        write_pfm(again, tmp_path / "e.pfm")
        assert (tmp_path / "d.pfm").read_bytes() == (tmp_path / "e.pfm").read_bytes()

    def test_crafted_header_two_by_two(self, tmp_path):
        values = np.array([1.0, 2.0, 3.0, 4.0], dtype="<f4")  # bottom row first
        path = tmp_path / "c.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + values.tobytes())
        img = read_pfm(path)
        assert img.shape == (2, 2)
        # file scanlines are bottom-to-top; internal rows are top-to-bottom
        assert np.array_equal(img, np.array([[3.0, 4.0], [1.0, 2.0]], dtype=np.float32))

    def test_positive_scale_is_big_endian(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.uniform(-5, 5, 6).astype(">f4")
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n3 2\n1.0\n" + values.tobytes())
        img = read_pfm(path)
        # byte-swap oracle: interpret the payload manually and flip rows
        want = np.flipud(values.astype("<f4").reshape(2, 3))
        assert np.array_equal(img, want)

    def test_three_channel_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, (4, 5, 3)).astype(np.float32)
        write_pfm(img, tmp_path / "rgb.pfm")
        assert np.array_equal(read_pfm(tmp_path / "rgb.pfm"), img)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Qf\n2 2\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_pfm(path)
        path.write_bytes(b"Pf\ntwo 2\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FormatError):
            read_pfm(path)
        for scale in (b"nan", b"inf", b"-inf"):
            path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + b"\0" * 16)
            with pytest.raises(FormatError, match="malformed PFM header values$"):
                read_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 15)
        with pytest.raises(FormatError):
            read_pfm(path)


class TestPgm:
    def test_file_level_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (6, 8))
        write_image(img, tmp_path / "a.pgm")
        first = read_image(tmp_path / "a.pgm")
        write_image(first, tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
        assert np.array_equal(read_image(tmp_path / "b.pgm"), first)

    def test_quantized_values_round_trip_exactly(self, tmp_path):
        levels = np.arange(0, 65536, 1009, dtype=np.float64)
        img = (levels / 65535.0).reshape(1, -1)
        write_image(img, tmp_path / "q.pgm")
        assert np.array_equal(read_image(tmp_path / "q.pgm"), img)

    def test_eight_bit(self, tmp_path):
        # written by hand: write_image always writes 16 bits
        (tmp_path / "b8.pgm").write_bytes(b"P5\n3 1\n255\n" + bytes([0, 128, 255]))
        got = read_image(tmp_path / "b8.pgm")
        assert got.shape == (1, 3)
        assert np.allclose(got, [[0.0, 128 / 255, 1.0]])

    def test_values_scaled_to_unit_interval(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (5, 5))
        write_image(img, tmp_path / "u.pgm")
        got = read_image(tmp_path / "u.pgm")
        assert got.min() >= 0.0 and got.max() <= 1.0
        assert np.abs(got - img).max() <= 0.5 / 65535 + 1e-12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 12)
        with pytest.raises(FormatError):
            read_image(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        assert np.array_equal(read_image(path), [[0.0, 1.0]])


class TestIntrinsicsIO:
    def test_round_trip(self, tmp_path):
        k = Intrinsics(458.654, 457.296, 367.215, 248.375, 752, 480)
        write_intrinsics(k, tmp_path / "k.txt")
        assert read_intrinsics(tmp_path / "k.txt") == k

    def test_wrong_field_count(self, tmp_path):
        (tmp_path / "k.txt").write_text("500 500 320 240 640\n")
        with pytest.raises(FormatError):
            read_intrinsics(tmp_path / "k.txt")


class TestTrajectoryIO:
    def test_identity_line(self, tmp_path):
        (tmp_path / "t.txt").write_text("0 0 0 0 0 0 0 1\n")
        traj = read_trajectory(tmp_path / "t.txt")
        assert len(traj) == 1
        assert np.array_equal(traj.poses[0].rotation, np.eye(3))
        assert np.array_equal(traj.poses[0].translation, np.zeros(3))

    def test_two_line_relative_pose_matches_compose_oracle(self, tmp_path):
        # frame 0 at the origin; frame 1 translated and yawed by 90 degrees
        s = math.sin(math.pi / 4)
        (tmp_path / "t.txt").write_text(
            "0 0 0 0 0 0 0 1\n" f"1 0.3 -0.1 0.2 0 {s} 0 {s}\n"
        )
        traj = read_trajectory(tmp_path / "t.txt")
        rel = traj.relative_pose(0, 1)
        w1 = RelativePose(quaternion_to_rotation(0, s, 0, s), (0.3, -0.1, 0.2))
        want = compose(traj.poses[0], inverse(w1))
        assert np.allclose(pose_matrix(rel), pose_matrix(want), atol=1e-12)

    def test_duplicate_timestamp(self, tmp_path):
        (tmp_path / "t.txt").write_text("0 0 0 0 0 0 0 1\n0 1 0 0 0 0 0 1\n")
        with pytest.raises(FormatError):
            read_trajectory(tmp_path / "t.txt")

    def test_decreasing_timestamp(self, tmp_path):
        (tmp_path / "t.txt").write_text("1 0 0 0 0 0 0 1\n0 1 0 0 0 0 0 1\n")
        with pytest.raises(FormatError):
            read_trajectory(tmp_path / "t.txt")

    def test_denormalized_quaternion_rejected(self, tmp_path):
        (tmp_path / "t.txt").write_text("0 0 0 0 0 0 0 1.1\n")
        with pytest.raises(FormatError):
            read_trajectory(tmp_path / "t.txt")

    def test_slightly_off_quaternion_renormalized(self, tmp_path):
        (tmp_path / "t.txt").write_text(f"0 0 0 0 0 0 0 {1 + 5e-4}\n")
        traj = read_trajectory(tmp_path / "t.txt")
        r = traj.poses[0].rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "t.txt").write_text("# header\n\n0 0 0 0 0 0 0 1\n")
        assert len(read_trajectory(tmp_path / "t.txt")) == 1

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        poses = tuple(random_pose(rng) for _ in range(4))
        traj = Trajectory(np.array([0.0, 0.5, 1.25, 4.0]), poses)
        write_trajectory(traj, tmp_path / "t.txt")
        again = read_trajectory(tmp_path / "t.txt")
        assert np.array_equal(traj.timestamps, again.timestamps)
        for a, b in zip(traj.poses, again.poses):
            assert np.allclose(pose_matrix(a), pose_matrix(b), atol=1e-12)
