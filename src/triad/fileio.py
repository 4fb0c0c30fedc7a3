"""Bit-exact readers and writers for every artifact the pipeline exchanges.

Formats:
  .flo  -- 4-byte magic "PIEH", little-endian int32 width/height, then
           interleaved float32 (u, v) rows top-to-bottom. Components with
           magnitude above 1e9 mark invalid pixels.
  .pfm  -- "Pf" (1 channel) or "PF" (3 channels), "<width> <height>",
           scale line whose sign encodes endianness (negative = little),
           then float32 scanlines stored bottom-to-top. Converted to the
           internal top-to-bottom convention on read. NaN marks invalid.
  .pgm  -- binary P5, 8- or 16-bit (16-bit big-endian per the format),
           scaled to [0, 1] floats on read; always written 16-bit.
  trajectory -- text lines "t tx ty tz qx qy qz qw" (world-from-camera),
           strictly increasing timestamps.
  intrinsics -- single text line "fx fy cx cy width height".

Every binary payload's size is checked against the file before its raster
is allocated, so a header that promises more than the file holds is a
FormatError. A .flo file can also be read a band of rows at a time; each
such read opens and closes the file and makes the same checks (see
read_flow). Every file triad writes goes through one writer, ``write_file``,
which makes the file's directory on the first write into it. Everything here
is a pure function; concurrent reads of distinct files are safe. Internal
rasters are row-major, top-to-bottom, everywhere.
"""

from __future__ import annotations

import io
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .geometry import (
    Intrinsics,
    RelativePose,
    Trajectory,
    quaternion_to_rotation,
    rotation_to_quaternion,
)

FLO_MAGIC = b"PIEH"


def _payload(
    f: io.BufferedReader, path, shape: tuple[int, ...], dtype, what: str, rows: slice | None = None
) -> np.ndarray:
    """The rest of an open file, or its ``rows`` (a slice of the first axis, step 1), read straight into a new array.

    The whole payload's size is checked against the file before any array is
    allocated, whichever rows are asked for, and the rows are then copied
    once on their way out of the kernel.
    """
    dtype = np.dtype(dtype)
    first, last, step = (slice(None) if rows is None else rows).indices(shape[0])
    if step != 1:
        raise ValueError(f"rows must be a slice with step 1, got {rows}")
    start = f.tell()
    row_bytes = dtype.itemsize * math.prod(shape[1:])
    expected = start + row_bytes * shape[0]
    # the file size is checked before the array is allocated, so a corrupt
    # header cannot ask for more memory than the file could fill
    size = os.fstat(f.fileno()).st_size
    if size >= expected:
        values = np.empty((max(0, last - first), *shape[1:]), dtype=dtype)
        offset = start + first * row_bytes
        f.seek(offset)
        # short only when the file shrank after its size was read
        size = offset + f.readinto(values)
        expected = offset + values.nbytes
    if size < expected:
        raise FormatError(f"{path}: truncated {what} payload ({size} < {expected} bytes)")
    return values


def write_file(path, header: bytes, payload=None, dtype=None) -> None:
    """Replace path with header and then the payload, making its directory if it is missing.

    A dtype or layout conversion is the only copy made of the payload.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(header)
        if payload is not None:
            f.write(np.ascontiguousarray(payload, dtype=dtype))


def write_lines(path, lines) -> None:
    """Write text lines as UTF-8, each ended by "\n" on every platform."""
    write_file(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))


def _flow_shape(f: io.BufferedReader, path) -> tuple[int, int, int]:
    """The (H, W, 2) raster shape an open .flo file's header declares, checked; the file is left at the payload."""
    header = f.read(12)
    if header[:4] != FLO_MAGIC:
        raise FormatError(f"{path}: bad flow magic {header[:4]!r}")
    if len(header) < 12:
        raise FormatError(f"{path}: truncated flow header")
    w, h = struct.unpack_from("<2i", header, 4)
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: invalid flow dimensions {w}x{h}")
    return h, w, 2


def read_flow(path, rows: slice | None = None) -> np.ndarray:
    """Read a .flo file into a (H, W, 2) float32 raster (sentinels preserved).

    With ``rows``, a slice of rows with step 1, only those rows are read, and
    the result is ``read_flow(path)[rows]``. The header and the whole file's
    size are checked either way, with the same messages. The file is open
    only for the call.
    """
    with open(path, "rb") as f:
        shape = _flow_shape(f, path)
        flow = _payload(f, path, shape, "<f4", "flow", rows)
    return flow.astype(np.float32, copy=False)


def flow_size(path) -> tuple[int, int]:
    """(width, height) of a .flo file, after every check read_flow makes before it reads a row."""
    with open(path, "rb") as f:
        h, w, _ = shape = _flow_shape(f, path)
        _payload(f, path, shape, "<f4", "flow", slice(0, 0))
    return w, h


def write_flow(flow: np.ndarray, path) -> None:
    flow = np.asarray(flow)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise FormatError(f"flow raster must have shape (H, W, 2), got {flow.shape}")
    h, w = flow.shape[:2]
    write_file(path, FLO_MAGIC + np.array([w, h], dtype="<i4").tobytes(), flow, "<f4")


def _read_pnm_token(f: io.BufferedReader, path) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comment lines."""
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise FormatError(f"{path}: truncated header")
        if c == b"#" and not tok:
            while c not in (b"\n", b""):
                c = f.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def _read_pnm_header(f: io.BufferedReader, path, kind: str, magics, parse, accept):
    """(magic, width, height, fourth token through ``parse``) of a PFM or PGM header, each checked."""
    magic = _read_pnm_token(f, path)
    if magic not in magics:
        raise FormatError(f"{path}: bad {kind} magic {magic!r}")
    try:
        w = int(_read_pnm_token(f, path))
        h = int(_read_pnm_token(f, path))
        value = parse(_read_pnm_token(f, path))
    except ValueError as e:
        raise FormatError(f"{path}: malformed {kind} header ({e})") from e
    if w <= 0 or h <= 0 or not accept(value):
        raise FormatError(f"{path}: malformed {kind} header values")
    return magic, w, h, value


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into a (H, W) or (H, W, 3) float32 raster, top-to-bottom.

    The result may be a row-flipped view of the payload as read; only a
    big-endian file's payload is converted.
    """
    with open(path, "rb") as f:
        magic, w, h, scale = _read_pnm_header(f, path, "PFM", (b"Pf", b"PF"), float, lambda s: 0 < abs(s) < math.inf)
        shape = (h, w) if magic == b"Pf" else (h, w, 3)
        arr = _payload(f, path, shape, "<f4" if scale < 0 else ">f4", "PFM")
    # PFM scanlines run bottom-to-top; flip to the internal convention.
    return np.flipud(arr).astype(np.float32, copy=False)


def write_pfm(img: np.ndarray, path) -> None:
    """Write a (H, W) or (H, W, 3) raster as little-endian float32 PFM, bottom row first.

    One pass flips the rows and rounds to float32, and the file is written
    from that array directly, so float64 maps need no conversion beforehand.
    """
    img = np.asarray(img)
    if img.ndim != 2 and img.shape[2:] != (3,):
        raise FormatError(f"PFM rasters must be (H, W) or (H, W, 3), got {img.shape}")
    h, w = img.shape[:2]
    magic = "Pf" if img.ndim == 2 else "PF"
    write_file(path, f"{magic}\n{w} {h}\n-1.0\n".encode("ascii"), np.flipud(img), "<f4")


def read_image(path) -> np.ndarray:
    """Read a binary PGM (P5) into a (H, W) float64 raster scaled to [0, 1]."""
    with open(path, "rb") as f:
        _, w, h, maxval = _read_pnm_header(f, path, "PGM", (b"P5",), int, lambda m: 0 < m < 65536)
        values = _payload(f, path, (h, w), "u1" if maxval < 256 else ">u2", "PGM")
    return values.astype(np.float64) / maxval


def write_image(img: np.ndarray, path) -> None:
    """Write a (H, W) raster in [0, 1] (clipped) as a 16-bit binary PGM (P5)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise FormatError(f"PGM rasters must be (H, W), got {img.shape}")
    quantized = np.rint(np.clip(img, 0.0, 1.0) * 65535)
    h, w = img.shape
    write_file(path, f"P5\n{w} {h}\n65535\n".encode("ascii"), quantized, ">u2")


def read_intrinsics(path) -> Intrinsics:
    with open(path, "r", encoding="ascii") as f:
        tokens = f.read().split()
    if len(tokens) != 6:
        raise FormatError(f"{path}: expected 6 intrinsics values, got {len(tokens)}")
    try:
        fx, fy, cx, cy = (float(t) for t in tokens[:4])
        width, height = int(tokens[4]), int(tokens[5])
    except ValueError as e:
        raise FormatError(f"{path}: malformed intrinsics ({e})") from e
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)


def write_intrinsics(k: Intrinsics, path) -> None:
    write_lines(path, [f"{k.fx:.17g} {k.fy:.17g} {k.cx:.17g} {k.cy:.17g} {k.width} {k.height}"])


def read_trajectory(path) -> Trajectory:
    """Read TUM-style "t tx ty tz qx qy qz qw" lines into world-from-camera poses; at least one."""
    timestamps: list[float] = []
    poses: list[RelativePose] = []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise FormatError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                t, tx, ty, tz, qx, qy, qz, qw = (float(p) for p in parts)
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: malformed number ({e})") from e
            qnorm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
            if abs(qnorm - 1.0) > 1e-3:
                raise FormatError(f"{path}:{lineno}: quaternion norm {qnorm!r} too far from 1")
            if timestamps and t <= timestamps[-1]:
                raise FormatError(f"{path}:{lineno}: timestamps must be strictly increasing")
            timestamps.append(t)
            poses.append(RelativePose(quaternion_to_rotation(qx, qy, qz, qw), (tx, ty, tz)))
    if not poses:
        raise FormatError(f"{path}: no poses")
    return Trajectory(np.array(timestamps), tuple(poses))


def write_trajectory(traj: Trajectory, path) -> None:
    poses = zip(traj.timestamps, traj.poses)
    rows = ((t, *pose.translation, *rotation_to_quaternion(pose.rotation)) for t, pose in poses)
    write_lines(path, [" ".join(f"{v:.17g}" for v in row) for row in rows])
