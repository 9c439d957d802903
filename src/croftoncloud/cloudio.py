"""Point cloud file formats: XYZ text and PLY (ascii / binary little endian).

Positions and normals are written as float64.  XYZ and ASCII PLY share one
numpy text codec: :func:`_write_rows` prints a row block with 17
significant digits, which round-trips doubles exactly, in one format
operation, and :func:`_read_rows` parses it with ``np.loadtxt``.  So a
write/read/write cycle is byte-identical in every format.  Run metadata
(seed, surface, sampler, ...) travels in '#' comment lines (XYZ) or
'comment' header lines (PLY).
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

__all__ = ["write_xyz", "read_xyz", "write_ply", "read_ply", "write_cloud", "read_cloud"]

#: an XYZ comment line, from the newline before it, capturing the text after its first '#'
_XYZ_COMMENT = re.compile(r"\n[^\S\n]*#(.*)")
#: rows per format operation; bounds the writer's temporary strings to a few MB
_WRITE_BLOCK = 16384


def _meta(comments) -> dict:
    """The 'key=value' comment texts as a dict; comments without '=' carry none."""
    pairs = (comment.partition("=") for comment in comments)
    return {key.strip(): value.strip() for key, eq, value in pairs if eq}


def _stack(positions, normals) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    return positions if normals is None else np.hstack([positions, np.asarray(normals, dtype=np.float64)])


def _write_rows(fh, data: np.ndarray) -> None:
    """One line of space-separated ``%.17g`` values per row of *data*, one format operation per block."""
    row = " ".join(["%.17g"] * data.shape[1]) + "\n"
    for start in range(0, len(data), _WRITE_BLOCK):
        block = data[start : start + _WRITE_BLOCK]
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _read_rows(body: str, widths: tuple, where) -> np.ndarray:
    """Whitespace-separated rows of *body* as an (m, w) float64 array, w in *widths*.

    Blank lines are skipped; a body without rows gives ``(0, widths[0])``.
    A rejected body raises naming ``where(line number, character offset)``
    of its first row that numpy rejects alone or whose width does not fit.
    """
    if not body or body.isspace():
        return np.empty((0, widths[0]))
    lines = body.splitlines()
    try:
        data = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        if data.shape[1] in widths:
            return data
    except ValueError:
        pass
    offset, width = 0, None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if parts:
            width = width or len(parts)
            try:
                if len(parts) != width or width not in widths:
                    raise ValueError
                np.loadtxt([line], dtype=np.float64, comments=None)
            except ValueError:
                raise ValueError(f"{where(lineno, offset)}: malformed row {line.strip()!r}") from None
        offset += len(line) + 1
    raise ValueError(f"{where(lineno, offset)}: malformed rows")


def write_xyz(path: str, positions: np.ndarray, normals: Optional[np.ndarray] = None, meta: Optional[dict] = None) -> None:
    """One 'x y z [nx ny nz]' line per point, after '# key=value' headers."""
    data = _stack(positions, normals)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        _write_rows(fh, data)


def read_xyz(path: str):
    """Returns (positions, normals or None, meta dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # comment texts at odd places; the even ones joined by newlines give the body with comment lines blanked
    pieces = _XYZ_COMMENT.split("\n" + text)
    meta = _meta(comment.lstrip("#") for comment in pieces[1::2])
    data = _read_rows("\n".join(pieces[::2])[1:], (3, 6), lambda lineno, _: f"{path}:{lineno}")
    return data[:, :3], data[:, 3:] if data.shape[1] == 6 else None, meta


_PLY_PROPS_PLAIN = ["x", "y", "z"]
_PLY_PROPS_NORMAL = ["x", "y", "z", "nx", "ny", "nz"]


def write_ply(
    path: str,
    positions: np.ndarray,
    normals: Optional[np.ndarray] = None,
    meta: Optional[dict] = None,
    binary: bool = False,
) -> None:
    """Standard PLY with float64 vertex properties (and normals when given)."""
    data = _stack(positions, normals)
    props = _PLY_PROPS_PLAIN if normals is None else _PLY_PROPS_NORMAL
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0"]
    header += [f"comment {key}={value}" for key, value in (meta or {}).items()]
    header.append(f"element vertex {len(data)}")
    header += [f"property double {name}" for name in props]
    header.append("end_header")
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(data.astype("<f8").tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(header) + "\n")
            _write_rows(fh, data)


def read_ply(path: str):
    """Returns (positions, normals or None, meta dict); raises on truncation."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"end_header\n")
    if end < 0:
        raise ValueError(f"{path}: missing end_header")
    body_offset = end + len(b"end_header\n")
    header_lines = raw[:end].decode("ascii", errors="replace").splitlines()
    if not header_lines or header_lines[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    fmt = None
    count = None
    props: list[str] = []
    for line in header_lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            if parts[1] != "vertex":
                raise ValueError(f"{path}: unsupported element {parts[1]!r}")
            count = int(parts[2])
        elif parts[0] == "property":
            if parts[1] != "double":
                raise ValueError(f"{path}: unsupported property type {parts[1]!r}")
            props.append(parts[2])
    if fmt not in ("ascii", "binary_little_endian"):
        raise ValueError(f"{path}: unsupported format {fmt!r}")
    if count is None:
        raise ValueError(f"{path}: missing vertex element")
    if props not in (_PLY_PROPS_PLAIN, _PLY_PROPS_NORMAL):
        raise ValueError(f"{path}: unsupported property list {props}")
    width = len(props)
    if fmt == "binary_little_endian":
        expected = count * width * 8
        available = len(raw) - body_offset
        if available < expected:
            raise ValueError(
                f"{path}: truncated at byte offset {len(raw)}; "
                f"expected {expected} payload bytes after offset {body_offset}, found {available}"
            )
        data = np.frombuffer(raw, dtype="<f8", count=count * width, offset=body_offset)
        data = data.reshape(count, width).astype(np.float64)
    else:
        body = raw[body_offset:].decode("ascii", errors="replace")
        data = _read_rows(body, (width,), lambda _, offset: f"{path}: byte offset {body_offset + offset}")
        if len(data) != count:
            raise ValueError(
                f"{path}: truncated at byte offset {len(raw)}; "
                f"header promised {count} vertices, found {len(data)}"
            )
    comments = (line.split(None, 1)[-1] for line in header_lines if line.split()[:1] == ["comment"])
    return data[:, :3], data[:, 3:] if width == 6 else None, _meta(comments)


def write_cloud(path: str, positions, normals=None, meta=None, fmt: str = "auto", binary: bool = False) -> None:
    """Dispatch on *fmt* or the path extension ('.xyz' / '.ply')."""
    if fmt == "auto":
        fmt = "ply" if path.lower().endswith(".ply") else "xyz"
    if fmt == "xyz":
        write_xyz(path, positions, normals, meta)
    elif fmt == "ply":
        write_ply(path, positions, normals, meta, binary=binary)
    else:
        raise ValueError(f"unknown cloud format {fmt!r}")


def read_cloud(path: str):
    """Read either format by extension; returns (positions, normals, meta)."""
    if path.lower().endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)
