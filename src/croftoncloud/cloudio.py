"""Point cloud file formats: XYZ text and PLY (ascii / binary little endian).

Positions and normals are written as float64.  :func:`_write_rows` prints
a row block with 17 significant digits, which round-trips doubles exactly,
in one format operation.  :func:`_load_rows` is the one reader of text rows
(XYZ, ASCII PLY and, through ``meshio``, ASCII STL): it streams them to
``np.loadtxt``, so no reader holds a whole file.  So a write/read/write
cycle is byte-identical in every format.  Run metadata (seed, surface,
sampler, ...) travels in '#' comment lines (XYZ) or 'comment' header lines
(PLY); a key or value that would not read back is refused.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import accumulate, chain
from operator import itemgetter
from typing import Optional

import numpy as np

__all__ = ["write_xyz", "read_xyz", "write_ply", "read_ply", "write_cloud", "read_cloud"]

#: rows per format operation; bounds the writer's temporary strings to a few MB
_WRITE_BLOCK = 16384


def _meta(comments) -> dict:
    """The 'key=value' comment texts as a dict; comments without '=' carry none."""
    pairs = (comment.partition("=") for comment in comments)
    return {key.strip(): value.strip() for key, eq, value in pairs if eq}


def _meta_texts(meta) -> list:
    """'key=value' per item of *meta*; a line break in either, blanks at either end of either, or '=' in a key would
    not read back."""
    items = [(str(key), str(value)) for key, value in (meta or {}).items()]
    for key, value in items:
        if "=" in key or any(text != text.strip() or "\n" in text or "\r" in text for text in (key, value)):
            raise ValueError(f"metadata {meta!r}: a key holds '=', or a key or value a line break or blanks at an end")
    return [f"{key}={value}" for key, value in items]


def _stack(positions, normals) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    return positions if normals is None else np.hstack([positions, np.asarray(normals, dtype=np.float64)])


def _write_rows(fh, data: np.ndarray) -> None:
    """One line of space-separated ``%.17g`` values per row of *data*, one format operation per block."""
    row = " ".join(["%.17g"] * data.shape[1]) + "\n"
    for start in range(0, len(data), _WRITE_BLOCK):
        block = data[start : start + _WRITE_BLOCK]
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


@contextmanager
def _open_text(path: str):
    """*path* open as UTF-8 text past any byte-order mark; text that is not UTF-8 raises a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None


def _blocks(read):
    """The text of ``read(size)`` calls, up to one that returns '', in blocks that end at a newline but the last."""
    # 64 KB reads: the text in hand stays a small fraction of any large file
    tail = ""
    for chunk in iter(lambda: read(1 << 16), ""):
        tail += chunk
        cut = tail.rfind("\n") + 1
        if cut:
            yield tail[:cut]
            tail = tail[cut:]
    if tail:
        yield tail


def _load_rows(rows, widths: tuple, where) -> np.ndarray:
    """The rows of ``rows()`` as an (m, w) float64 array, w in *widths*.

    ``rows()`` starts a fresh iterator of ``(position, text)`` over an open
    file.  The texts stream to ``np.loadtxt``, which skips blank ones.  Only
    rows numpy rejects, or of a width not in *widths*, are read again by
    :func:`_read_rows`, to name the first bad one after ``where(position)``.
    """
    texts = map(itemgetter(1), rows())
    first = next(filter(str.strip, texts), None)  # numpy warns when every row is blank
    if first is None:
        return np.empty((0, widths[0]))
    try:
        data = np.loadtxt(chain([first], texts), dtype=np.float64, comments=None, ndmin=2)
        if data.shape[1] in widths:
            return data
    except ValueError:
        pass
    _read_rows(rows, widths, where)


def _read_rows(rows, widths: tuple, where) -> None:
    """Raise, after ``where(position)``, at the first row that numpy rejects alone or whose width differs
    from the first row's or is not in *widths*."""
    width = None
    for position, text in rows():
        parts = text.split()
        if not parts:
            continue
        width = width or len(parts)
        try:
            if len(parts) != width or width not in widths:
                raise ValueError
            np.loadtxt([text], dtype=np.float64, comments=None)
        except ValueError:
            raise ValueError(f"{where(position)} {text.strip()!r}") from None
    raise ValueError(f"{where(position)}: numpy rejects the rows up to here together")


def write_xyz(path: str, positions: np.ndarray, normals: Optional[np.ndarray] = None, meta: Optional[dict] = None) -> None:
    """One 'x y z [nx ny nz]' line per point, after '# key=value' headers."""
    data = _stack(positions, normals)
    texts = _meta_texts(meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {text}\n" for text in texts)
        _write_rows(fh, data)


def read_xyz(path: str):
    """Returns (positions, normals or None, meta dict); a line whose first non-blank character is '#' is a comment."""
    comments = []
    with _open_text(path) as fh:

        def rows():
            fh.seek(0)
            for row in enumerate(fh, start=1):
                line = row[1]
                if "#" in line and line.lstrip().startswith("#"):  # the cheap test first: most lines are rows
                    comments.append(line.lstrip()[1:])
                else:
                    yield row

        data = _load_rows(rows, (3, 6), lambda lineno: f"{path}:{lineno}: malformed row")
    meta = _meta(comment.lstrip("#") for comment in comments)
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
    header += [f"comment {text}" for text in _meta_texts(meta)]
    header.append(f"element vertex {len(data)}")
    header += [f"property double {name}" for name in props]
    head = "\n".join(header + ["end_header"]) + "\n"
    if not head.isascii():
        raise ValueError(f"{path}: a PLY header is ASCII text, so it cannot hold the metadata {meta!r}")
    if binary:
        with open(path, "wb") as fh:
            fh.write(head.encode("ascii"))
            np.ascontiguousarray(data, dtype="<f8").tofile(fh)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(head)
            _write_rows(fh, data)


def read_ply(path: str):
    """Returns (positions, normals or None, meta dict); raises on truncation.  The header ends at the line end_header."""
    with open(path, "rb") as fh:
        header = []
        for line in iter(fh.readline, b""):
            header += line.decode("ascii", errors="replace").splitlines()
            if header[0].strip() != "ply":
                raise ValueError(f"{path}: not a PLY file")
            if line.endswith((b"end_header\n", b"end_header\r\n")) and header[-1].strip() == "end_header":
                break
        else:
            raise ValueError(f"{path}: missing end_header")
        fmt, elements, props, comments = None, [], [], []
        for text in header[1:-1]:
            words = text.split() or [""]
            try:
                if words[0] == "comment":
                    comments.append(text.split(None, 1)[-1])
                elif words[0] == "format":
                    fmt = words[1]
                elif words[0] == "element":
                    elements.append((words[1], int(words[2])))
                elif words[0] == "property":
                    props.append((words[1], words[2]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}: malformed header line {text.strip()!r}") from None
        if fmt not in ("ascii", "binary_little_endian"):
            raise ValueError(f"{path}: unsupported format {fmt!r}")
        if not elements or {name for name, _ in elements} != {"vertex"} or elements[-1][1] < 0:
            raise ValueError(f"{path}: unsupported elements {elements}; expected one 'element vertex <count>'")
        n_vertices = elements[-1][1]
        names = [name for _, name in props]
        if {kind for kind, _ in props} != {"double"} or names not in (_PLY_PROPS_PLAIN, _PLY_PROPS_NORMAL):
            raise ValueError(f"{path}: unsupported property list {props}")
        width = len(props)
        body_offset = fh.tell()
        if fmt == "binary_little_endian":
            expected = n_vertices * width * 8
            available = os.fstat(fh.fileno()).st_size - body_offset
            if available < expected:
                raise ValueError(
                    f"{path}: truncated at byte offset {body_offset + available}; "
                    f"expected {expected} payload bytes after offset {body_offset}, found {available}"
                )
            data = np.empty((n_vertices, width), dtype="<f8")
            fh.readinto(data)
            data = data.astype(np.float64, copy=False)
        else:

            def blocks():
                # each line of the body after its byte offset; ASCII decoding keeps one character per byte
                fh.seek(body_offset)
                offset = body_offset
                for block in _blocks(lambda size: fh.read(size).decode("ascii", errors="replace")):
                    lines = block.splitlines(keepends=True)
                    yield zip(accumulate(map(len, lines), initial=offset), lines)
                    offset += len(block)

            data = _load_rows(
                lambda: chain.from_iterable(blocks()), (width,), lambda offset: f"{path}: byte offset {offset}: malformed row"
            )
            if len(data) != n_vertices:
                raise ValueError(
                    f"{path}: truncated at byte offset {fh.tell()}; header promised {n_vertices} vertices, found {len(data)}"
                )
    return data[:, :3], data[:, 3:] if width == 6 else None, _meta(comments)


def write_cloud(path: str, positions, normals=None, meta=None, fmt: str = "auto") -> None:
    """Write in *fmt*: 'xyz', 'ply' (ASCII), 'ply-binary', or 'auto' ('ply' for a '.ply' path, else 'xyz')."""
    if fmt == "auto":
        fmt = "ply" if path.lower().endswith(".ply") else "xyz"
    if fmt == "xyz":
        write_xyz(path, positions, normals, meta)
    elif fmt in ("ply", "ply-binary"):
        write_ply(path, positions, normals, meta, binary=fmt == "ply-binary")
    else:
        raise ValueError(f"unknown cloud format {fmt!r}")


def read_cloud(path: str):
    """Read either format by extension; returns (positions, normals, meta)."""
    if path.lower().endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)
