"""Readers for ASCII OFF and ASCII STL triangle meshes."""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

from .cloudio import _blocks, _load_rows, _open_text
from .surfaces import TriangulatedSurface

__all__ = ["read_off", "read_stl", "load_mesh"]


def _convert(block: list, dtype) -> np.ndarray:
    """The longest leading run of the tokens in *block* that numpy converts to *dtype*."""
    try:
        return np.array(block, dtype=dtype)
    except (ValueError, OverflowError):
        # error path: stop before the first token numpy rejects
        for k, token in enumerate(block):
            try:
                np.array(token, dtype=dtype)
            except (ValueError, OverflowError):
                return np.array(block[:k], dtype=dtype)


def _missing(path: str, tokens: list, pos: int, what: str) -> ValueError:
    """The error for a record that needs ``tokens[pos]``: a bad token there, or none left."""
    if pos < len(tokens):
        return ValueError(f"{path}: cannot read {what} from token {tokens[pos]!r}")
    return ValueError(f"{path}: unexpected end of file while reading {what}")


def _face_starts(ints: np.ndarray, count: int) -> np.ndarray:
    """Offsets in *ints* of the arity tokens of its first *count* faces, or ``len(ints)`` past its end.

    ``s[f + 1] = jump(s[f])``, ``jump(i) = i + 1 + ints[i]``: squaring ``jump`` gives all in log2(count) steps.
    """
    end = len(ints)
    jump = np.append(np.minimum(np.arange(end) + 1 + np.clip(ints, 0, end), end), end)
    starts = np.zeros(count, dtype=np.int64)
    steps = np.arange(count)
    while steps.any():
        starts = np.where(steps & 1, jump[starts], starts)
        jump = jump[jump]
        steps >>= 1
    return starts


def read_off(path: str) -> TriangulatedSurface:
    """ASCII OFF mesh; polygon faces are fan-triangulated.

    OFF is a token stream: '#' comments run to the end of their line and
    records may break across lines anywhere.  Errors name the file and the first record at fault.
    """
    with _open_text(path) as fh:
        tokens = re.sub(r"#.*", "", fh.read()).split()
    if tokens[:1] != ["OFF"]:
        raise _missing(path, tokens, 0, "the OFF header")
    counts = _convert(tokens[1:4], np.int64)
    if len(counts) < 3:
        raise _missing(path, tokens, 1 + len(counts), ("vertex", "face", "edge")[len(counts)] + " count")
    n_vertices, n_faces = counts[:2].tolist()
    if n_vertices < 0 or n_faces < 1:
        raise ValueError(f"{path}: bad counts: {n_vertices} vertices, {n_faces} faces")
    head = 4 + 3 * n_vertices
    coords = _convert(tokens[4:head], np.float64)
    if len(coords) < 3 * n_vertices:
        raise _missing(path, tokens, 4 + len(coords), f"vertex {len(coords) // 3}")

    ints = _convert(tokens[head:], np.int64)
    # every face takes at least one token, so face len(ints) already runs past the block
    starts = _face_starts(ints, min(n_faces, len(ints) + 1))
    arity = np.append(ints, 0)[starts]
    broken = (arity < 3) | (arity >= len(ints) - starts)
    whole = int(np.argmax(broken)) if broken.any() else n_faces
    # fan triangles (v0, vj, vj+1), j = 1 .. arity - 2, of each whole face in file order
    fans = arity[:whole] - 2
    face = np.repeat(np.arange(whole), fans)
    lead = starts[face] + 1  # offset of the face's v0
    rank = np.arange(len(face)) - np.repeat(np.cumsum(fans) - fans, fans)  # j - 1
    tris = ints[np.stack([lead, lead + rank + 1, lead + rank + 2], axis=1)]
    outside = np.flatnonzero((tris < 0) | (tris >= n_vertices))
    if len(outside):
        raise ValueError(f"{path}: face {face[outside[0] // 3]} references vertex {tris.flat[outside[0]]} of {n_vertices}")
    if whole < n_faces:
        if starts[whole] < len(ints) and arity[whole] < 3:
            raise ValueError(f"{path}: face {whole} has fewer than 3 vertices")
        raise _missing(path, tokens, head + len(ints), f"face {whole}")
    return TriangulatedSurface(coords.reshape(-1, 3)[tris], name=path)


#: an ASCII STL vertex record, a line whose first token is 'vertex', capturing the rest of the line from its next token
_STL_VERTEX = re.compile(r"^[^\S\n]*vertex(?!\S)[^\S\n]*([^\n]*)", re.M)


def read_stl(path: str) -> TriangulatedSurface:
    """Minimal ASCII STL: the 'vertex x y z' records, three per facet, in file order.

    A regex pass over each block of whole lines finds the vertex records, and
    the text after 'vertex' on each is a row of ``cloudio._load_rows``, the
    reader of XYZ and ASCII PLY rows too.  Errors name ``path:line``.
    """
    with _open_text(path) as fh:
        if not fh.readline().lstrip().startswith("solid"):
            raise ValueError(f"{path}:1: not an ASCII STL (missing 'solid' header)")

        def blocks():
            # each block of whole lines after the number of the line it starts on
            fh.seek(0)
            line = 1
            for block in _blocks(fh.read):
                yield line, block
                line += block.count("\n")

        def texts():
            for _, block in blocks():
                found = _STL_VERTEX.findall(block)
                # a bare 'vertex' is a bad row, not a blank one for numpy to skip
                yield [text or "vertex" for text in found] if "" in found else found

        def where(rank: int) -> str:
            # the line of the vertex record of that rank, read again from the start: only an error
            # follows, so the rows iterator whose file position this moves is not read any further
            for line, block in blocks():
                records = list(_STL_VERTEX.finditer(block))
                if rank < len(records):
                    line += block.count("\n", 0, records[rank].start())
                    return f"{path}:{line}"
                rank -= len(records)

        vertices = _load_rows(
            lambda: enumerate(chain.from_iterable(texts())), (3,), lambda rank: f"{where(rank)}: malformed vertex line"
        )
        if not len(vertices):
            fh.seek(0)
            last = max(lineno for lineno, line in enumerate(fh, start=1) if line.strip())
            raise ValueError(f"{path}:{last}: no facets found")
        if len(vertices) % 3:
            raise ValueError(f"{where(len(vertices) - 1)}: vertex count {len(vertices)} is not a multiple of 3")
    return TriangulatedSurface(vertices.reshape(-1, 3, 3), name=path)


def load_mesh(path: str) -> TriangulatedSurface:
    """Dispatch on extension: .off or .stl."""
    lower = path.lower()
    if lower.endswith(".off"):
        return read_off(path)
    if lower.endswith(".stl"):
        return read_stl(path)
    raise ValueError(f"unsupported mesh format: {path} (expected .off or .stl)")
