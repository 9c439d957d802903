"""Readers for ASCII OFF and ASCII STL triangle meshes."""

from __future__ import annotations

import re

import numpy as np

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
    with open(path, "r", encoding="utf-8") as fh:
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


def read_stl(path: str) -> TriangulatedSurface:
    """Minimal ASCII STL: collects 'vertex x y z' triples per facet."""
    vertices = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.lstrip().startswith("solid"):
            raise ValueError(f"{path}:1: not an ASCII STL (missing 'solid' header)")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts or parts[0] != "vertex":
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: malformed vertex line {line.strip()!r}")
            try:
                vertices.append([float(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed vertex line {line.strip()!r}") from None
    if len(vertices) % 3:
        raise ValueError(f"{path}: vertex count {len(vertices)} is not a multiple of 3")
    if not vertices:
        raise ValueError(f"{path}: no facets found")
    return TriangulatedSurface(np.array(vertices).reshape(-1, 3, 3), name=path)


def load_mesh(path: str) -> TriangulatedSurface:
    """Dispatch on extension: .off or .stl."""
    lower = path.lower()
    if lower.endswith(".off"):
        return read_off(path)
    if lower.endswith(".stl"):
        return read_stl(path)
    raise ValueError(f"unsupported mesh format: {path} (expected .off or .stl)")
