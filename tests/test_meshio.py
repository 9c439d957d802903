import numpy as np
import pytest

from croftoncloud.meshio import load_mesh, read_off, read_stl

# awkward doubles: every one must come back bit for bit
VERTS = np.array(
    [
        [0.1, 1.0 / 3.0, -0.0],
        [5e-324, 1e-310, 2.0 / 3.0],
        [1.7976931348623157e308, -2.5, 1e-5],
        [-1.0, 0.30000000000000004, 123456789.125],
        [0.0, 0.0, 1.0],
    ]
)


def _off(tmp_path, text, name="mesh.off"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _vertex_lines(verts):
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist())


class TestReadOFF:
    def test_triangles_bit_exact(self, tmp_path):
        faces = [(0, 1, 2), (0, 2, 3), (1, 3, 4), (4, 3, 2)]
        text = f"OFF\n{len(VERTS)} {len(faces)} 0\n" + _vertex_lines(VERTS)
        text += "".join(f"3 {a} {b} {c}\n" for a, b, c in faces)
        path = _off(tmp_path, text)
        mesh = read_off(path)
        assert mesh.name == path
        assert mesh.triangles.dtype == np.float64
        assert np.array_equal(mesh.triangles, VERTS[np.array(faces)])
        # equal is not enough for -0.0; compare the bits
        assert mesh.triangles.tobytes() == VERTS[np.array(faces)].tobytes()

    def test_polygons_fan_in_order(self, tmp_path):
        text = f"OFF\n5 3 0\n{_vertex_lines(VERTS)}4 0 1 2 3\n3 4 3 2\n5 0 1 2 3 4\n"
        mesh = read_off(_off(tmp_path, text))
        fans = [(0, 1, 2), (0, 2, 3), (4, 3, 2), (0, 1, 2), (0, 2, 3), (0, 3, 4)]
        assert mesh.triangles.tobytes() == VERTS[np.array(fans)].tobytes()

    def test_tokens_may_span_lines(self, tmp_path):
        # OFF is a token stream: counts on the header line, records split anywhere
        flat = " ".join(repr(v) for v in VERTS.ravel().tolist())
        text = f"OFF 5 2 0\n{flat}\n3 0\n1 2 4\n1 2 3 4\n"
        mesh = read_off(_off(tmp_path, text))
        fans = [(0, 1, 2), (1, 2, 3), (1, 3, 4)]
        assert mesh.triangles.tobytes() == VERTS[np.array(fans)].tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_token_walk(self, tmp_path, seed):
        # reference: walk the token stream one face record at a time
        gen = np.random.default_rng(seed)
        verts = gen.standard_normal((40, 3))
        faces = [gen.integers(0, 40, size=gen.integers(3, 8)) for _ in range(300)]
        tokens = ["OFF", "40", "300", "0"] + [repr(v) for v in verts.ravel().tolist()]
        for face in faces:
            tokens += [str(len(face))] + [str(i) for i in face]
        breaks = gen.random(len(tokens)) < 0.3
        text = "".join(t + ("\n" if b else " ") for t, b in zip(tokens, breaks))
        pos, fans = 4 + 3 * 40, []
        for _ in range(300):
            arity = int(tokens[pos])
            idx = [int(t) for t in tokens[pos + 1 : pos + 1 + arity]]
            fans += [(idx[0], idx[j], idx[j + 1]) for j in range(1, arity - 1)]
            pos += 1 + arity
        mesh = read_off(_off(tmp_path, text))
        assert mesh.triangles.tobytes() == verts[np.array(fans)].tobytes()

    def test_records_after_the_last_face_are_ignored(self, tmp_path):
        text = f"OFF\n5 1 0\n{_vertex_lines(VERTS)}3 0 1 2\nanything else 7\n"
        assert read_off(_off(tmp_path, text)).triangles.tobytes() == VERTS[[[0, 1, 2]]].tobytes()

    def test_comments(self, tmp_path):
        text = (
            "# a mesh\nOFF # header\n# counts next\n3 1 0 # three vertices\n"
            "0 0 0 # origin\n1 0 0\n# between vertices\n0 1 0\n3 0 1 2 # the face\n# trailing\n"
        )
        mesh = read_off(_off(tmp_path, text))
        assert mesh.triangles.tolist() == [[[0, 0, 0], [1, 0, 0], [0, 1, 0]]]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.off"
        path.write_bytes(f"\ufeffOFF\n5 1 0\n{_vertex_lines(VERTS)}3 0 1 2\n".encode("utf-8"))
        assert read_off(str(path)).triangles.tobytes() == VERTS[[[0, 1, 2]]].tobytes()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "end of file"),
            ("# only a comment\n", "end of file"),
            ("COFF\n3 1 0\n", "OFF header"),
            ("OFF\n", "end of file"),
            ("OFF\n3 1\n", "end of file"),
            ("OFF\n3 x 0\n", "face count"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1\n", "end of file.*vertex"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n", "end of file.*face 0"),
            ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "end of file.*face 1"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "end of file.*face 0"),
            ("OFF\n3 1 0\n0 0 0\n1 abc 0\n0 1 0\n3 0 1 2\n", "vertex 1.*abc"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 two\n", "face 0.*two"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2.5\n", "face 0.*2.5"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n", "face 0 has fewer than 3"),
            ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n-1 0 1\n", "face 1 has fewer than 3"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", "face 0 references vertex 3"),
            ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 -1 2\n", "face 1 references vertex -1"),
        ],
        ids=[
            "empty", "comment-only", "bad-header", "no-counts", "no-edge-count", "non-integer-count",
            "eof-in-vertices", "eof-at-faces", "eof-at-second-face", "eof-in-face", "non-numeric-vertex",
            "non-numeric-index", "fractional-index", "arity-2", "arity-negative", "index-too-large",
            "index-negative",
        ],
    )
    def test_malformed_input_names_the_file(self, tmp_path, text, match):
        path = _off(tmp_path, text, name="bad.off")
        with pytest.raises(ValueError, match=f"bad\\.off.*{match}"):
            read_off(path)

    def test_no_faces_names_the_file(self, tmp_path):
        path = _off(tmp_path, "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", name="bare.off")
        with pytest.raises(ValueError, match=r"bare\.off"):
            read_off(path)


STL_TWO_FACETS = """solid two
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
  facet normal 0 0 -1
    outer loop
      vertex 0.1 0.30000000000000004 -0.0
      vertex 5e-324 1e-310 1.7976931348623157e308
      vertex -1 -2 -3
    endloop
  endfacet
endsolid two
"""


def _stl_per_line(path):
    """Reference ASCII STL parse: one line at a time, one ``float`` per coordinate."""
    vertices = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if parts[:1] == ["vertex"]:
                try:
                    if len(parts) != 4:
                        raise ValueError
                    vertices.append([float(v) for v in parts[1:]])
                except ValueError:
                    raise ValueError(f"{lineno}: malformed vertex line") from None
    return np.array(vertices).reshape(-1, 3, 3)


class TestReadSTL:
    def test_two_facets(self, tmp_path):
        path = tmp_path / "two.stl"
        path.write_text(STL_TWO_FACETS)
        mesh = read_stl(str(path))
        expected = np.array(
            [
                [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                [[0.1, 0.30000000000000004, -0.0], [5e-324, 1e-310, 1.7976931348623157e308], [-1, -2, -3]],
            ],
            dtype=np.float64,
        )
        assert mesh.triangles.tobytes() == expected.tobytes()
        assert mesh.name == str(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # the mark is not part of the 'solid' header, and errors keep their line numbers
        plain, path = tmp_path / "plain.stl", tmp_path / "bom.stl"
        plain.write_text(STL_TWO_FACETS)
        path.write_bytes(("\ufeff" + STL_TWO_FACETS).encode("utf-8"))
        assert read_stl(str(path)).triangles.tobytes() == read_stl(str(plain)).triangles.tobytes()
        path.write_bytes(("\ufeff" + STL_TWO_FACETS.replace("vertex 1 0 0", "vertex 1 0")).encode("utf-8"))
        with pytest.raises(ValueError, match=r"bom\.stl:5: malformed vertex line"):
            read_stl(str(path))

    @pytest.mark.parametrize(
        "text, match",
        [
            (STL_TWO_FACETS.replace("solid two", "slab two", 1), ":1: not an ASCII STL"),
            (STL_TWO_FACETS.replace("vertex 1 0 0", "vertex 1 0"), ":5: malformed vertex line"),
            (STL_TWO_FACETS.replace("vertex 1 0 0", "vertex 1 zero 0"), ":5: malformed vertex line"),
            (STL_TWO_FACETS.replace("vertex 1 0 0", "vertex"), ":5: malformed vertex line"),
            (STL_TWO_FACETS.replace("vertex 0 0 0", "vertex"), ":4: malformed vertex line"),
            (STL_TWO_FACETS.replace("vertex 1 0 0", "vertex 1 0 0 0"), ":5: malformed vertex line"),
            (STL_TWO_FACETS.replace("      vertex -1 -2 -3\n", ""), ":12: vertex count 5 is not a multiple of 3"),
            ("solid empty\nendsolid empty\n", ":2: no facets"),
            ("solid empty\nvertex\n", ":2: malformed vertex line"),
        ],
        ids=[
            "no-solid", "short-vertex", "non-numeric-vertex", "bare-vertex", "bare-first-vertex", "long-vertex",
            "partial-facet", "no-facets", "only-bare-vertex",
        ],
    )
    def test_malformed_input_names_the_file(self, tmp_path, text, match):
        path = tmp_path / "bad.stl"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad\\.stl{match}"):
            read_stl(str(path))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_line_parse(self, tmp_path, seed):
        # random facets among decoy records, spacing and number spellings; then one corrupted vertex
        gen = np.random.default_rng(seed)
        coords = gen.integers(0, 2**64, size=(int(gen.integers(1, 300)), 3, 3), dtype=np.uint64).view(np.float64)
        coords = np.where(np.isfinite(coords), coords, gen.standard_normal(coords.shape)).tolist()
        spell = [repr, lambda x: f"{x:.6e}", lambda x: f"{x:g}", lambda x: str(int(x)) if abs(x) < 1e9 else repr(x)]
        pad = [" ", "  ", "\t", " \t "]
        decoys = ["facet normal 0 0 1", "outer loop", "endloop", "endfacet", "", "vertexnormal 1 2 3", "Vertex 1 2 3"]
        lines = ["solid random"]
        for facet in coords:
            for vertex in facet:
                lines += [gen.choice(decoys) for _ in range(gen.integers(0, 3))]
                sep = [str(gen.choice(pad)) for _ in range(5)]
                lines.append(sep[0] + "vertex" + "".join(sep[i + 1] + spell[gen.integers(4)](x) for i, x in enumerate(vertex)) + sep[4])
        lines.append("endsolid random")
        path = tmp_path / "random.stl"
        path.write_text("\n".join(lines) + "\n")
        assert read_stl(str(path)).triangles.tobytes() == _stl_per_line(str(path)).tobytes()

        bad = int(gen.choice([i for i, line in enumerate(lines) if line.split()[:1] == ["vertex"]]))
        words = lines[bad].split()
        lines[bad] = [lines[bad] + " 1", lines[bad] + " x", "\t".join(words[:3]), "  vertex", " ".join(words[:2] + ["1.0.0"] + words[3:])][seed % 5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as fault:
            _stl_per_line(str(path))
        with pytest.raises(ValueError, match=f"random\\.stl:{bad + 1}: malformed vertex line"):
            read_stl(str(path))
        assert str(fault.value).startswith(f"{bad + 1}:")


def test_mutated_files_match_the_per_line_parse(tmp_path):
    # truncation, dropped, inserted and non-numeric tokens, CRLF, no final newline and non-ASCII bytes:
    # read_stl returns the per-line parse bit for bit or raises a ValueError naming the file
    from test_cloudio import mutate

    gen = np.random.default_rng(8)
    accepted = 0
    for case in range(300):
        coords = gen.standard_normal((int(gen.integers(1, 20)), 3, 3)) * 10.0 ** gen.integers(-300, 300, size=(1, 1, 3))
        lines = ["solid corpus"]
        for facet in coords.tolist():
            lines += ["facet normal 0 0 1", "outer loop"] + [f"vertex {x!r} {y!r} {z!r}" for x, y, z in facet]
            lines += ["endloop", "endfacet"]
        data = ("\n".join(lines + ["endsolid corpus"]) + "\n").encode()
        path = tmp_path / f"case{case}.stl"
        path.write_bytes(mutate(data, gen) if case % 10 else data)
        try:
            mesh = read_stl(str(path))
        except ValueError as err:
            assert f"case{case}.stl" in str(err)
            continue
        assert mesh.triangles.tobytes() == _stl_per_line(str(path)).tobytes()
        accepted += 1
    assert 30 <= accepted < 300


def _off_token_walk(path):
    """Reference OFF parse: strip each line's comment, then walk the tokens one record at a time with ``int``/``float``."""
    with open(path, encoding="utf-8") as fh:
        tokens = [token for line in fh for token in line.split("#")[0].split()]
    if tokens[:1] != ["OFF"]:
        raise ValueError("no OFF header")
    n_vertices, n_faces, _ = (int(token) for token in tokens[1:4])
    if n_vertices < 0 or n_faces < 1:
        raise ValueError("bad counts")
    at = 4 + 3 * n_vertices
    vertices = [[float(token) for token in tokens[i : i + 3]] for i in range(4, at, 3)]
    triangles = []
    for _ in range(n_faces):
        arity = int(tokens[at])
        face = [int(token) for token in tokens[at + 1 : at + 1 + arity]]
        if arity < 3 or len(face) < arity or not all(0 <= v < n_vertices for v in face):
            raise ValueError("bad face")
        triangles += [[vertices[face[0]], vertices[face[j]], vertices[face[j + 1]]] for j in range(1, arity - 1)]
        at += 1 + arity
    return np.array(triangles, dtype=np.float64).reshape(-1, 3, 3)


def test_mutated_off_files_match_the_token_walk(tmp_path):
    # the OFF twin of the STL test above: read_off returns the token walk's triangles bit for bit,
    # or raises a ValueError naming the file, also for bytes that are not UTF-8
    from test_cloudio import mutate

    gen = np.random.default_rng(9)
    accepted = 0
    for case in range(300):
        verts = gen.standard_normal((int(gen.integers(5, 12)), 3)) * 10.0 ** gen.integers(-300, 300, size=(1, 3))
        faces = [gen.choice(len(verts), size=int(gen.integers(3, 6)), replace=False) for _ in range(gen.integers(1, 8))]
        lines = ["OFF", "# corpus", f"{len(verts)} {len(faces)} 0"] + [f"{x!r} {y!r} {z!r}" for x, y, z in verts.tolist()]
        lines += [" ".join(str(v) for v in [len(face), *face.tolist()]) + " # face" * int(gen.integers(2)) for face in faces]
        data = ("\n".join(lines) + "\n").encode()
        path = tmp_path / f"case{case}.off"
        path.write_bytes(mutate(data, gen) if case % 10 else data)
        try:
            mesh = read_off(str(path))
        except ValueError as err:
            assert f"case{case}.off" in str(err)
            with pytest.raises((ValueError, IndexError)):
                _off_token_walk(str(path))
            continue
        assert mesh.triangles.tobytes() == _off_token_walk(str(path)).tobytes()
        accepted += 1
    assert 30 <= accepted < 300


def test_off_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.off"
    path.write_bytes(b"OFF\n# caf\xe9 mesh\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ValueError, match=r"bad\.off: not UTF-8 text"):
        read_off(str(path))


class TestLoadMesh:
    @pytest.mark.parametrize("name", ["m.off", "M.OFF"])
    def test_off_by_extension(self, tmp_path, name):
        path = _off(tmp_path, f"OFF\n5 1 0\n{_vertex_lines(VERTS)}3 0 1 2\n", name=name)
        assert load_mesh(path).triangles.tobytes() == VERTS[[[0, 1, 2]]].tobytes()

    @pytest.mark.parametrize("name", ["m.stl", "M.STL"])
    def test_stl_by_extension(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(STL_TWO_FACETS)
        assert len(load_mesh(str(path))) == 2

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\n")
        with pytest.raises(ValueError, match="unsupported mesh format"):
            load_mesh(str(path))
