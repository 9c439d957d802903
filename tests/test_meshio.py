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

    @pytest.mark.parametrize(
        "text, match",
        [
            (STL_TWO_FACETS.replace("solid two", "slab two", 1), "missing 'solid' header"),
            (STL_TWO_FACETS.replace("vertex 1 0 0", "vertex 1 0"), ":5: malformed vertex line"),
            (STL_TWO_FACETS.replace("vertex 1 0 0", "vertex 1 zero 0"), ":5: malformed vertex line"),
            (STL_TWO_FACETS.replace("      vertex -1 -2 -3\n", ""), "not a multiple of 3"),
            ("solid empty\nendsolid empty\n", "no facets"),
        ],
        ids=["no-solid", "short-vertex", "non-numeric-vertex", "partial-facet", "no-facets"],
    )
    def test_malformed_input_names_the_file(self, tmp_path, text, match):
        path = tmp_path / "bad.stl"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad\\.stl{match}" if match.startswith(":") else f"bad\\.stl.*{match}"):
            read_stl(str(path))


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
