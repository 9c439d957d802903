import warnings

import numpy as np
import pytest

from croftoncloud import cloudio
from croftoncloud.cloudio import read_cloud, read_ply, read_xyz, write_cloud, write_ply, write_xyz
from croftoncloud.rng import Pseudo


@pytest.fixture
def cloud():
    gen = Pseudo(99)
    positions = gen.take(60).reshape(20, 3) * 4.0 - 2.0
    normals = gen.take(60).reshape(20, 3)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return positions, normals


META = {"seed": 7, "surface": "sphere", "sampler": "crofton"}


class TestXYZ:
    def test_roundtrip_with_normals(self, cloud, tmp_path):
        positions, normals = cloud
        path = str(tmp_path / "cloud.xyz")
        write_xyz(path, positions, normals, META)
        got_p, got_n, meta = read_xyz(path)
        assert np.array_equal(got_p, positions)
        assert np.array_equal(got_n, normals)
        assert meta["seed"] == "7"

    def test_roundtrip_without_normals(self, cloud, tmp_path):
        positions, _ = cloud
        path = str(tmp_path / "bare.xyz")
        write_xyz(path, positions)
        got_p, got_n, _ = read_xyz(path)
        assert got_n is None
        assert np.array_equal(got_p, positions)

    def test_rewrite_is_byte_identical(self, cloud, tmp_path):
        positions, normals = cloud
        first = tmp_path / "a.xyz"
        second = tmp_path / "b.xyz"
        write_xyz(str(first), positions, normals, META)
        got_p, got_n, meta = read_xyz(str(first))
        write_xyz(str(second), got_p, got_n, meta)
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n1 2\n")
        with pytest.raises(ValueError, match="bad.xyz:2"):
            read_xyz(str(path))

    def test_non_numeric_reports_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(ValueError, match="bad.xyz:2"):
            read_xyz(str(path))

    def test_empty_body_reads_as_no_points(self, tmp_path):
        path = str(tmp_path / "empty.xyz")
        write_xyz(path, np.empty((0, 3)), meta=META)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_p, got_n, meta = read_xyz(path)
        assert got_p.shape == (0, 3)
        assert got_n is None
        assert meta["surface"] == "sphere"

    def test_comments_and_blank_lines_anywhere(self, tmp_path, monkeypatch):
        # a well-formed file streams to np.loadtxt: the whole-text line scan is never reached
        monkeypatch.setattr(cloudio, "_read_rows", lambda *args: pytest.fail("whole-text line scan"))
        path = tmp_path / "mixed.xyz"
        path.write_text("  # a = 1\n1 2 3 4 5 6\n\n\t#b=2\n   \n7 8 9 1 0 0\n# note without a value\n# c=3")
        got_p, got_n, meta = read_xyz(str(path))
        assert got_p.tolist() == [[1, 2, 3], [7, 8, 9]]
        assert got_n.tolist() == [[4, 5, 6], [1, 0, 0]]
        assert meta == {"a": "1", "b": "2", "c": "3"}

    def test_rejected_row_is_numbered_among_comments(self, tmp_path):
        # comment and blank lines count, so the number is the row's line in the file
        path = tmp_path / "bad.xyz"
        path.write_text("# a=1\n1 2 3\n\n# b=2\n4 5 6\n7 8\n# c=3\n")
        with pytest.raises(ValueError, match="bad.xyz:6: malformed row '7 8'"):
            read_xyz(str(path))

    def test_wrong_width_is_rejected(self, tmp_path):
        path = tmp_path / "four.xyz"
        path.write_text("# a=1\n1 2 3 4\n5 6 7 8\n")
        with pytest.raises(ValueError, match="four.xyz:2: malformed row '1 2 3 4'"):
            read_xyz(str(path))


MAX = np.finfo(np.float64).max
AWKWARD = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, MAX, -MAX, 0.1, np.inf, -np.inf])


@pytest.mark.parametrize("fmt", ["xyz", "ply"])
def test_rows_match_per_value_formatting(tmp_path, fmt):
    # reference: each value printed alone with 17 significant digits
    bits = np.random.default_rng(4).integers(0, 2**63, size=594, dtype=np.int64).view(np.float64)
    values = np.concatenate([np.where(np.isfinite(bits), bits, 1.0) * np.resize([1, -1], 594), AWKWARD[:6]])
    rows = values.reshape(-1, 6)
    path = tmp_path / f"rows.{fmt}"
    (write_xyz if fmt == "xyz" else write_ply)(str(path), rows[:, :3], rows[:, 3:])
    expected = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert path.read_text().endswith(expected)
    got_p, got_n, _ = (read_xyz if fmt == "xyz" else read_ply)(str(path))
    assert np.hstack([got_p, got_n]).tobytes() == rows.tobytes()


def test_non_finite_and_extreme_values_round_trip(tmp_path):
    rows = AWKWARD[:9].reshape(3, 3)
    for name, write, read in [("c.xyz", write_xyz, read_xyz), ("c.ply", write_ply, read_ply)]:
        path = str(tmp_path / name)
        write(path, rows)
        assert read(path)[0].tobytes() == rows.tobytes()


class TestPLY:
    @pytest.mark.parametrize("binary", [False, True])
    def test_roundtrip(self, cloud, tmp_path, binary):
        positions, normals = cloud
        path = str(tmp_path / "cloud.ply")
        write_ply(path, positions, normals, META, binary=binary)
        got_p, got_n, meta = read_ply(path)
        assert np.array_equal(got_p, positions)
        assert np.array_equal(got_n, normals)
        assert meta["surface"] == "sphere"

    @pytest.mark.parametrize("binary", [False, True])
    def test_rewrite_is_byte_identical(self, cloud, tmp_path, binary):
        positions, normals = cloud
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        write_ply(str(first), positions, normals, META, binary=binary)
        got_p, got_n, meta = read_ply(str(first))
        write_ply(str(second), got_p, got_n, meta, binary=binary)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_binary_names_byte_offset(self, cloud, tmp_path):
        positions, normals = cloud
        path = tmp_path / "trunc.ply"
        write_ply(str(path), positions, normals, META, binary=True)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(ValueError, match="byte offset"):
            read_ply(str(path))

    def test_truncated_ascii_names_byte_offset(self, cloud, tmp_path):
        positions, _ = cloud
        path = tmp_path / "trunc.ply"
        write_ply(str(path), positions)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="byte offset"):
            read_ply(str(path))

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_empty_ascii_reads_as_no_points(self, tmp_path, with_normals):
        path = str(tmp_path / "empty.ply")
        write_ply(path, np.empty((0, 3)), np.empty((0, 3)) if with_normals else None, META)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_p, got_n, meta = read_ply(path)
        assert got_p.shape == (0, 3)
        if with_normals:
            assert got_n.shape == (0, 3)
        else:
            assert got_n is None
        assert meta["seed"] == "7"

    @pytest.mark.parametrize("row", ["1 2\n", "1 two 3\n", "1 2 3 4\n"])
    def test_malformed_ascii_row_names_byte_offset(self, cloud, tmp_path, row):
        positions, _ = cloud
        path = tmp_path / "bad.ply"
        write_ply(str(path), positions)
        text = path.read_text()
        header, body = text.split("end_header\n")
        lines = body.splitlines(keepends=True)
        path.write_text(header + "end_header\n" + "".join(lines[:5]) + row + "".join(lines[6:]))
        offset = len(header) + len("end_header\n") + len("".join(lines[:5]))
        with pytest.raises(ValueError, match=f"bad\\.ply: .*byte offset {offset}"):
            read_ply(str(path))

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "junk.ply"
        path.write_bytes(b"not a ply\nend_header\n")
        with pytest.raises(ValueError, match="not a PLY"):
            read_ply(str(path))

    def test_without_normals(self, cloud, tmp_path):
        positions, _ = cloud
        path = str(tmp_path / "bare.ply")
        write_ply(path, positions, binary=True)
        got_p, got_n, _ = read_ply(path)
        assert got_n is None
        assert np.array_equal(got_p, positions)


class TestDispatch:
    def test_auto_format(self, cloud, tmp_path):
        positions, normals = cloud
        for name in ("c.xyz", "c.ply"):
            path = str(tmp_path / name)
            write_cloud(path, positions, normals, META)
            got_p, _, _ = read_cloud(path)
            assert np.array_equal(got_p, positions)

    @pytest.mark.parametrize("fmt, head", [("xyz", b"# seed=7"), ("ply", b"format ascii"), ("ply-binary", b"format binary")])
    def test_cli_format_names(self, cloud, tmp_path, fmt, head):
        # write_cloud takes the names of generate's --format choices as they are
        positions, normals = cloud
        path = str(tmp_path / ("c.xyz" if fmt == "xyz" else "c.ply"))
        write_cloud(path, positions, normals, META, fmt=fmt)
        with open(path, "rb") as fh:
            assert head in fh.read(64)
        got_p, got_n, _ = read_cloud(path)
        assert np.array_equal(got_p, positions) and np.array_equal(got_n, normals)

    def test_unknown_format(self, cloud, tmp_path):
        positions, _ = cloud
        with pytest.raises(ValueError):
            write_cloud(str(tmp_path / "c.xyz"), positions, fmt="obj")
