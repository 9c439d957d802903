import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from croftoncloud import cloudio
from croftoncloud.cloudio import read_cloud, read_ply, read_xyz, write_cloud, write_ply, write_xyz
from croftoncloud.meshio import read_stl
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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # the mark does not join the first line, and rejected rows keep their line numbers
        path = tmp_path / "bom.xyz"
        path.write_bytes("\ufeff# a=b\n1 2 3\n".encode("utf-8"))
        got_p, got_n, meta = read_xyz(str(path))
        assert got_p.tolist() == [[1, 2, 3]] and got_n is None and meta == {"a": "b"}
        path.write_bytes("\ufeff# a=b\n1 2 3\n4 5\n".encode("utf-8"))
        with pytest.raises(ValueError, match="bom.xyz:3: malformed row '4 5'"):
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

    @pytest.mark.parametrize("layout", ["strided", "float32", "strided-normals"])
    def test_binary_payload_is_the_little_endian_rows(self, cloud, tmp_path, layout):
        # the payload is the float64 little-endian rows whatever the input's dtype and strides
        positions, normals = cloud
        positions, normals = {
            "strided": (positions[::2], None),
            "float32": (positions.astype(np.float32), normals.astype(np.float32)),
            "strided-normals": (positions[::2], normals[::2]),
        }[layout]
        path = tmp_path / "b.ply"
        write_ply(str(path), positions, normals, META, binary=True)
        rows = positions if normals is None else np.hstack([positions, normals])
        payload = rows.astype("<f8").tobytes()
        data = path.read_bytes()
        assert data.endswith(b"end_header\n" + payload) and data.index(b"end_header\n") + 11 == len(data) - len(payload)

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

    @pytest.mark.parametrize("binary", [False, True])
    def test_crlf_line_ends(self, tmp_path, binary):
        # every header line, end_header's included, and every ASCII row ends in CRLF
        rows = np.array([[0.1, -2.5, 1e300]]) if binary else np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0", "comment seed=7"]
        header += [f"element vertex {len(rows)}", "property double x", "property double y", "property double z"]
        body = rows.astype("<f8").tobytes() if binary else b"1 2 3\r\n4 5 6\r\n"
        path = tmp_path / "crlf.ply"
        path.write_bytes("".join(f"{line}\r\n" for line in header + ["end_header"]).encode("ascii") + body)
        got_p, got_n, meta = read_ply(str(path))
        assert got_p.tobytes() == rows.tobytes() and got_n is None and meta == {"seed": "7"}

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


class TestMeta:
    @pytest.mark.parametrize("fmt", ["xyz", "ply", "ply-binary"])
    def test_header_words_in_values_round_trip(self, cloud, tmp_path, fmt):
        # the PLY header ends at the line 'end_header', not at those bytes anywhere
        positions, normals = cloud
        path = str(tmp_path / ("c.xyz" if fmt == "xyz" else "c.ply"))
        meta = {"note": "end_header", "seed": "# 7", "comment": "element vertex 0", "x": "a = b"}
        write_cloud(path, positions, normals, meta, fmt=fmt)
        got_p, got_n, got_meta = read_cloud(path)
        assert got_p.tobytes() == positions.tobytes() and got_n.tobytes() == normals.tobytes()
        assert got_meta == meta

    @pytest.mark.parametrize("fmt", ["xyz", "ply", "ply-binary"])
    @pytest.mark.parametrize(
        "meta",
        [{"note": "a\nb"}, {"note": "a\rb"}, {"a\nb": 1}, {"a=b": 1}, {"note": " padded "}, {" k": "v"}, {"k": "v\t"}],
        ids=["lf-value", "cr-value", "lf-key", "eq-key", "padded-value", "padded-key", "tab-value"],
    )
    def test_unreadable_meta_is_refused_before_the_file_opens(self, cloud, tmp_path, fmt, meta):
        positions, _ = cloud
        path = tmp_path / ("c.xyz" if fmt == "xyz" else "c.ply")
        with pytest.raises(ValueError, match="line break"):
            write_cloud(str(path), positions, None, meta, fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("binary", [False, True])
    def test_non_ascii_ply_meta_is_refused_before_the_file_opens(self, cloud, tmp_path, binary):
        positions, _ = cloud
        path = tmp_path / "c.ply"
        with pytest.raises(ValueError, match=r"c\.ply: a PLY header is ASCII"):
            write_ply(str(path), positions, meta={"note": "é"}, binary=binary)
        assert not path.exists()


def _rows_text(gen, n_rows, width):
    return "".join(" ".join(repr(v) for v in row) + "\n" for row in gen.standard_normal((n_rows, width)).tolist())


@pytest.mark.parametrize("fmt", ["xyz", "ply", "stl"])
def test_reading_holds_less_than_the_file(tmp_path, fmt):
    # 60,000 vertex rows: more than one of np.loadtxt's 50,000-row chunks
    gen = np.random.default_rng(11)
    if fmt == "stl":
        read = read_stl
        facet = "facet normal 0 0 1\n outer loop\n  vertex {} {} {}\n  vertex {} {} {}\n  vertex {} {} {}\n endloop\nendfacet\n"
        text = "solid big\n" + "".join(facet.format(*map(repr, row)) for row in gen.standard_normal((20_000, 9)).tolist())
        text += "endsolid big\n"
    elif fmt == "xyz":
        read, text = read_xyz, "# seed=1\n" + _rows_text(gen, 60_000, 6)
    else:
        header = "ply\nformat ascii 1.0\nelement vertex 60000\n" + "".join(f"property double {p}\n" for p in "x y z nx ny nz".split())
        read, text = read_ply, header + "end_header\n" + _rows_text(gen, 60_000, 6)
    path = tmp_path / f"big.{fmt}"
    path.write_text(text)
    tracemalloc.start()
    try:
        read(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def _xyz_per_line(path):
    """Reference XYZ parse: one line at a time, one ``float`` per value."""
    rows, meta = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            head = line.strip()
            if head.startswith("#"):
                key, eq, value = head.lstrip("#").partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif head:
                rows.append([float(v) for v in head.split()])
    widths = {len(row) for row in rows} or {3}
    if len(widths) > 1 or widths - {3, 6}:
        raise ValueError("bad row width")
    data = np.array(rows, dtype=np.float64).reshape(-1, widths.pop())
    return data[:, :3], data[:, 3:] if data.shape[1] == 6 else None, meta


def _ply_per_line(path):
    """Reference ASCII PLY parse: header lines up to 'end_header' (ending in LF or CRLF), then one ``float`` per value."""
    with open(path, "rb") as fh:
        lines = iter(fh)
        if next(lines, b"").decode("ascii", "replace").strip() != "ply":
            raise ValueError("not a PLY file")
        fmt, count, props, meta = None, None, [], {}
        for line in lines:
            if line.lstrip() in (b"end_header\n", b"end_header\r\n"):
                break
            words = line.decode("ascii", "replace").split()
            if words[:1] == ["comment"]:
                key, eq, value = line.decode("ascii", "replace").split(None, 1)[-1].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif words[:1] == ["format"]:
                fmt = words[1]
            elif words[:1] == ["element"]:
                if words[1] != "vertex":
                    raise ValueError("unsupported element")
                count = int(words[2])
            elif words[:1] == ["property"]:
                if words[1] != "double":
                    raise ValueError("unsupported property type")
                props.append(words[2])
        else:
            raise ValueError("missing end_header")
        body = fh.read().decode("ascii", "replace")
    if fmt != "ascii" or props not in (["x", "y", "z"], ["x", "y", "z", "nx", "ny", "nz"]):
        raise ValueError("unsupported header")
    rows = [[float(v) for v in line.split()] for line in body.splitlines() if line.strip()]
    if len(rows) != count or any(len(row) != len(props) for row in rows):
        raise ValueError("bad rows")
    data = np.array(rows, dtype=np.float64).reshape(-1, len(props))
    return data[:, :3], data[:, 3:] if len(props) == 6 else None, meta


def mutate(data: bytes, gen) -> bytes:
    """*data* after one or two of: truncation, a dropped, inserted or non-numeric token, CRLF, no final newline, a non-ASCII byte."""
    for _ in range(int(gen.integers(1, 3))):
        kind = int(gen.integers(7))
        tokens = [(m.start(), m.end()) for m in re.finditer(rb"\S+", data)]
        if kind == 0:
            data = data[: int(gen.integers(len(data) + 1))]
        elif kind in (1, 2, 3) and tokens:
            start, end = tokens[int(gen.integers(len(tokens)))]
            if kind == 1:
                data = data[:start] + data[end:]
            elif kind == 2:
                word = [b"1", b"-2.5e-3", b"inf", b"x", b"#", b"vertex"][int(gen.integers(6))]
                data = data[:end] + b" " + word + data[end:]
            else:
                data = data[:start] + [b"abc", b"1.2.3", b"--1", b"0x10"][int(gen.integers(4))] + data[end:]
        elif kind == 4:
            data = data.replace(b"\n", b"\r\n")
        elif kind == 5:
            data = data.rstrip(b"\n")
        elif kind == 6:
            at = int(gen.integers(len(data) + 1))
            data = data[:at] + [b"\xff", b"\xc3\xa9", b"\xc2\xa0"][int(gen.integers(3))] + data[at:]
    return data


def check_against_reference(path, read, reference):
    """*read* returns what *reference* returns, bit for bit, or raises a ValueError naming *path* where *reference* fails."""
    try:
        got = read(path)
    except ValueError as err:
        assert os.path.basename(path) in str(err)
        with pytest.raises((ValueError, IndexError)):
            reference(path)
        return False
    expected = reference(path)
    assert [None if a is None else a.tobytes() for a in got[:2]] == [None if a is None else a.tobytes() for a in expected[:2]]
    assert got[2] == expected[2]
    return True


@pytest.mark.parametrize("fmt", ["xyz", "ply"])
def test_mutated_files_match_the_per_line_reference(tmp_path, fmt):
    gen = np.random.default_rng(5)
    write, read, reference = (write_xyz, read_xyz, _xyz_per_line) if fmt == "xyz" else (write_ply, read_ply, _ply_per_line)
    accepted = 0
    for case in range(300):
        rows = gen.standard_normal((int(gen.integers(1, 40)), 6)) * 10.0 ** gen.integers(-300, 300, size=(1, 6))
        path = str(tmp_path / f"case{case}.{fmt}")
        write(path, rows[:, :3], rows[:, 3:] if case % 2 else None, {"seed": case})
        if case % 10:
            with open(path, "rb") as fh:
                data = mutate(fh.read(), gen)
            with open(path, "wb") as fh:
                fh.write(data)
        accepted += check_against_reference(path, read, reference)
    assert 30 <= accepted < 300
