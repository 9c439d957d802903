import json
import math

import numpy as np
import pytest

from croftoncloud import cli, cloudio
from croftoncloud.surfaces import tetrahedron_mesh


@pytest.fixture
def tetra_off(tmp_path):
    verts, faces = np.unique(tetrahedron_mesh().triangles.reshape(-1, 3), axis=0, return_inverse=True)
    faces = faces.reshape(-1, 3)
    path = tmp_path / "tetra.off"
    lines = [f"OFF\n{len(verts)} {len(faces)} 0\n"]
    lines += [f"{x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist()]
    lines += [f"3 {a} {b} {c}\n" for a, b, c in faces.tolist()]
    path.write_text("".join(lines))
    return str(path)


def _estimate(out: str) -> tuple[float, float]:
    # first output line: "<label>  <value> +- <standard error>"
    fields = out.splitlines()[0].split()
    return float(fields[1]), float(fields[3])


class TestGenerateAndAudit:
    def test_sphere_cloud_passes_audit(self, tmp_path):
        cloud, records = str(tmp_path / "s.ply"), tmp_path / "r.jsonl"
        assert cli.main(["generate", "--surface", "sphere", "--n", "20000", "-o", cloud]) == 0
        assert cli.main(["audit", "--cloud", cloud, "--surface", "sphere", "--records", str(records)]) == 0
        lines = records.read_text().splitlines()
        assert lines
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_axis_aligned_cloud_fails_density_audit(self, tmp_path, capsys):
        # axis-parallel lines give density proportional to |n_x| + |n_y| + |n_z|
        cloud = str(tmp_path / "a.xyz")
        args = ["generate", "--surface", "sphere", "--sampler", "axis-aligned", "--n", "20000", "-o", cloud]
        assert cli.main(args) == 0
        assert cli.main(["audit", "--cloud", cloud, "--surface", "sphere"]) == cli.AUDIT_FAILURE
        assert "density max/min ratio" in capsys.readouterr().out

    def test_mesh_only_surface_names_the_triangle_sampler(self, tmp_path, capsys):
        args = ["generate", "--surface", "tetrahedron", "--n", "100", "-o", str(tmp_path / "t.xyz")]
        assert cli.main(args) == cli.USAGE_ERROR
        assert "--sampler triangulated" in capsys.readouterr().err

    def test_mesh_path_has_no_chart(self, tmp_path, tetra_off, capsys):
        output = str(tmp_path / "t.xyz")
        args = ["generate", "--surface", tetra_off, "--sampler", "parametric", "--n", "100", "-o", output]
        assert cli.main(args) == cli.USAGE_ERROR
        assert "--sampler triangulated" in capsys.readouterr().err

    def test_surface_not_found_is_a_numeric_failure(self, tmp_path, capsys):
        # x^2 + y^2 + z^2 + 1 has no zero set: every line misses
        output = tmp_path / "none.xyz"
        args = ["generate", "--surface", "x^2+y^2+z^2+1", "--n", "10", "--scan-steps", "2", "-o", str(output)]
        assert cli.main(args) == cli.NUMERIC_ERROR
        assert "surface not found" in capsys.readouterr().err
        assert not output.exists()

    def test_generate_ignores_thread_variable(self, tmp_path, monkeypatch):
        # a file depends on the seed and the configuration only
        monkeypatch.delenv("CROFTONCLOUD_THREADS", raising=False)
        paths = [tmp_path / f"s{i}.xyz" for i in range(2)]
        for path in paths:
            assert cli.main(["generate", "--surface", "sphere", "--n", "3001", "-o", str(path)]) == 0
            monkeypatch.setenv("CROFTONCLOUD_THREADS", "2")
        assert paths[0].read_bytes() == paths[1].read_bytes()
        positions, normals, meta = cloudio.read_cloud(str(paths[0]))
        assert len(positions) >= 3001 and normals.shape == positions.shape
        assert np.allclose(np.linalg.norm(positions, axis=1), 1.0, atol=1e-9)
        assert "threads" not in meta

    def test_method_option_is_gone(self, tmp_path):
        output = str(tmp_path / "s.xyz")
        args = ["generate", "--surface", "sphere", "--method", "bisection", "--n", "100", "-o", output]
        assert cli.main(args) == cli.USAGE_ERROR


class TestEstimates:
    def test_area_of_off_tetrahedron(self, tetra_off, capsys):
        assert cli.main(["area", "--surface", tetra_off, "--m", "20000", "--seed", "3"]) == 0
        value, se = _estimate(capsys.readouterr().out)
        assert abs(value - 8.0 * math.sqrt(3.0)) < 3.0 * se

    def test_integrate_one_over_off_tetrahedron(self, tetra_off, capsys):
        assert cli.main(["integrate", "--surface", tetra_off, "--f", "1", "--m", "20000", "--seed", "4"]) == 0
        value, se = _estimate(capsys.readouterr().out)
        assert abs(value - 8.0 * math.sqrt(3.0)) < 3.0 * se

    def test_clip_inside_off_tetrahedron_sees_nothing(self, tetra_off, capsys):
        # the ball of radius 0.5 lies inside the tetrahedron, whose inradius is 1/sqrt(3)
        with pytest.warns(UserWarning, match="truncate"):
            assert cli.main(["area", "--surface", tetra_off, "--r", "0.5", "--m", "2000", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert _estimate(out) == (0.0, 0.0)
        assert "hits histogram  0:2000" in out

    def test_clip_at_midsphere_of_off_tetrahedron(self, tetra_off, capsys):
        # the unit sphere touches the six edges: it cuts each face in its
        # inscribed disk, of radius sqrt(2/3), so the clipped area is 8 pi / 3
        with pytest.warns(UserWarning, match="truncate"):
            assert cli.main(["area", "--surface", tetra_off, "--r", "1", "--m", "20000", "--seed", "7"]) == 0
        value, se = _estimate(capsys.readouterr().out)
        assert abs(value - 8.0 * math.pi / 3.0) < 3.0 * se

    def test_area_of_expression_sphere(self, capsys):
        assert cli.main(["area", "--surface", "x^2+y^2+z^2-1", "--m", "20000", "--seed", "5"]) == 0
        value, se = _estimate(capsys.readouterr().out)
        assert abs(value - 4.0 * math.pi) < 3.0 * se


class TestBench:
    def test_records(self, tmp_path):
        records = tmp_path / "b.jsonl"
        args = ["bench", "--dims", "2", "--budgets", "100,1000", "--seeds", "4", "--records", str(records)]
        assert cli.main(args) == 0
        assert all(isinstance(json.loads(line), dict) for line in records.read_text().splitlines())
