import json
import math
import warnings

import numpy as np
import pytest

import croftoncloud
from croftoncloud import cli, cloudio, samplers
from croftoncloud.rng import Pseudo
from croftoncloud.surfaces import sphere_implicit, tetrahedron_mesh


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

    def test_nonfinite_cloud_fails_without_surface_tests(self, tmp_path, capsys):
        cloud = samplers.cloud_implicit(sphere_implicit(), Pseudo(1), 5000)
        positions = cloud.positions.copy()
        positions[3] = np.nan
        path = str(tmp_path / "nan.xyz")
        cloudio.write_cloud(path, positions, cloud.normals, fmt="xyz")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["audit", "--cloud", path, "--surface", "sphere"]) == cli.AUDIT_FAILURE
        captured = capsys.readouterr()
        assert "finite coordinates: FAIL" in captured.out and "skipped (non-finite coordinates)" in captured.out
        assert "region" not in captured.out and "audit: FAIL" in captured.out
        assert not caught and not captured.err

    def test_axis_aligned_cloud_fails_density_audit(self, tmp_path, capsys):
        # axis-parallel lines give density proportional to |n_x| + |n_y| + |n_z|
        cloud = str(tmp_path / "a.xyz")
        args = ["generate", "--surface", "sphere", "--sampler", "axis-aligned", "--n", "20000", "-o", cloud]
        assert cli.main(args) == 0
        assert cli.main(["audit", "--cloud", cloud, "--surface", "sphere"]) == cli.AUDIT_FAILURE
        assert "density max/min ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("surface", ["tetrahedron", "off"])
    def test_crofton_cloud_on_a_mesh_has_face_normals(self, tmp_path, tetra_off, surface):
        # the default crofton sampler reads a mesh, catalog or file, through the estimators' resolver
        output = str(tmp_path / "t.xyz")
        spec = tetra_off if surface == "off" else surface
        assert cli.main(["generate", "--surface", spec, "--n", "100", "-o", output]) == 0
        positions, normals, _ = cloudio.read_cloud(output)
        assert len(positions) >= 100 and normals is not None and normals.shape == positions.shape
        # every normal is one of the four face normals, to the file's printed precision
        faces = tetrahedron_mesh().normals
        assert np.allclose(np.abs(normals @ faces.T).max(axis=1), 1.0, atol=1e-6)

    def test_clip_radius_is_refused_on_a_mesh_under_crofton(self, tmp_path, capsys):
        output = tmp_path / "t.xyz"
        args = ["generate", "--surface", "tetrahedron", "--sampler", "crofton", "--r", "1.5", "--n", "100", "-o", str(output)]
        assert cli.main(args) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "--r clips only an implicit surface" in err and "'tetrahedron' as a mesh" in err
        assert not output.exists()

    def test_mesh_path_has_no_chart(self, tmp_path, tetra_off, capsys):
        output = str(tmp_path / "t.xyz")
        args = ["generate", "--surface", tetra_off, "--sampler", "parametric", "--n", "100", "-o", output]
        assert cli.main(args) == cli.USAGE_ERROR
        assert "--sampler triangulated" in capsys.readouterr().err

    @pytest.mark.parametrize("sampler", ["triangulated", "parametric"])
    def test_clip_radius_is_refused_by_samplers_that_ignore_it(self, tmp_path, capsys, sampler):
        output = tmp_path / "c.xyz"
        args = ["generate", "--surface", "torus", "--sampler", sampler, "--r", "0.1", "--n", "100", "-o", str(output)]
        assert cli.main(args) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert f"--sampler {sampler}" in err and "--sampler crofton" in err and "--sampler axis-aligned" in err
        kind = {"triangulated": "mesh", "parametric": "chart"}[sampler]
        assert "--r clips only an implicit surface" in err and f"'torus' as a {kind}" in err
        assert not output.exists()

    @pytest.mark.parametrize(
        "args, kind",
        [
            (["area", "--surface", "torus", "--res", "1", "--m", "10"], "an implicit surface"),
            (["area", "--surface", "tetrahedron", "--res", "5", "--m", "10"], "a mesh"),
            (["integrate", "--surface", "torus", "--res", "5", "--m", "10", "--f", "x"], "an implicit surface"),
            (["area", "--surface", "x^2+y^2+z^2-1", "--res", "5", "--m", "10"], "an implicit surface"),
            (["generate", "--surface", "torus", "--sampler", "crofton", "--res", "24", "--n", "10"], "an implicit surface"),
            (["generate", "--surface", "tetrahedron", "--sampler", "triangulated", "--res", "24", "--n", "10"], "a mesh"),
            (["generate", "--surface", "MESH", "--sampler", "axis-aligned", "--res", "24", "--n", "10"], "a mesh"),
        ],
        ids=["area-torus", "area-tetrahedron", "integrate-torus", "area-expression", "crofton-torus", "mesh-catalog", "mesh-file"],
    )
    def test_res_is_refused_without_a_chart(self, tmp_path, tetra_off, capsys, args, kind):
        output = tmp_path / "c.xyz"
        args = [tetra_off if arg == "MESH" else arg for arg in args]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args + (["-o", str(output)] if args[0] == "generate" else [])) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: --res sets only a chart's grid") and f"read here as {kind}" in line
        assert not caught and not captured.out and not output.exists()

    def test_surface_not_found_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # x^2 + y^2 + z^2 + 1 has no zero set: every line misses
        monkeypatch.setattr(samplers, "MAX_EMPTY_LINES", 20_000)
        output = tmp_path / "none.xyz"
        args = ["generate", "--surface", "x^2+y^2+z^2+1", "--n", "10", "-o", str(output)]
        assert cli.main(args) == cli.NUMERIC_ERROR
        assert "surface not found" in capsys.readouterr().err
        assert not output.exists()

    def test_nonfinite_field_is_one_error_and_no_warning(self, capsys):
        # 1/(x-x) divides by zero at every scan node
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["area", "--surface", "1/(x-x)", "--m", "100", "--seed", "1"]) == cli.NUMERIC_ERROR
        err = capsys.readouterr().err
        assert "field not finite at (x, y, z) = (" in err and "t = " in err
        assert "RuntimeWarning" not in err and not caught

    def test_a_pole_is_not_a_crossing(self, capsys):
        # 1/x changes sign through its pole at x = 0 but has no zero set
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["integrate", "--surface", "1/x", "--f", "1", "--m", "2000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert _estimate(out) == (0.0, 0.0) and "hits histogram  0:2000" in out and not caught

    def test_nonfinite_integrand_is_one_error_and_no_warning(self, capsys):
        # x^0.5 is nan on the half of the sphere where x < 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = ["integrate", "--surface", "sphere", "--f", "x^0.5", "--m", "1000", "--seed", "1"]
            assert cli.main(args) == cli.NUMERIC_ERROR
        captured = capsys.readouterr()
        assert "numeric failure: integrand not finite at (x, y, z) = (" in captured.err
        assert "RuntimeWarning" not in captured.err and not caught and not captured.out

    @pytest.mark.parametrize("spec", ["+".join(["x"] * 1500), "(" * 250 + "x" + ")" * 250], ids=["chain", "parentheses"])
    def test_deep_expression_is_a_usage_error(self, capsys, spec):
        assert cli.main(["area", "--surface", spec, "--m", "10"]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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

    def test_crofton_metadata_keys(self, tmp_path):
        path = str(tmp_path / "s.xyz")
        assert cli.main(["generate", "--surface", "sphere", "--r", "1.5", "--n", "200", "--seed", "2", "-o", path]) == 0
        _, _, meta = cloudio.read_cloud(path)
        assert set(meta) == {"generator", "surface", "sampler", "seed", "n", "r"}
        assert (meta["sampler"], meta["seed"], meta["n"], meta["r"]) == ("crofton", "2", "200", "1.5")

    def test_padded_surface_spec_is_stored_stripped(self, tmp_path):
        # the expression means the same without its blanks, and metadata refuses blanks at either end of a value
        path = tmp_path / "s.xyz"
        assert cli.main(["generate", "--surface", " x^2+y^2+z^2-1 ", "--n", "100", "-o", str(path)]) == 0
        assert "# surface=x^2+y^2+z^2-1\n" in path.read_text()
        assert cloudio.read_cloud(str(path))[2]["surface"] == "x^2+y^2+z^2-1"

    def test_padded_catalog_name_is_the_catalog_surface(self, tmp_path):
        clouds = []
        for spec in (" torus ", "torus"):
            path = str(tmp_path / f"{len(spec)}.xyz")
            assert cli.main(["generate", "--surface", spec, "--n", "300", "--seed", "4", "-o", path]) == 0
            clouds.append(cloudio.read_cloud(path))
        (padded, _, meta), (plain, _, _) = clouds
        assert meta["surface"] == "torus" and padded.tobytes() == plain.tobytes()

    def test_triangulated_pyramid_cloud_passes_audit(self, tmp_path):
        # fixed seed; the audit's region, k=2 and density gates fail about 1% of seeds on a uniform cloud
        cloud = str(tmp_path / "p.ply")
        args = ["generate", "--surface", "pyramid", "--sampler", "triangulated", "--n", "20000", "-o", cloud]
        assert cli.main(args) == 0
        assert cli.main(["audit", "--cloud", cloud, "--surface", "pyramid"]) == 0

    def test_method_option_is_gone(self, tmp_path):
        output = str(tmp_path / "s.xyz")
        args = ["generate", "--surface", "sphere", "--method", "bisection", "--n", "100", "-o", output]
        assert cli.main(args) == cli.USAGE_ERROR


#: (--format, output name, first bytes of the file)
_FORMATS = [
    ("xyz", "c.xyz", b"# generator="),
    ("ply", "c.ply", b"ply\nformat ascii 1.0\n"),
    ("ply-binary", "c.ply", b"ply\nformat binary_little_endian 1.0\n"),
    ("auto", "c.ply", b"ply\nformat ascii 1.0\n"),
    ("auto", "c.xyz", b"# generator="),
]


class TestGenerateTriangleSamplers:
    """--sampler triangulated and parametric in every output format, read back with read_cloud."""

    @pytest.mark.parametrize("sampler", ["triangulated", "parametric"])
    @pytest.mark.parametrize("fmt, name, head", _FORMATS, ids=["xyz", "ply", "ply-binary", "auto-ply", "auto-xyz"])
    def test_torus_cloud_reads_back(self, tmp_path, sampler, fmt, name, head):
        path = tmp_path / name
        args = ["generate", "--surface", "torus", "--sampler", sampler, "--res", "24", "--n", "500"]
        assert cli.main(args + ["--seed", "5", "--format", fmt, "-o", str(path)]) == 0
        assert path.read_bytes().startswith(head)
        positions, normals, meta = cloudio.read_cloud(str(path))
        assert positions.shape == normals.shape == (500, 3)
        assert meta == {
            "generator": f"croftoncloud {croftoncloud.__version__}",
            "surface": "torus",
            "sampler": sampler,
            "seed": "5",
            "n": "500",
            "res": "24",
        }
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        # the torus normal at p points from the nearest ring point to p
        rho = np.hypot(positions[:, 0], positions[:, 1])
        radial = positions - np.column_stack([2.0 * positions[:, :2] / rho[:, None], np.zeros(len(rho))])
        cosines = np.abs(np.einsum("ij,ij->i", normals, radial)) / np.linalg.norm(radial, axis=1)
        if sampler == "parametric":
            # chart points lie on the torus, with its exact normal
            assert np.allclose((rho - 2.0) ** 2 + positions[:, 2] ** 2, 0.25, atol=1e-12)
            assert cosines.min() > 1.0 - 1e-8
        else:
            # flat facets of a 24 x 24 grid tilt at most about half a cell from the true normal
            assert cosines.min() > math.cos(2.0 * math.pi / 24)


class TestEstimates:
    def test_catalog_and_off_tetrahedron_agree(self, tetra_off, capsys):
        # both clip at the mesh's bounding radius, so they draw the same lines
        assert cli.main(["area", "--surface", "tetrahedron", "--m", "20000", "--seed", "3"]) == 0
        catalog = capsys.readouterr().out
        assert cli.main(["area", "--surface", tetra_off, "--m", "20000", "--seed", "3"]) == 0
        assert capsys.readouterr().out == catalog
        assert catalog.startswith("area  13.688575 +- 0.128197\n")

    def test_padded_catalog_name_is_the_catalog_surface(self, capsys):
        assert cli.main(["area", "--surface", " torus ", "--m", "2000", "--seed", "5"]) == 0
        padded = capsys.readouterr().out
        assert cli.main(["area", "--surface", "torus", "--m", "2000", "--seed", "5"]) == 0
        assert capsys.readouterr().out == padded and padded.startswith("area  ")

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

    @pytest.mark.parametrize("surface", ["tetrahedron", "sphere"])
    @pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
    def test_bad_clip_is_one_error_and_no_warning(self, capsys, surface, radius):
        # a mesh's clip is refused before the warning that it may truncate the surface
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["area", "--surface", surface, "--m", "10", "--r", radius]) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: clip radius must be positive and finite, got {float(radius)}\n"
        assert not caught and not captured.out

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

    @pytest.mark.parametrize(
        "option, value",
        [("--budgets", ","), ("--budgets", "0"), ("--seeds", "0"), ("--budgets", "1"), ("--budgets", "100,100")],
        ids=["no-budgets", "zero-budget", "no-seeds", "one-budget", "one-distinct-budget"],
    )
    def test_bad_input_is_one_error_and_no_warning(self, capsys, option, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["bench", "--dims", "2", "--budgets", "10,100", option, value]) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not caught and not captured.out
