import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polysec.cli import main
from polysec.heptagon import heptagon_extension
from polysec.jsonio import dumps, loads, polygon_to_obj, sectioned_from_obj, sectioned_to_obj
from polysec.polygon import validate

from conftest import SIX_CROSSING_HEPTAGON, SIX_VERTEX_HEXAGON


@pytest.fixture
def heptagon_file(tmp_path):
    path = tmp_path / "heptagon.json"
    path.write_text(dumps(polygon_to_obj(validate(SIX_CROSSING_HEPTAGON))))
    return str(path)


def write_polygon(tmp_path, name, points):
    path = tmp_path / name
    payload = {"vertices": [[str(x), str(y)] for x, y in points]}
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateCommand:
    def test_canonical_echo(self, heptagon_file, capsys):
        assert main(["validate", heptagon_file]) == 0
        out = loads(capsys.readouterr().out)
        assert out["vertices"][0] == ["0", "0"]
        assert len(out["vertices"]) == 7

    def test_non_convex_exit_code(self, tmp_path, capsys):
        path = write_polygon(tmp_path, "bad.json", [(0, 0), (1, 0), (2, 0), (1, 1)])
        assert main(["validate", path]) == 1
        err = loads(capsys.readouterr().err)
        assert err["error"] == "NotConvex"

    def test_malformed_rational(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}')
        assert main(["validate", str(path)]) == 1
        err = loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1

    def test_huge_exponent_rejected_without_hanging(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"vertices": [["1e99999999", "0"], ["1", "0"], ["0", "1"]]}')
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "polysec.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert loads(proc.stderr)["error"] == "ParseError"


class TestExtendVerify:
    def test_heptagon_round_trip(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "ext.json"
        assert main(["extend", heptagon_file, "--out", str(out)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["dim"] == 3 and summary["extreme_points"] <= 6
        assert summary["vertex_bound"] == 6 and summary["lower_bound_3d"] == 6
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_tampered_extension_fails_verification(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "ext.json"
        main(["extend", heptagon_file, "--out", str(out)])
        capsys.readouterr()
        obj = loads(Path(out).read_text())
        obj["vertices"][0][0] = "999"
        Path(out).write_text(json.dumps(obj))
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_verify_non_list_vertices(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 3, "vertices": 5, "claimed": {"vertices": []}}')
        assert main(["verify", str(path)]) == 1
        assert loads(capsys.readouterr().err)["error"] == "ParseError"

    def test_verify_missing_claimed(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 3, "vertices": []}')
        assert main(["verify", str(path)]) == 1
        assert loads(capsys.readouterr().err)["error"] == "ParseError"

    def test_modes_on_tengon(self, tmp_path, capsys):
        decagon = write_polygon(
            tmp_path, "ten.json",
            [(4, 0), (3, 2), (1, 3), (-1, 3), (-3, 2), (-4, 0), (-3, -2), (-1, -3),
             (1, -3), (3, -2)],
        )
        out = tmp_path / "ten3d.json"
        assert main(["extend", decagon, "--mode", "3d", "--out", str(out)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["dim"] == 3 and summary["vertices"] <= 9
        out4 = tmp_path / "tenjoin.json"
        assert main(["extend", decagon, "--mode", "join", "--out", str(out4)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["dim"] == 3 and summary["vertices"] <= 9  # ceil(60/7) = 9

    def test_hexagon_auto_routes(self, tmp_path, capsys):
        hexfile = write_polygon(tmp_path, "hex.json", [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
        out = tmp_path / "hex.ext.json"
        assert main(["extend", hexfile, "--out", str(out)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["vertices"] == 5 and summary["vertex_bound"] == 5
        hexfile6 = write_polygon(tmp_path, "hex6.json", SIX_VERTEX_HEXAGON)
        out6 = tmp_path / "hex6.ext.json"
        assert main(["extend", hexfile6, "--out", str(out6)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["vertices"] == 6 and summary["vertex_bound"] == 6
        s = sectioned_from_obj(loads(Path(out6).read_text()))
        assert all(v[2] == 0 for v in s.vertices)

    def test_pentagon_rejected(self, tmp_path, capsys):
        path = write_polygon(tmp_path, "penta.json", [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
        assert main(["extend", path]) == 1

    def test_four_dimensional_join_round_trip(self, tmp_path, capsys):
        import random

        from polysec.randgen import random_convex_polygon

        polygon = random_convex_polygon(random.Random(14), 14)
        path = write_polygon(tmp_path, "p14.json", polygon.affine_vertices())
        out = tmp_path / "p14.ext.json"
        assert main(["extend", path, "--mode", "join", "--out", str(out)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["dim"] == 4 and summary["vertices"] <= 12
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()
        assert main(["factorize", path, str(out)]) == 0
        bundle = loads(capsys.readouterr().out)
        assert bundle["R"]["shape"][0] == 14 and bundle["C"]["shape"][1] == 14
        assert bundle["r"] <= 12


class TestSlackFactorize:
    def test_slack_output_shape(self, heptagon_file, capsys):
        assert main(["slack", heptagon_file]) == 0
        out = loads(capsys.readouterr().out)
        assert out["shape"] == [7, 7]
        assert out["entries"][0][0] == "0"

    def test_factorize_bundle(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "ext.json"
        main(["extend", heptagon_file, "--out", str(out)])
        capsys.readouterr()
        assert main(["factorize", heptagon_file, str(out)]) == 0
        bundle = loads(capsys.readouterr().out)
        assert bundle["r"] == 6
        assert bundle["R"]["shape"] == [7, 6] and bundle["C"]["shape"] == [6, 7]
        assert len(bundle["extension_sha256"]) == 64

    def test_missing_extension_file(self, heptagon_file, tmp_path, capsys):
        assert main(["factorize", heptagon_file, str(tmp_path / "missing.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and loads(err)["error"] == "DomainError"

    def test_mismatched_pair(self, heptagon_file, tmp_path, capsys):
        square = write_polygon(tmp_path, "sq.json", [(0, 0), (1, 0), (1, 1), (0, 1)])
        out = tmp_path / "ext.json"
        main(["extend", heptagon_file, "--out", str(out)])
        capsys.readouterr()
        assert main(["factorize", square, str(out)]) == 1


class TestFuzzCommand:
    def test_invariant_target(self, capsys):
        assert main(["fuzz", "invariant", "--count", "20", "--seed", "11"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 21
        assert loads(lines[-1]) == {"target": "invariant", "seed": 11, "count": 20, "failures": 0}

    def test_heptagon_target(self, capsys):
        assert main(["fuzz", "heptagon", "--count", "5", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(loads(line).get("ok", True) for line in lines)

    def test_seed_repetition_identical_report(self, capsys):
        main(["fuzz", "ngon", "--count", "3", "--seed", "8"])
        first = capsys.readouterr().out
        main(["fuzz", "ngon", "--count", "3", "--seed", "8"])
        second = capsys.readouterr().out
        assert first == second


class TestUsageAndEnvironment:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["extend"])
        assert exc.value.code == 2


class TestSvgCommand:
    def test_heptagon_with_lines_and_labels(self, heptagon_file, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["svg", heptagon_file, "--std-lines", "--labels", "--out", str(out)]) == 0
        text = Path(out).read_text()
        assert text.startswith("<svg") and "</svg>" in text
        assert text.count("<line") == 6  # one of the seven lines misses the viewport pair count
        assert "p0" in text

    def test_triangle_outline_only(self, tmp_path):
        path = write_polygon(tmp_path, "tri.json", [(0, 0), (1, 0), (0, 1)])
        out = tmp_path / "tri.svg"
        assert main(["svg", path, "--std-lines", "--out", str(out)]) == 0
        text = Path(out).read_text()
        assert "<path" in text and "<line" not in text

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["svg", str(tmp_path / "none.json")]) == 1


# Malformed and oversized input for the commands that read files.
OVERSIZED_SCALARS = ["9" * 4000, "9" * 4301, "1/" + "7" * 9999, "1e99999999", "-1e-99999999",
                     "1e3999", "9" * 3000 + "e999"]
scalars = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=5).map(str),
    st.integers(-10, 10),
    st.sampled_from(OVERSIZED_SCALARS + ["1/0", "nan", "inf", "x", "", "1e", "0.5"]),
    st.none(), st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
pair_lists = st.lists(st.one_of(st.lists(scalars, min_size=2, max_size=2), json_values), max_size=8)
VALID_POLYGON = polygon_to_obj(validate(SIX_CROSSING_HEPTAGON))
VALID_EXTENSION = sectioned_to_obj(heptagon_extension(validate(SIX_CROSSING_HEPTAGON)))


def mutated(doc: dict, fields: tuple):
    """The valid document with up to two fields or coordinates replaced."""
    edits = st.lists(st.tuples(st.sampled_from(fields), st.integers(0, 9), st.integers(0, 2),
                               scalars), max_size=2)

    def apply(changes):
        out = json.loads(json.dumps(doc))
        for field, i, j, value in changes:
            if field == "dim":
                out["dim"] = value
                continue
            rows = out["claimed"]["vertices"] if field == "claimed" else out["vertices"]
            row = rows[i % len(rows)]
            row[j % len(row)] = value
        return out

    return edits.map(apply)


polygon_docs = st.one_of(mutated(VALID_POLYGON, ("vertices",)),
                         st.fixed_dictionaries({"vertices": st.one_of(pair_lists, json_values)}),
                         json_values)
sectioned_docs = st.one_of(
    mutated(VALID_EXTENSION, ("dim", "vertices", "claimed")),
    st.fixed_dictionaries({
        "dim": st.one_of(st.integers(-1, 5), json_values),
        "vertices": st.one_of(st.lists(st.lists(scalars, min_size=1, max_size=4), max_size=6),
                              json_values),
        "claimed": st.one_of(st.fixed_dictionaries({"vertices": pair_lists}), json_values),
    }),
    json_values,
)


def as_file_bytes(doc_strategy):
    return st.one_of(
        doc_strategy.map(lambda doc: json.dumps(doc).encode()),
        st.sampled_from([b"", b"{", b"[" * 5000, b"1" * 5000, b"\xff\xfe{", b'{"vertices": [["1"']),
        st.binary(max_size=32),
    )


class TestMalformedInput:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(polygon=as_file_bytes(polygon_docs), extension=as_file_bytes(sectioned_docs))
    def test_exit_codes_and_json_errors(self, polygon, extension):
        with tempfile.TemporaryDirectory() as tmp:
            poly_path, ext_path = Path(tmp) / "poly.json", Path(tmp) / "ext.json"
            poly_path.write_bytes(polygon)
            ext_path.write_bytes(extension)
            for argv in (["validate", str(poly_path)], ["verify", str(ext_path)],
                         ["factorize", str(poly_path), str(ext_path)]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, err.getvalue())
                if code == 0:
                    continue
                if argv[0] == "verify" and err.getvalue() == "":
                    assert out.getvalue().startswith("FAIL")  # a parsed but false claim
                    continue
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and "error" in json.loads(lines[0])
