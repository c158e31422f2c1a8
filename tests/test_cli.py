import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polysec import cli, compose, exactgeom, linalg, sections, slack
from polysec import heptagon as heptagon_module
from polysec import hexagon as hexagon_module
from polysec import polygon as polygon_module
from polysec.cli import main
from polysec.compose import ngon_3d_extension, ngon_extension
from polysec.heptagon import heptagon_extension
from polysec.jsonio import dumps, loads, polygon_from_obj, polygon_to_obj, sectioned_from_obj, sectioned_to_obj
from polysec.polygon import Polygon, ProjMap2, convex_hull_2d, validate
from polysec.randgen import random_convex_polygon, random_hexagon_params

from conftest import (
    AFFINE_REGULAR_HEXAGON,
    SIX_CROSSING_HEPTAGON,
    SIX_VERTEX_HEXAGON,
    count_calls,
    count_calls_everywhere,
    fractions_made_inside,
    row_of,
    vertex_of,
)


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


def opposite_sign_pairs(rows) -> int:
    """The pairs of distinct rows with one off-H support whose first
    coordinates off H have opposite signs, counted from the rows alone."""
    signs = {}
    for row in set(rows):
        support = [k for k in range(2, len(row) - 1) if row[k]]
        if support:
            signs.setdefault(tuple(support), []).append(row[support[0]] > 0)
    return sum(side.count(True) * side.count(False) for side in signs.values())


def run_cli_process(argv: list) -> subprocess.CompletedProcess:
    """Run the CLI on argv in a fresh interpreter, on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "polysec.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


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
        proc = run_cli_process(["validate", str(path)])
        assert proc.returncode == 1
        assert loads(proc.stderr)["error"] == "ParseError"


class TestJsonNumberLiterals:
    """A JSON float literal is read as its own decimal text, exactly."""

    def validated(self, tmp_path, capsys, y_literal):
        path = tmp_path / "triangle.json"
        path.write_text('{"vertices": [["0", "0"], ["1", "0"], [0, %s]]}' % y_literal)
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        return code, (loads(out) if code == 0 else loads(err))

    def test_digits_past_double_precision(self, tmp_path, capsys):
        code, out = self.validated(tmp_path, capsys, "0.30000000000000001")
        assert code == 0 and out["vertices"][1] == ["0", "30000000000000001/100000000000000000"]

    def test_integer_valued_float_past_double_precision(self, tmp_path, capsys):
        code, out = self.validated(tmp_path, capsys, "12345678901234567891.0")
        assert code == 0 and out["vertices"][1] == ["0", "12345678901234567891"]

    def test_exponent_below_double_range(self, tmp_path, capsys):
        # read as a double this is 0, and (0, 0) a duplicate vertex
        code, out = self.validated(tmp_path, capsys, "1e-400")
        assert code == 0 and out["vertices"][1] == ["0", "1/1" + "0" * 400]

    @pytest.mark.parametrize("literal", ["1e99999999", "1" * 10_001 + ".0"])
    def test_caps_still_apply(self, tmp_path, capsys, literal):
        code, err = self.validated(tmp_path, capsys, literal)
        assert code == 1 and err["error"] == "ParseError"

    @pytest.mark.parametrize("zero, code", [('"0"', 0), ("0", 0), ("false", 1)])
    def test_zero_coordinates(self, tmp_path, capsys, zero, code):
        # the off-H zeros decide the supports; false is no number, and
        # False == "0" is false
        rows = [["Z", "Z", "-1", "Z"], ["1", "Z", "-1", "Z"], ["Z", "1", "-1", "Z"], ["Z", "Z", "1", "Z"]]
        claim = [["0", "0"], ["1/2", "0"], ["0", "1/2"]]
        path = tmp_path / "ext.json"
        path.write_text(json.dumps({"dim": 4, "vertices": rows, "claimed": {"vertices": claim}})
                        .replace('"Z"', zero))
        assert main(["verify", str(path)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out.strip() == "PASS"
        else:
            assert loads(err)["error"] == "ParseError"

    def test_float_dimension_rejected(self, tmp_path, capsys):
        doc = json.dumps(VALID_EXTENSION)
        assert '"dim": 3,' in doc
        path = tmp_path / "ext.json"
        path.write_text(doc.replace('"dim": 3,', '"dim": 3.0,'))
        assert main(["verify", str(path)]) == 1
        assert loads(capsys.readouterr().err)["error"] == "ParseError"


class TestExtendVerify:
    def test_heptagon_round_trip(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "ext.json"
        assert main(["extend", heptagon_file, "--out", str(out)]) == 0
        summary = loads(capsys.readouterr().out)
        assert summary["dim"] == 3 and summary["extreme_points"] <= 6
        assert summary["vertex_bound"] == 6 and summary["lower_bound_3d"] == 6
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_hexagon_decided_once(self, tmp_path, capsys, monkeypatch):
        # _extend decides the hexagon once, to choose 5 or 6 vertices, and
        # hexagon_extension5 takes its own decision of the same polygon
        chosen = count_calls(monkeypatch, cli, "hexagon_ic")
        taken = count_calls(monkeypatch, hexagon_module, "hexagon_ic")
        path = write_polygon(tmp_path, "hexagon.json", AFFINE_REGULAR_HEXAGON)
        assert main(["extend", str(path), "--out", str(tmp_path / "ext.json")]) == 0
        assert loads(capsys.readouterr().out)["vertices"] == 5
        assert len(chosen) == len(taken) == 1 and chosen == taken

    def test_tampered_extension_fails_verification(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "ext.json"
        main(["extend", heptagon_file, "--out", str(out)])
        capsys.readouterr()
        obj = loads(Path(out).read_text())
        obj["vertices"][0][0] = "999"
        Path(out).write_text(json.dumps(obj))
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_false_claim_in_dimension_four_fails(self, tmp_path, capsys):
        # the three off-plane vertices average to (5, 5) on H, outside the
        # claimed square; no segment between two vertices crosses H there
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(false_square_claim([(5, 5)] * 3, (1, 0), (0, 1))))
        assert main(["verify", str(ext)]) == 1
        assert capsys.readouterr().out.startswith("FAIL")

    def test_true_section_in_dimension_four_passes(self, tmp_path, capsys):
        doc = false_square_claim([(5, 5)] * 3, (1, 0), (0, 1))
        doc["claimed"]["vertices"] = [["0", "0"], ["1", "0"], ["5", "5"], ["0", "1"]]
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(doc))
        assert main(["verify", str(ext)]) == 0
        assert capsys.readouterr().out == "PASS\n"

    def test_verify_crosses_within_blocks_and_builds_no_hull(self, tmp_path, capsys, monkeypatch):
        polygon = random_convex_polygon(random.Random(28), 28)
        path = write_polygon(tmp_path, "p28.json", polygon.vertices)
        ext = tmp_path / "p28.ext.json"
        assert main(["extend", path, "--mode", "join", "--out", str(ext)]) == 0
        assert loads(capsys.readouterr().out)["vertices"] == 24
        crossings = count_calls_everywhere(monkeypatch, sections, "_segment_flat_crossing")
        hulls = count_calls_everywhere(monkeypatch, polygon_module, "convex_hull_2d")
        assert main(["verify", str(ext)]) == 0
        # 4 blocks of 6 vertices: only the pairs of one block whose first
        # off-H coordinates have opposite signs, at most 4 * 15, not
        # 24 * 23 / 2 = 276; no hull: validate accepts the claim without
        # one, and verify matches the claim against the crossings
        assert len(crossings) == opposite_sign_pairs(sectioned_from_obj(loads(ext.read_text())).rows) <= 60
        assert hulls == []

    def test_140gon_join_soundness(self, tmp_path, capsys, monkeypatch):
        # a join at benchmark scale passes; a claim one vertex of which is
        # moved outward by 2^-600, or dropped, is still a convex polygon and
        # fails.  validate accepts each claim with no hull, and verify reads
        # every text of the written forms with no per-text _ratio call
        polygon = random_convex_polygon(random.Random(140), 140)
        doc = sectioned_to_obj(ngon_extension(polygon))
        claim = doc["claimed"]["vertices"]
        x0, y0 = (Fraction(c) for c in claim[0])  # the leftmost vertex
        moved = [[str(x0 - Fraction(1, 2**600)), str(y0)], *claim[1:]]
        hulls = count_calls_everywhere(monkeypatch, polygon_module, "convex_hull_2d")
        texts = count_calls_everywhere(monkeypatch, exactgeom, "_ratio")
        # every verify tests exactly the opposite-sign pairs of each block
        crossings = count_calls_everywhere(monkeypatch, sections, "_segment_flat_crossing")
        pairs = opposite_sign_pairs(sectioned_from_obj(doc).rows)
        for vertices, code, out in ((claim, 0, "PASS"), (moved, 1, "FAIL"), (claim[1:], 1, "FAIL")):
            hulls.clear()
            crossings.clear()
            assert validate([(Fraction(x), Fraction(y)) for x, y in vertices]).n == len(vertices)
            assert hulls == []
            path = tmp_path / "join.json"
            path.write_text(dumps({**doc, "claimed": {"vertices": vertices}}))
            assert main(["verify", str(path)]) == code
            assert capsys.readouterr().out.startswith(out)
            assert texts == [] and len(crossings) == pairs

    def test_verify_tests_the_claim_convex_once(self, tmp_path, capsys, monkeypatch):
        # the seed-1 heptagon extension, 28-gon join and 140-gon join: the
        # reader's Polygon constructor tests the claim's convexity, and the
        # matching takes the Polygon as canonical without testing it again
        files = [(heptagon_extension, 7), (ngon_extension, 28), (ngon_extension, 140)]
        paths = []
        for k, (build, n) in enumerate(files):
            path = tmp_path / f"{k}.ext.json"
            path.write_text(dumps(sectioned_to_obj(build(random_convex_polygon(random.Random(1), n)))))
            paths.append(str(path))
        cycles = count_calls_everywhere(monkeypatch, polygon_module, "_convex_cycle")
        for path in paths:
            cycles.clear()
            assert main(["verify", path]) == 0
            assert capsys.readouterr().out == "PASS\n"
            assert len(cycles) == 1

    def test_file_flag_is_not_trusted(self):
        # only verify_section sets the flag; the writer still records it
        s = sectioned_from_obj(false_square_claim([(5, 5)] * 3, (1, 0), (0, 1)))
        assert not s.certified and sectioned_to_obj(s)["certified"] is False
        assert sectioned_from_obj(VALID_EXTENSION).certified is False

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

    @pytest.mark.parametrize("n", [8, 15])
    def test_auto_routes_ngons_to_the_join(self, n, tmp_path, capsys):
        path = write_polygon(tmp_path, "p.json", random_convex_polygon(random.Random(n), n).vertices)
        outputs = []
        for mode in ("auto", "join"):
            out = tmp_path / f"{mode}.json"
            assert main(["extend", path, "--mode", mode, "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert loads(outputs[0][0])["dim"] == 2 + n // 7

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

    def test_coordinates_past_digit_limit_refused(self, tmp_path, capsys):
        # ~1750-character input coordinates grow past the 4300-digit limit
        polygon = random_convex_polygon(random.Random(3), 7)
        points = [(x + Fraction(3**1800 + i, 2**2900 + 7 * i + 1), y)
                  for i, (x, y) in enumerate(polygon.vertices)]
        path = write_polygon(tmp_path, "big.json", validate(points).vertices)
        out = tmp_path / "big.ext.json"
        assert main(["extend", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and loads(err)["error"] == "ScaleExceeded"
        assert not out.exists()

    def test_out_into_missing_directory(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "missing" / "ext.json"
        assert main(["extend", heptagon_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert loads(captured.err)["error"] == "DomainError"

    def test_pentagon_rejected(self, tmp_path, capsys):
        path = write_polygon(tmp_path, "penta.json", [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
        assert main(["extend", path]) == 1

    def test_four_dimensional_join_round_trip(self, tmp_path, capsys):
        polygon = random_convex_polygon(random.Random(14), 14)
        path = write_polygon(tmp_path, "p14.json", polygon.vertices)
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

    def test_slack_output_unchanged(self, tmp_path, capsys):
        cases = {"triangle": [(0, 0), (1, 0), (0, 1)], "heptagon": SIX_CROSSING_HEPTAGON,
                 "14gon": random_convex_polygon(random.Random(20261019), 14).vertices}
        digests = {}
        for name, points in cases.items():
            assert main(["slack", write_polygon(tmp_path, name + ".json", points)]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        assert digests == PINNED_SLACK_SHA256

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

    def test_false_claim_exits_one(self, tmp_path, capsys):
        # the three off-plane vertices average to (5, 5) on H, which the
        # claimed square misses; no segment between vertices crosses there
        square = write_polygon(tmp_path, "sq.json", UNIT_SQUARE)
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(false_square_claim([(5, 5)] * 3, (1, 0), (0, 1))))
        assert main(["factorize", square, str(ext)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert loads(err) == {"error": "DomainError",
                              "message": "extension file fails verification"}

    def test_no_vertices_exits_one(self, tmp_path, capsys):
        square = [[str(x), str(y)] for x, y in UNIT_SQUARE]
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"dim": 3, "vertices": [], "claimed": {"vertices": square}}))
        assert main(["factorize", write_polygon(tmp_path, "sq.json", UNIT_SQUARE), str(ext)]) == 1
        assert loads(capsys.readouterr().err) == {"error": "DomainError",
                                                  "message": "extension file fails verification"}

    def test_vertexless_file_in_huge_dimension_exits_one(self, tmp_path, capsys, monkeypatch):
        # with no vertices no point is a convex combination: refused before
        # an LP whose tableau would grow with the square of the dimension,
        # and before a claimed vertex is padded to the dimension, which
        # would take memory in proportion to a number that 10 bytes write
        square = [[str(x), str(y)] for x, y in UNIT_SQUARE]
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"dim": 10**6, "vertices": [], "claimed": {"vertices": square}}))
        lps = count_calls_everywhere(monkeypatch, linalg, "feasible_nonnegative_solution")
        polygon_path = write_polygon(tmp_path, "sq.json", UNIT_SQUARE)
        tracemalloc.start()
        try:
            assert main(["factorize", polygon_path, str(ext)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loads(capsys.readouterr().err) == {"error": "DomainError",
                                                  "message": "extension file fails verification"}
        assert lps == [] and peak < 2 * 2**20

    def test_true_section_off_the_crossings_factorizes(self, tmp_path, capsys):
        # (5, 5) is the centroid of the three off-plane vertices, no crossing
        # of H by a segment between two vertices: its column comes from an LP
        kite = [(0, 0), (1, 0), (5, 5), (0, 1)]
        doc = false_square_claim([(5, 5)] * 3, (1, 0), (0, 1))
        doc["claimed"]["vertices"] = [[str(x), str(y)] for x, y in kite]
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(doc))
        assert main(["factorize", write_polygon(tmp_path, "kite.json", kite), str(ext)]) == 0
        bundle = loads(capsys.readouterr().out)
        assert bundle["r"] == 7 and bundle["C"]["shape"] == [7, 4]

    @pytest.mark.parametrize("dim", [5, 6])
    def test_sign_pattern_files_factorize_without_fourier_motzkin(self, dim, tmp_path, capsys,
                                                                    monkeypatch):
        # the unit square times {-1, 1}^(dim - 2): every vertex has dim - 2
        # nonzero coordinates off H, where Fourier-Motzkin blows up; each
        # square vertex is the crossing of two antipodal vertices, so both
        # commands solve one edge LP per edge and no convex-combination LP
        # (linalg._nonnegative_combination)
        def refuse(*args):
            raise AssertionError("Fourier-Motzkin on a multi-coordinate support")

        # the pair-valued point that the slack layer reads, and its Fraction view
        monkeypatch.setattr(linalg, "fourier_motzkin_point", refuse)
        monkeypatch.setattr(linalg, "_fourier_motzkin_pairs", refuse)
        monkeypatch.setattr(slack, "_fourier_motzkin_pairs", refuse)
        lps = count_calls_everywhere(monkeypatch, linalg, "feasible_nonnegative_solution")
        columns = count_calls_everywhere(monkeypatch, linalg, "_nonnegative_combination")
        signs = itertools.product(("1", "-1"), repeat=dim - 2)
        vertices = [[str(x), str(y), *tail] for tail in signs for x, y in UNIT_SQUARE]
        square = [[str(x), str(y)] for x, y in UNIT_SQUARE]
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"dim": dim, "vertices": vertices, "claimed": {"vertices": square}}))
        assert main(["verify", str(ext)]) == 0
        assert len(lps) == 4 and columns == []
        assert main(["factorize", write_polygon(tmp_path, "sq.json", UNIT_SQUARE), str(ext)]) == 0
        assert len(lps) == 8 and columns == []
        bundle = loads(capsys.readouterr().out.splitlines()[-1])
        assert bundle["r"] == 2 ** dim

    def test_no_search_and_one_product_check(self, heptagon_file, tmp_path, capsys, monkeypatch):
        # verify and factorize of package files never take the LP path, and
        # factorize does not verify: its factorization is the check; both
        # read rows and lifts, with no canonical point or line (join, meet)
        # and no Polygon.vertex
        polygon = random_convex_polygon(random.Random(28), 28)
        path28 = write_polygon(tmp_path, "p28.json", polygon.vertices)
        runs = [(heptagon_file, "auto"), (path28, "join"), (path28, "3d")]
        for k, (path, mode) in enumerate(runs):
            assert main(["extend", path, "--mode", mode, "--out", str(tmp_path / f"{k}.json")]) == 0
        capsys.readouterr()
        lps = count_calls_everywhere(monkeypatch, linalg, "feasible_nonnegative_solution")
        solves = count_calls_everywhere(monkeypatch, linalg, "solve_linear")
        checks = count_calls_everywhere(monkeypatch, slack, "verify_factorization")
        verifies = count_calls_everywhere(monkeypatch, sections, "verify_section")
        kernel = [count_calls_everywhere(monkeypatch, exactgeom, name) for name in ("join", "meet")]
        kernel.append(count_calls(monkeypatch, Polygon, "vertex"))
        for k, (path, mode) in enumerate(runs):
            assert main(["verify", str(tmp_path / f"{k}.json")]) == 0
            assert main(["factorize", path, str(tmp_path / f"{k}.json")]) == 0
            assert len(checks) == len(verifies) == k + 1
        assert lps == [] and solves == [] and kernel == [[], [], []]

    def test_product_check_makes_no_fraction(self, heptagon_file, tmp_path, capsys, monkeypatch):
        # the one product check of factorize runs in integers, on the files
        # extend writes and on the LP path alike: R and S as integer pairs,
        # C read by numerator and denominator; on the files extend writes,
        # the free coefficients of R come from the Fourier-Motzkin point on
        # integer pairs, with no Fraction either
        polygon = random_convex_polygon(random.Random(28), 28)
        path28 = write_polygon(tmp_path, "p28.json", polygon.vertices)
        runs = [(heptagon_file, "auto"), (path28, "join"), (path28, "3d")]
        for k, (path, mode) in enumerate(runs):
            assert main(["extend", path, "--mode", mode, "--out", str(tmp_path / f"{k}.json")]) == 0
        doc = lp_path_doc()
        (tmp_path / "lp.json").write_text(json.dumps(doc))
        square = write_polygon(tmp_path, "square.json", [tuple(map(Fraction, v)) for v in doc["claimed"]["vertices"]])
        made = fractions_made_inside(monkeypatch, slack, "verify_factorization")
        tail = fractions_made_inside(monkeypatch, slack, "_extension_pairs")
        checks = count_calls_everywhere(monkeypatch, slack, "verify_factorization")
        for k, (path, _) in enumerate(runs):
            assert main(["factorize", path, str(tmp_path / f"{k}.json")]) == 0
        assert tail == []
        assert main(["factorize", square, str(tmp_path / "lp.json")]) == 0
        assert len(checks) == 4 and made == []
        capsys.readouterr()

    def test_factorize_makes_no_fraction(self, tmp_path, capsys, monkeypatch):
        # C's weights are integer pairs, like R's entries, so the whole of
        # factorize on the files extend writes, the seed-1 heptagon, the
        # 28-gon join and the 3-D 28-gon, makes no Fraction
        heptagon, ngon = (random_convex_polygon(random.Random(1), n) for n in (7, 28))
        runs = [(heptagon, "auto"), (ngon, "join"), (ngon, "3d")]
        paths = []
        for k, (polygon, mode) in enumerate(runs):
            path, ext = write_polygon(tmp_path, f"{k}.json", polygon.vertices), str(tmp_path / f"{k}.ext.json")
            assert main(["extend", path, "--mode", mode, "--out", ext]) == 0
            paths.append((path, ext))
        made = fractions_made_inside(monkeypatch, cli, "main")
        for path, ext in paths:
            assert cli.main(["factorize", path, ext]) == 0
            assert made == []
        capsys.readouterr()

    def test_constructions_make_no_fraction(self, monkeypatch):
        # the heptagon and hexagon gadgets, and so both n-gon
        # constructions, run in integers from the lifts to the rows
        names = ("heptagon_extension", "hexagon_extension5", "ngon_extension", "ngon_3d_extension")
        made = {name: fractions_made_inside(monkeypatch, module, name)
                for module, name in zip((heptagon_module, hexagon_module, compose, compose), names)}
        for name, polygon, mode in pinned_factorize_cases():
            if mode != "auto":
                (compose.ngon_extension if mode == "join" else compose.ngon_3d_extension)(polygon)
            elif polygon.n == 7:
                heptagon_module.heptagon_extension(polygon)
            else:
                if hexagon_module.hexagon_ic(polygon).ic == 5:
                    hexagon_module.hexagon_extension5(polygon)
        assert made == {name: [] for name in names}

    @pytest.mark.slow
    def test_factorize_output_unchanged(self, tmp_path, capsys):
        summaries, digests = {}, {}
        for name, polygon, mode in pinned_factorize_cases():
            path = write_polygon(tmp_path, name + ".json", polygon.vertices)
            ext = str(tmp_path / (name + ".ext.json"))
            assert main(["extend", path, "--mode", mode, "--out", ext]) == 0
            summaries[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
            assert main(["factorize", path, ext]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        assert summaries == PINNED_EXTEND_SHA256
        assert digests == PINNED_FACTORIZE_SHA256


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
SQUARE_PM1 = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def oversized_file(dim: int) -> dict:
    """A file past the work bound, claiming the square [-1, 1]^2, with
    integer planar coordinates in [-100, 100].  Dim 3: 2000 vertices
    alternately at z = 1 and z = -1, one support with about 2e6 pairs.
    Dim 4: 1500 vertices with off-H coordinates (+-1, +-1), plus (0,0,1,1)
    and (0,0,-1,-1), which take the LP path over 1502 distinct points."""
    rng = random.Random(dim)
    if dim == 3:
        tails = [(1,), (-1,)] * 1000
    else:
        tails = list(itertools.islice(itertools.cycle(itertools.product((1, -1), repeat=2)), 1500))
    vertices = [(rng.randint(-100, 100), rng.randint(-100, 100), *tail) for tail in tails]
    if dim == 4:
        vertices += [(0, 0, 1, 1), (0, 0, -1, -1)]
    return {"dim": dim, "vertices": [[str(c) for c in v] for v in vertices],
            "claimed": {"vertices": [[str(x), str(y)] for x, y in SQUARE_PM1]}}


class TestWorkBound:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_refused_before_any_crossing_or_lp(self, dim, tmp_path, capsys, monkeypatch):
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(oversized_file(dim)))
        square = write_polygon(tmp_path, "sq.json", SQUARE_PM1)
        crossings = count_calls_everywhere(monkeypatch, sections, "_segment_flat_crossing")
        lps = count_calls_everywhere(monkeypatch, linalg, "feasible_nonnegative_solution")
        for argv in (["verify", str(ext)], ["factorize", square, str(ext)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert loads(err)["error"] == "ScaleExceeded"
        assert crossings == [] and lps == []

    def test_repeated_vertex_counts_once(self, tmp_path, capsys, monkeypatch):
        # a triangle on H and one vertex above it written 500 times: the
        # copies make 124 750 pairs, but only distinct vertices are crossed
        triangle = [(-1, -1), (2, -1), (0, 2)]
        doc = {"dim": 3,
               "vertices": [[str(x), str(y), "0"] for x, y in triangle] + [["1", "0", "1"]] * 500,
               "claimed": {"vertices": [[str(x), str(y)] for x, y in triangle]}}
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(doc))
        path = write_polygon(tmp_path, "triangle.json", triangle)
        crossings = count_calls_everywhere(monkeypatch, sections, "_segment_flat_crossing")
        assert main(["verify", str(ext)]) == 0
        assert capsys.readouterr().out == "PASS\n"
        tested = len(crossings)
        assert main(["factorize", path, str(ext)]) == 0
        assert len(crossings) == 2 * tested

    def test_unreduced_repeat_is_one_vertex(self, tmp_path, capsys, monkeypatch):
        # a 16-gon join with a vertex off H written again, numerators and
        # denominators doubled: its row is the first copy's, so verify
        # passes with no further crossing test and factorize prints the
        # same inner dimension
        polygon = random_convex_polygon(random.Random(16), 16)
        path = write_polygon(tmp_path, "p16.json", polygon.vertices)
        doc = sectioned_to_obj(ngon_extension(polygon))
        vertex = next(v for v in doc["vertices"] if any(c != "0" for c in v[2:]))
        doc["vertices"].append([f"{2 * Fraction(c).numerator}/{2 * Fraction(c).denominator}" for c in vertex])
        clean, repeated = tmp_path / "clean.json", tmp_path / "repeated.json"
        clean.write_text(dumps(sectioned_to_obj(ngon_extension(polygon))))
        repeated.write_text(json.dumps(doc))
        crossings = count_calls_everywhere(monkeypatch, sections, "_segment_flat_crossing")
        tested, inner = [], []
        for ext in (clean, repeated):
            crossings.clear()
            assert main(["verify", str(ext)]) == 0
            assert capsys.readouterr().out == "PASS\n"
            tested.append(len(crossings))
            assert main(["factorize", path, str(ext)]) == 0
            inner.append(loads(capsys.readouterr().out)["r"])
        assert tested[0] == tested[1] > 0 and inner == [len(doc["vertices"]) - 1] * 2


def lp_path_doc() -> dict:
    """The 4-D LP-path file of the CI step: the unit square times a
    segment, every vertex with two nonzero coordinates off H, plus the
    vertex (2, 1/2, 1, 2); its section is the square."""
    box = [[x, y, z, z] for z in ("1", "-1") for x, y in (("0", "0"), ("0", "1"), ("1", "1"), ("1", "0"))]
    square = [["0", "0"], ["0", "1"], ["1", "1"], ["1", "0"]]
    return {"dim": 4, "vertices": box + [["2", "1/2", "1", "2"]], "claimed": {"vertices": square}}


# sha256 of `factorize` stdout on lp_path_doc written by json.dumps
LP_PATH_FACTORIZE_SHA256 = "f5abc050c2c96f14a184e04795d06ae9a9fb1441c6f605fdeb397cd48ba14596"


def derivations(monkeypatch, cls=sections.SectionedPolytope) -> list:
    """Records each object of cls whose vertices are derived, from its rows
    (SectionedPolytope) or its lifts (Polygon), at the first read of
    cls.vertices."""
    derived, getter = [], cls.vertices.fget

    def spy(s):
        if s._vertices is None:
            derived.append(s)
        return getter(s)

    monkeypatch.setattr(cls, "vertices", property(spy))
    return derived


class TestRowsFromText:
    @pytest.mark.parametrize("name", ["heptagon", "join-28", "3d-28", "lp-path"])
    def test_derived_vertices_are_the_parsed_ones(self, name):
        p28 = random_convex_polygon(random.Random(28), 28)
        build = {"heptagon": lambda: heptagon_extension(validate(SIX_CROSSING_HEPTAGON)),
                 "join-28": lambda: ngon_extension(p28), "3d-28": lambda: ngon_3d_extension(p28)}
        doc = lp_path_doc() if name == "lp-path" else loads(dumps(sectioned_to_obj(build[name]())))
        s = sectioned_from_obj(doc)
        assert s.vertices == tuple(tuple(exactgeom.parse_scalar(c) for c in v) for v in doc["vertices"])
        assert sections.verify_section(s)
        assert dumps(sectioned_to_obj(s)) == dumps({**doc, "certified": True})

    @pytest.mark.parametrize("mode", ["join", "3d"])
    def test_verify_and_factorize_derive_no_vertices(self, mode, tmp_path, capsys, monkeypatch):
        # the extension's coordinates go straight into rows, and the
        # polygon's and the claim's into lifts: no parse_scalar Fraction;
        # and no command derives the vertices of the polytope or of a
        # polygon: not extend, which writes the extension from its rows,
        # nor verify or factorize, nor the JSON writers in-process
        polygon = random_convex_polygon(random.Random(28), 28)
        path = write_polygon(tmp_path, "p.json", polygon.vertices)
        ext = str(tmp_path / "ext.json")
        derived = derivations(monkeypatch)
        polygons = derivations(monkeypatch, Polygon)
        parses = count_calls_everywhere(monkeypatch, exactgeom, "parse_scalar")
        assert main(["extend", path, "--mode", mode, "--out", ext]) == 0
        assert parses == [] and derived == [] and polygons == []
        fresh = polygon_from_obj(loads(Path(path).read_text()))
        built = (ngon_extension if mode == "join" else ngon_3d_extension)(fresh)
        assert dumps(sectioned_to_obj(built)) == Path(ext).read_text()
        assert polygon_to_obj(fresh) == loads(Path(path).read_text())
        assert parses == [] and derived == [] and polygons == []
        assert main(["verify", ext]) == 0
        assert parses == [] and derived == [] and polygons == []
        assert main(["factorize", path, ext]) == 0
        assert parses == [] and derived == [] and polygons == []
        assert loads(capsys.readouterr().out.splitlines()[-1])["r"] == (24 if mode == "join" else 27)

    def test_lp_path_derives_none_and_prints_the_same(self, tmp_path, capsys, monkeypatch):
        # the claim columns and the edge LPs read the rows and the lifts
        doc = lp_path_doc()
        ext, square = tmp_path / "lp.json", tmp_path / "square.json"
        ext.write_text(json.dumps(doc))
        square.write_text(json.dumps({"vertices": doc["claimed"]["vertices"]}))
        derived = derivations(monkeypatch)
        polygons = derivations(monkeypatch, Polygon)
        assert main(["verify", str(ext)]) == 0 and derived == [] and polygons == []
        assert capsys.readouterr().out == "PASS\n"
        assert main(["factorize", str(square), str(ext)]) == 0 and derived == [] and polygons == []
        out = capsys.readouterr().out
        assert loads(out)["r"] == 9
        assert hashlib.sha256(out.encode()).hexdigest() == LP_PATH_FACTORIZE_SHA256


def false_square_claim(shadows, u, w) -> dict:
    """A dim-4 file: the unit square on H plus three vertices over the given
    planar shadows whose trailing coordinates u, w, -(u + w) sum to zero;
    the claim is the square, which is false when the centroid misses it."""
    tails = [u, w, (-u[0] - w[0], -u[1] - w[1])]
    vertices = [[str(x), str(y), "0", "0"] for x, y in UNIT_SQUARE]
    vertices += [[str(x), str(y), str(a), str(b)] for (x, y), (a, b) in zip(shadows, tails)]
    return {"dim": 4, "vertices": vertices,
            "claimed": {"vertices": [[str(x), str(y)] for x, y in UNIT_SQUARE]},
            "certified": True}


# a standard heptagon (heptagon.StandardHeptagon) in its index order; its
# standardization line 0 is the line at infinity
STANDARD_HEPTAGON = [(0, 0), (Fraction(-1, 4), Fraction(1, 2)), (Fraction(-1, 4), Fraction(3, 4)), (0, 1),
                     (1, 0), (Fraction(3, 4), Fraction(-1, 4)), (Fraction(1, 2), Fraction(-1, 4))]


def pinned_factorize_cases() -> list:
    """(name, polygon, extend mode) for the seeded set whose factorize output is pinned."""
    rng = random.Random(20261017)
    cases = [(f"heptagon-{i}", random_convex_polygon(rng, 7), "auto") for i in range(3)]
    for i in range(2):
        alpha, beta, gamma, x, y = random_hexagon_params(rng)
        points = [(0, alpha), (beta * x, beta * y), (gamma, 0), (1, 0), (x, y), (0, 1)]
        cases.append((f"hexagon5-{i}", validate(points), "auto"))
    cases += [(f"hexagon6-{i}", random_convex_polygon(rng, 6), "auto") for i in range(2)]
    for n in (8, 14, 21, 28, 35, 9, 10, 13):
        polygon = random_convex_polygon(rng, n)
        cases += [(f"{n}gon-join", polygon, "join"), (f"{n}gon-3d", polygon, "3d")]
    # normalization maps that are not the identity: a witness hexagon
    # reflected (y -> -y), so its anchors are the mirrored ones; one whose
    # concurrency point is at infinity; the image of a witness hexagon whose
    # third row sends x + 2y = 20 to infinity; and the image of a standard
    # heptagon whose third row sends x = 11/10, just right of it, to
    # infinity, so that its pullback takes the shear
    alpha, beta, gamma, x, y = Fraction(2), Fraction(5), Fraction(3), Fraction(1, 4), Fraction(1, 3)
    witness = [(0, alpha), (beta * x, beta * y), (gamma, 0), (1, 0), (x, y), (0, 1)]
    cases += [
        ("hexagon5-mirrored", validate([(px, -py) for px, py in witness]), "auto"),
        ("hexagon5-infinity", validate([(0, 0), (1, 0), (2, 1), (2, Fraction(5, 2)), (1, 2), (0, 1)]), "auto"),
        ("hexagon5-projective", projective_image(witness, ((0, 1, 0), (0, 0, 1), (-1, -2, 20))), "auto"),
        ("heptagon-shear", projective_image(STANDARD_HEPTAGON, ((0, 1, 0), (0, 0, 1), (-10, 0, 11))), "auto"),
    ]
    return cases


def projective_image(points, rows) -> Polygon:
    """The polygon of the images of points under the map with these rows."""
    return validate([vertex_of(image) for image in ProjMap2(rows).apply([row_of(p) for p in points])])


# sha256 prefixes of `factorize` stdout for pinned_factorize_cases(), recorded
# with the subset-search factorization that the section's crossings replaced
PINNED_FACTORIZE_SHA256 = {
    "heptagon-0": "57f497e4b493e3ec",
    "heptagon-1": "825748889ea235c3",
    "heptagon-2": "ea4bbe542845539e",
    "hexagon5-0": "6c36aa80436f98a7",
    "hexagon5-1": "6e447eb464b253a0",
    "hexagon6-0": "1d1bec409a3b8649",
    "hexagon6-1": "544e3bd61258a0c5",
    "8gon-join": "e5f01eae0f674311",
    "8gon-3d": "e5f01eae0f674311",
    "14gon-join": "65a166685978538e",
    "14gon-3d": "3f2e75b31a5c2d68",
    "21gon-join": "079442e481b06e93",
    "21gon-3d": "25c90ccae63a95d8",
    "28gon-join": "8e8efce249604544",
    "28gon-3d": "ce3655dc9c86fc81",
    "35gon-join": "b8c348c77cf1e252",
    "35gon-3d": "f396c84937bf9da4",
    # remainder chunks of 2, 3 and 6 points, recorded while each chunk of a
    # join was still certified on its own
    "9gon-join": "e68b3e6884547f96",
    "9gon-3d": "05c1cff186d951ef",
    "10gon-join": "8ef0ccbead1ff88c",
    "10gon-3d": "ba4f2ae87c5c1848",
    "13gon-join": "2782dcd0f26f1fca",
    "13gon-3d": "5e0b0d98caefb0cf",
    # recorded while the normalization maps were composed from a
    # line-to-infinity map and an affine map through three points
    "hexagon5-mirrored": "534e8ba501e3590a",
    "hexagon5-infinity": "4cde93a41161d1e2",
    "hexagon5-projective": "bf68c0cf23027b27",
    "heptagon-shear": "0f7d2f834d1e5cbc",
}

# sha256 prefixes of `extend --out` stdout, the summary with its extreme
# point count, for pinned_factorize_cases(); recorded before a claim had to
# be a Polygon
PINNED_EXTEND_SHA256 = {
    "heptagon-0": "9a10bb1b10192ad2",
    "heptagon-1": "9a10bb1b10192ad2",
    "heptagon-2": "9a10bb1b10192ad2",
    "hexagon5-0": "3b4bde578183d6f8",
    "hexagon5-1": "3b4bde578183d6f8",
    "hexagon6-0": "dd40d57b55b441e2",
    "hexagon6-1": "dd40d57b55b441e2",
    "8gon-join": "8be285f339607f01",
    "8gon-3d": "8be285f339607f01",
    "14gon-join": "b7443f866a08983c",
    "14gon-3d": "299caf75a17c8f0e",
    "21gon-join": "01c8e249a2b3527f",
    "21gon-3d": "46a5b8ea48f681b8",
    "28gon-join": "cd9ce38fcc12c199",
    "28gon-3d": "e2efb26fab12c414",
    "35gon-join": "a9512975e99ec90f",
    "35gon-3d": "30c9640e01ff681a",
    "9gon-join": "06db75364f97c891",
    "9gon-3d": "06db75364f97c891",
    "10gon-join": "236561d10048c4d3",
    "10gon-3d": "236561d10048c4d3",
    "13gon-join": "c7182a6a997d74e5",
    "13gon-3d": "c7182a6a997d74e5",
    "hexagon5-mirrored": "3b4bde578183d6f8",
    "hexagon5-infinity": "3b4bde578183d6f8",
    "hexagon5-projective": "3b4bde578183d6f8",
    "heptagon-shear": "9a10bb1b10192ad2",
}


# sha256 prefixes of `slack` stdout in test_slack_output_unchanged, recorded
# while the slack matrix was wrapped in a class
PINNED_SLACK_SHA256 = {
    "triangle": "6080a4b96e1af0f6",
    "heptagon": "32a039a75bf83bf3",
    "14gon": "9fb3b4e4da43d0ec",
}


# sha256 of `fuzz` stdout, recorded while random_convex_polygon drew its
# vertices in Fractions; the CI step `Installed package` compares the ngon
# digest with that of the installed `polysec fuzz ngon --count 5 --seed 3`
PINNED_FUZZ_SHA256 = {
    ("heptagon", 20, 7): "b4d3257eef570cf2f1a13cb42ea287f3b9811b49da240a6ac9a40d8469e786df",
    ("ngon", 5, 3): "85fb742925dae5fed5b88885039f527f3bced45f812dbd5d709ab5f68cfb61e6",
}


# sha256 prefixes of `svg --std-lines --labels` stdout in
# TestSvgCommand.test_output_unchanged, recorded while points and lines of
# the projective kernel were wrapped in classes
PINNED_SVG_SHA256 = {
    "fixture": "0652722f9448dd39",
    "standard": "d344d038ed3cb8ae",
    "heptagon-0": "f415d1ecb3879dfa",
    "heptagon-1": "dc7e7876fb498270",
    "heptagon-2": "69de92a267631f51",
}


def segment_file(dim: int, claim: list) -> dict:
    """The segment (0,0)-(2,0) as the section of a polytope with vertices
    (0,0) and (2,0) lifted to every sign pattern off H, claiming claim."""
    tails = list(itertools.product(("1", "-1"), repeat=dim - 2))
    return {"dim": dim, "vertices": [[x, "0", *tail] for x in ("0", "2") for tail in tails],
            "claimed": {"vertices": [[str(x), str(y)] for x, y in claim]}}


class TestDegenerateClaims:
    # a claim is a polygon in every dimension: a true segment claim gets the
    # same answer in 3-D, where verify compares hulls, and in 4-D, where it
    # runs LPs; so do a point claim and an empty one
    @pytest.mark.parametrize("doc", [
        segment_file(3, [(0, 0), (2, 0)]),
        segment_file(4, [(0, 0), (2, 0)]),
        {"dim": 3, "vertices": [["0", "0", "1"], ["0", "0", "-1"]],
         "claimed": {"vertices": [["0", "0"]]}},
        segment_file(3, []),
    ], ids=["segment-3d", "segment-4d", "point-3d", "empty-3d"])
    def test_too_few_vertices_in_every_dimension(self, doc, tmp_path, capsys):
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps(doc))
        square = write_polygon(tmp_path, "sq.json", UNIT_SQUARE)
        for argv in (["verify", str(ext)], ["factorize", square, str(ext)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert loads(err)["error"] == "TooFewVertices"


class TestFuzzCommand:
    def test_invariant_target_is_usage_error(self, capsys):
        # the determinant identity is proved symbolically (acceptance
        # criterion 3), so there is no target that samples it
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "invariant"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_heptagon_target(self, capsys):
        assert main(["fuzz", "heptagon", "--count", "5", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(loads(line).get("ok", True) for line in lines)

    def test_heptagon_target_fails_below_six_extreme_points(self, capsys, monkeypatch):
        # a heptagon extension has exactly 6 extreme points: 5 points, a
        # above and b below H, cross H in at most a * b <= 6 < 7 points
        monkeypatch.setattr(cli, "extreme_points", lambda rows, dim: rows[:5])
        assert main(["fuzz", "heptagon", "--count", "1"]) == 3
        captured = capsys.readouterr()
        assert loads(captured.out.splitlines()[0])["ok"] is False
        assert loads(captured.err)["error"] == "CertificationFailure"

    def test_seed_repetition_identical_report(self, capsys):
        main(["fuzz", "ngon", "--count", "3", "--seed", "8"])
        first = capsys.readouterr().out
        main(["fuzz", "ngon", "--count", "3", "--seed", "8"])
        second = capsys.readouterr().out
        assert first == second

    def test_output_unchanged(self, capsys):
        digests = {}
        for target, count, seed in PINNED_FUZZ_SHA256:
            assert main(["fuzz", target, "--count", str(count), "--seed", str(seed)]) == 0
            digests[target, count, seed] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == PINNED_FUZZ_SHA256

    def test_negative_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "heptagon", "--count", "-3"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestUsageAndEnvironment:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["extend"])
        assert exc.value.code == 2

    def test_readme_library_example_runs(self):
        # the python block under "## Library" in README.md is the documented API
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme[readme.index("\n## Library\n"):]
        block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})


class TestRepeatedMain:
    """main builds its parser once per process and reuses it."""

    def test_successive_commands_match_separate_processes(self, heptagon_file, tmp_path, capsys):
        ext = str(tmp_path / "ext.json")
        assert main(["extend", heptagon_file, "--out", ext]) == 0
        capsys.readouterr()
        argvs = [["validate", heptagon_file], ["verify", ext], ["slack", heptagon_file],
                 ["factorize", heptagon_file, ext], ["verify", str(tmp_path / "absent.json")],
                 ["fuzz", "heptagon", "--count", "3", "--seed", "5"], ["verify", ext]]
        in_process = []
        for argv in argvs:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        separate = [(proc.returncode, proc.stdout) for proc in map(run_cli_process, argvs)]
        assert in_process == separate
        assert [code for code, _ in in_process] == [0, 0, 0, 0, 1, 0, 0]

    def test_usage_error_then_valid_command(self, heptagon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extend"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["validate", heptagon_file]) == 0
        assert capsys.readouterr().out == dumps(polygon_to_obj(validate(SIX_CROSSING_HEPTAGON)))

    def test_version_after_a_command(self, heptagon_file, capsys):
        assert main(["validate", heptagon_file]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0 and capsys.readouterr().out == "polysec 0.1.0\n"

    def test_rebound_command_is_the_one_that_runs(self, heptagon_file, capsys, monkeypatch):
        assert main(["validate", heptagon_file]) == 0  # the parser exists before the rebinding
        seen = []

        def fake_verify(args):
            seen.append(args.path)
            return 7

        monkeypatch.setattr(cli, "cmd_verify", fake_verify)
        assert main(["verify", "some.json"]) == 7
        assert seen == ["some.json"]


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

    def test_huge_coordinates_map_into_the_viewport(self, tmp_path, capsys):
        # coordinates past the float range; only the pixel values become floats
        path = write_polygon(tmp_path, "big.json", [(0, 0), ("1e400", 0), (0, "1e400")])
        assert main(["svg", path, "--labels"]) == 0
        text = capsys.readouterr().out
        pixels = re.findall(r'(?:cx|cy)="([^"]+)"', text)
        pixels += re.search(r'<path d="([^"]*) Z"', text).group(1).replace("M", "").replace("L", "").split()
        assert len(pixels) == 12
        assert all(0 <= float(p) <= 640 for p in pixels)

    def test_output_unchanged(self, heptagon_file, tmp_path, capsys):
        paths = {"fixture": heptagon_file,
                 "standard": write_polygon(tmp_path, "standard.json", STANDARD_HEPTAGON)}
        for name, polygon, _ in pinned_factorize_cases():
            if name in ("heptagon-0", "heptagon-1", "heptagon-2"):
                paths[name] = write_polygon(tmp_path, name + ".json", polygon.vertices)
        digests, lines = {}, {}
        for name, path in paths.items():
            assert main(["svg", path, "--std-lines", "--labels"]) == 0
            out = capsys.readouterr().out
            digests[name] = hashlib.sha256(out.encode()).hexdigest()[:16]
            lines[name] = out.count("<line")
        assert lines["standard"] == 6  # its line at infinity is skipped
        assert digests == PINNED_SVG_SHA256

    def test_out_into_missing_directory(self, heptagon_file, tmp_path, capsys):
        out = tmp_path / "missing" / "fig.svg"
        assert main(["svg", heptagon_file, "--out", str(out)]) == 1
        _, err = capsys.readouterr()
        assert err.count("\n") == 1 and loads(err)["error"] == "DomainError"


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


def assert_clean_exits(argvs) -> list:
    """Each command exits 0, 1 or 2; a failure prints one JSON error line
    (or, for verify of a parsed but false claim, FAIL on stdout).  Returns
    the exit codes."""
    codes = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        codes.append(code)
        assert code in (0, 1, 2), (argv, err.getvalue())
        if code == 0:
            continue
        if argv[0] == "verify" and err.getvalue() == "":
            assert out.getvalue().startswith("FAIL")
            continue
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    return codes


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
small_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


class TestMalformedInput:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(polygon=as_file_bytes(polygon_docs), extension=as_file_bytes(sectioned_docs))
    def test_exit_codes_and_json_errors(self, polygon, extension):
        with tempfile.TemporaryDirectory() as tmp:
            poly_path, ext_path = Path(tmp) / "poly.json", Path(tmp) / "ext.json"
            poly_path.write_bytes(polygon)
            ext_path.write_bytes(extension)
            assert_clean_exits([["validate", str(poly_path)], ["verify", str(ext_path)],
                                ["factorize", str(poly_path), str(ext_path)]])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shadows=st.lists(st.tuples(small_rationals, small_rationals), min_size=3, max_size=3),
           u=small_vectors, w=small_vectors, with_centroid=st.booleans())
    def test_well_formed_false_claims(self, shadows, u, w, with_centroid):
        # the off-plane vertices average to a point on H, which any true
        # section contains; claiming the hull of the square and that point
        # makes true claims whose extra vertex is no pairwise crossing
        cx, cy = (sum(p[k] for p in shadows) / 3 for k in (0, 1))
        claim = convex_hull_2d(UNIT_SQUARE + ([(cx, cy)] if with_centroid else []))
        doc = false_square_claim(shadows, u, w)
        doc["claimed"]["vertices"] = [[str(x), str(y)] for x, y in claim]
        with tempfile.TemporaryDirectory() as tmp:
            polygon = write_polygon(Path(tmp), "claim.json", claim)
            ext_path = Path(tmp) / "ext.json"
            ext_path.write_text(json.dumps(doc))
            codes = assert_clean_exits([["verify", str(ext_path)],
                                        ["factorize", polygon, str(ext_path)]])
        if codes[0] == 0 and not with_centroid:
            assert 0 <= cx <= 1 and 0 <= cy <= 1, (cx, cy)
        # a file verify passes factorizes, and one it fails does not
        assert (codes[1] == 0) == (codes[0] == 0), codes
