"""No dead helpers: every top-level function and class of src/polysec is
referenced by name from the package outside its own definition, is a
command (cmd_* or main), or is listed in KEPT with the reason it stays.

A reference is a name or an attribute in the code; an import, a string
(an __all__ entry) or the definition's own body is not one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polysec"

KEPT = {
    "optimal_even_gon": "library export: the even-gon witnesses",
    "slack_matrix": "library export: the slack matrix in Fractions",
    "solve_linear": "benchmark row linalg.solve_linear",
    "parse_scalar": "benchmark row exactgeom.parse_scalar.calls",
    "compute_section": "benchmark rows sections.compute_section",
    "convex_join_sections": "benchmark row compose.convex_join_sections.self_s",
    "random_hexagon_params": "bench/workloads.py draws its hexagons with it",
    "hexagon_normal_form": "library export: hexagon_extension5 calls hexagon_ic itself, as the "
                           "benchmark row hexagon.ic5_share counts, and then the shared _normal_form",
    "validate": "library export: the documented validator, which bench/workloads.py calls",
    "extend_facet_inequality": "library export: the Fraction view of slack._extension_pairs",
    "fourier_motzkin_point": "library export: the Fraction view of linalg._fourier_motzkin_pairs",
    "interval_point": "library export: the Fraction view of linalg._interval_pair",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced() -> set:
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None:
                defined.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    referenced.add(name)
    commands = {name for name in defined if name.startswith("cmd_") or name == "main"}
    return defined - referenced - commands


def test_every_top_level_definition_is_used():
    unused = unreferenced()
    # a dead helper: delete it, or list it in KEPT with its reason
    assert unused - KEPT.keys() == set()
    # used again: take it out of KEPT
    assert KEPT.keys() - unused == set()
