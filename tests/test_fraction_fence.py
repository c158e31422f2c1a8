"""The Fraction fence: every function of src/polysec whose body names
Fraction is listed in ALLOWED with the reason it may, so a new Fraction
maker on a command's path fails here, the way a new dead helper fails
test_dead_code.py.

A function is named by its module and its qualified name (a method by its
class); a name inside a nested function counts for the innermost def, one
inside a lambda for the def around it.  Annotations are not the body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polysec"

VIEW = "a Fraction view, derived for library users from integers no command reads"
LP = "the LP path, which solves in Fractions until its pivots are made fraction-free"

ALLOWED = {
    "exactgeom._ratio": "the one text reader: a text not of the plain shape [-]digits[/digits] goes to Fraction(str)",
    "exactgeom.parse_scalar": "the text reader for library callers, which returns a Fraction",
    "polygon._fraction": "validate's input conversion of library values, Fractions or ints, to lifts",
    "polygon.Polygon.vertices": VIEW,
    "sections.SectionedPolytope.vertices": VIEW,
    "sections.compute_section": "the hull reference of verify_section, on the Fraction pairs of convex_hull_2d",
    "slack._fractions": VIEW + ": slack_matrix, r_factor and c_factor",
    "slack.extend_facet_inequality": VIEW,
    "linalg.interval_point": VIEW,
    "linalg.fourier_motzkin_point": VIEW,
    "linalg.solve_linear": LP,
    "linalg.feasible_nonnegative_solution": LP,
    "sections.edge_extension": LP,
    "randgen.random_hexagon_params": "draws Fraction parameters for bench/workloads.py and the tests; no command calls it",
    "svg._clip_line_to_box": "svg draws in Fractions",
    "svg.render_polygon_svg": "svg draws in Fractions",
}

# the construction, verify and factorize layers, which must stay in integers
NEVER = ("heptagon.", "hexagon.", "compose.", "jsonio.", "sections._section_columns",
         "sections._claim_columns", "slack.factorize_from_section", "slack.verify_factorization")

def fraction_makers() -> set:
    """module.qualname of every function whose body names Fraction."""
    found = set()

    def walk(node, module: str, scope: list, in_function: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for stmt in node.body:  # not the decorators, bases or annotations
                walk(stmt, module, scope + [node.name], not isinstance(node, ast.ClassDef))
            return
        if in_function and isinstance(node, ast.Name) and node.id == "Fraction":
            found.add(".".join([module, *scope]))
        for child in ast.iter_child_nodes(node):
            walk(child, module, scope, in_function)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem, [], False)
    return found


def test_every_fraction_maker_is_allowed():
    makers = fraction_makers()
    # a new Fraction maker: keep the path in integers, or list it with its reason
    assert makers - ALLOWED.keys() == set()
    # no longer names Fraction: take it out of ALLOWED
    assert ALLOWED.keys() - makers == set()


def test_the_integer_layers_are_not_allowed():
    assert not [name for name in ALLOWED if name.startswith(NEVER)]
