"""Static SVG rendering of polygons and their standardization lines.

Rendering is the only place floats appear; all geometry stays rational
until the final coordinate formatting.
"""

from __future__ import annotations

from fractions import Fraction

from .heptagon import Crossing, classify_line, std_points
from .polygon import Polygon

__all__ = ["render_polygon_svg"]

_SIZE = 640
_MARGIN = 48

_COLORS = {
    Crossing.NON_CROSSING: "#2a9d2a",
    Crossing.PLUS_CROSSING: "#d03030",
    Crossing.MINUS_CROSSING: "#3050d0",
}


def _clip_line_to_box(line, x0, y0, x1, y1):
    """Endpoints of a projective line clipped to a rational bounding box."""
    a, b, c = line  # a x + b y + c = 0
    pts = []
    if b != 0:
        for x in (x0, x1):
            y = Fraction(-(a * x + c), b)
            if y0 <= y <= y1:
                pts.append((x, y))
    if a != 0:
        for y in (y0, y1):
            x = Fraction(-(b * y + c), a)
            if x0 <= x <= x1:
                pts.append((x, y))
    unique = []
    for p in pts:
        if p not in unique:
            unique.append(p)
    if len(unique) < 2:
        return None
    unique.sort()
    return unique[0], unique[-1]


def render_polygon_svg(polygon: Polygon, std_lines: bool = False, labels: bool = False) -> str:
    pts = polygon.vertices
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    pad = span / 2
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = (_SIZE - 2 * _MARGIN) / max(x1 - x0, y1 - y0)

    def sx(x) -> float:
        return float(_MARGIN + (x - x0) * scale)

    def sy(y) -> float:
        return float(_SIZE - _MARGIN - (y - y0) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<rect width="{_SIZE:.0f}" height="{_SIZE:.0f}" fill="white"/>',
    ]
    if std_lines and polygon.n == 7:
        for i in range(7):
            sp = std_points(polygon, i)
            kind = classify_line(polygon, i)
            seg = _clip_line_to_box(sp.line, x0, y0, x1, y1)
            if seg is None:
                continue  # line misses the viewport (for instance, at infinity)
            (ax, ay), (bx, by) = seg
            dash = ' stroke-dasharray="7 5"' if kind is Crossing.NON_CROSSING else ""
            parts.append(
                f'<line x1="{sx(ax):.2f}" y1="{sy(ay):.2f}" x2="{sx(bx):.2f}" '
                f'y2="{sy(by):.2f}" stroke="{_COLORS[kind]}" stroke-width="1.5"{dash}>'
                f"<title>line {i}: {kind.value}</title></line>"
            )
    path = " ".join(
        f"{'M' if k == 0 else 'L'} {sx(x):.2f} {sy(y):.2f}" for k, (x, y) in enumerate(pts)
    )
    parts.append(f'<path d="{path} Z" fill="#f0f0f8" fill-opacity="0.7" '
                 'stroke="black" stroke-width="2"/>')
    for k, (x, y) in enumerate(pts):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="black"/>')
        if labels:
            parts.append(
                f'<text x="{sx(x) + 7:.2f}" y="{sy(y) - 7:.2f}" '
                f'font-family="monospace" font-size="14">p{k} ({x},{y})</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
