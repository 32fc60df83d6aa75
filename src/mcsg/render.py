"""Deterministic SVG rendering of instances and solutions.

Points are filled disks colored by their color set, edges are segments
colored by the shared colors of their endpoints, following the usual
three-color display conventions (red/blue/yellow primaries; green, orange,
purple for the pairs; black for all three).  Identical inputs produce
byte-identical output.
"""

from __future__ import annotations

from .core import Instance, Solution, as_edges

PALETTE3 = {
    0b001: "red",
    0b010: "blue",
    0b100: "gold",
    0b110: "green",
    0b101: "orange",
    0b011: "purple",
    0b111: "black",
}
# Point radius, stroke width and margin as fractions of the drawing's span.
POINT_RADIUS = 0.012
STROKE_WIDTH = 0.006
MARGIN = 0.05


def _color_of(mask: int, k: int) -> str:
    """PALETTE3 for k <= 3; otherwise hues spread the 2^k - 1 color sets
    evenly around the circle."""
    if k <= 3:
        return PALETTE3.get(mask, "#888888")
    if not 0 < mask < 1 << k:
        return "#888888"
    return f"hsl({round(360 * (mask - 1) / ((1 << k) - 1))},70%,40%)"


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def render_svg(inst: Instance, sol: Solution | None = None) -> bytes:
    """Render an instance (and optionally a solution's edges) as SVG bytes."""
    xs, ys = inst.xy[:, 0], inst.xy[:, 1]
    span = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-9)
    margin = MARGIN * span
    r = max(POINT_RADIUS * span, 1e-9)
    sw = max(STROKE_WIDTH * span, 1e-9)
    x0, y0 = float(xs.min()) - margin, float(ys.min()) - margin
    x1, y1 = float(xs.max()) + margin, float(ys.max()) + margin

    def sx(x: float) -> str:
        return _fmt(x)

    def sy(y: float) -> str:
        return _fmt(y0 + y1 - y)  # flip so +y points up

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    if sol is not None:
        for a, b in as_edges(sol.edges, inst.n):
            mask = int(inst.masks[a] & inst.masks[b])
            color = _color_of(mask, inst.k) if mask else "#999999"
            lines.append(
                f'<line x1="{sx(inst.xy[a, 0])}" y1="{sy(inst.xy[a, 1])}" '
                f'x2="{sx(inst.xy[b, 0])}" y2="{sy(inst.xy[b, 1])}" '
                f'stroke="{color}" stroke-width="{_fmt(sw)}"/>'
            )
    for i in range(inst.n):
        color = _color_of(int(inst.masks[i]), inst.k)
        lines.append(
            f'<circle cx="{sx(inst.xy[i, 0])}" cy="{sy(inst.xy[i, 1])}" '
            f'r="{_fmt(r)}" fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines).encode("utf-8")
