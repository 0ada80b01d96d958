"""A minimal SVG canvas plus ready-made renderers."""

from __future__ import annotations

import pathlib
from typing import Optional, Sequence, Union
from xml.sax.saxutils import escape

from repro.core.result import ImputationResult
from repro.errors import EmptyInputError
from repro.geo import BoundingBox, Point, Trajectory
from repro.roadnet.network import RoadNetwork


class SvgCanvas:
    """Accumulates SVG elements over a world-coordinate viewport.

    World coordinates are the library's local planar frame (meters, y up);
    the canvas flips y so north is up in the rendered image. The image is
    ``WIDTH_PX`` wide and shows ``world`` plus a ``MARGIN_M`` border.
    """

    WIDTH_PX = 800
    MARGIN_M = 50.0

    def __init__(self, world: BoundingBox):
        self.world = world.expand(self.MARGIN_M)
        self.width_px = self.WIDTH_PX
        self._scale = self.width_px / max(1e-9, self.world.width)
        self.height_px = max(1, int(self.world.height * self._scale))
        self._elements: list[str] = []

    def _x(self, x: float) -> float:
        return (x - self.world.min_x) * self._scale

    def _y(self, y: float) -> float:
        return (self.world.max_y - y) * self._scale

    def polyline(
        self,
        points: Sequence[Point],
        color: str = "#333333",
        width: float = 1.5,
        dashed: bool = False,
        opacity: float = 1.0,
    ) -> None:
        if len(points) < 2:
            return
        coords = " ".join(f"{self._x(p.x):.1f},{self._y(p.y):.1f}" for p in points)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self._elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="{opacity}"{dash}/>'
        )

    def circle(self, center: Point, radius_px: float = 3.0, color: str = "#000000") -> None:
        self._elements.append(
            f'<circle cx="{self._x(center.x):.1f}" cy="{self._y(center.y):.1f}" '
            f'r="{radius_px}" fill="{color}"/>'
        )

    def text(self, anchor: Point, content: str) -> None:
        """12 px black text."""
        self._elements.append(
            f'<text x="{self._x(anchor.x):.1f}" y="{self._y(anchor.y):.1f}" '
            f'font-size="12" fill="#000000">{escape(content)}</text>'
        )

    def legend(self, entries: Sequence[tuple[str, str]]) -> None:
        """Color/label pairs drawn in the top-left corner."""
        x0 = self.world.min_x + 10 / self._scale
        y0 = self.world.max_y - 10 / self._scale
        step = 16 / self._scale
        for k, (color, label) in enumerate(entries):
            y = y0 - k * step
            self.circle(Point(x0, y), 4, color)
            self.text(Point(x0 + 10 / self._scale, y - 4 / self._scale), label)

    def to_string(self) -> str:
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width_px}" height="{self.height_px}" '
            f'viewBox="0 0 {self.width_px} {self.height_px}">\n'
            f'<rect width="100%" height="100%" fill="#ffffff"/>\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_string())
        return path


def render_network(network: RoadNetwork, canvas: Optional[SvgCanvas] = None) -> SvgCanvas:
    """Draw every road edge in light grey; returns the canvas for further layers."""
    if network.num_nodes == 0:
        raise EmptyInputError("cannot render an empty network")
    if canvas is None:
        canvas = SvgCanvas(network.bbox())
    for u, v, data in network.graph.edges(data=True):
        canvas.polyline(data["geometry"], color="#bbbbbb", width=2.0)
    return canvas


def render_imputation(
    truth: Trajectory,
    sparse: Trajectory,
    result: ImputationResult,
    network: Optional[RoadNetwork] = None,
) -> SvgCanvas:
    """The standard inspection picture for one imputed trajectory.

    Layers: road network (if given, grey), ground truth (green), imputed
    trajectory (blue; failed segments drawn dashed red on top), sparse
    input points (black dots).
    """
    boxes = [truth.bbox(), result.trajectory.bbox()]
    if network is not None:
        boxes.append(network.bbox())
    canvas = SvgCanvas(BoundingBox.union_all(boxes))
    if network is not None:
        render_network(network, canvas)
    canvas.polyline(truth.points, color="#2e8b57", width=2.0, opacity=0.8)
    canvas.polyline(result.trajectory.points, color="#1f6fd6", width=2.0)

    # Re-draw failed segments dashed red: slice the imputed trajectory at
    # the sparse anchors (imputers preserve them in order).
    failed_indices = {o.start_index for o in result.segments if o.failed}
    anchors = sparse.points
    piece: list[Point] = []
    segment_index = 0
    cursor = 1
    for p in result.trajectory.points:
        piece.append(p)
        if cursor < len(anchors) and p.x == anchors[cursor].x and p.y == anchors[cursor].y:
            if segment_index in failed_indices:
                canvas.polyline(piece, color="#d64545", width=2.5, dashed=True)
            piece = [p]
            segment_index += 1
            cursor += 1
    for p in sparse.points:
        canvas.circle(p, 3.5, "#111111")
    canvas.legend(
        [
            ("#2e8b57", "ground truth"),
            ("#1f6fd6", "imputed"),
            ("#d64545", "failed (linear)"),
            ("#111111", "sparse input"),
        ]
    )
    return canvas
