"""Tests for the SVG rendering utilities."""

import xml.etree.ElementTree as ET

import pytest

from repro.errors import EmptyInputError
from repro.geo import BoundingBox, Point, Trajectory
from repro.roadnet.network import RoadNetwork
from repro.viz import SvgCanvas, render_imputation, render_network

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestCanvas:
    def world(self):
        return BoundingBox(0, 0, 1000, 500)

    def test_valid_xml(self):
        canvas = SvgCanvas(self.world())
        canvas.polyline([Point(0, 0), Point(100, 100)])
        canvas.circle(Point(50, 50))
        canvas.text(Point(10, 10), "hello <&>")
        root = parse(canvas.to_string())
        assert root.tag == f"{SVG_NS}svg"

    def test_aspect_ratio_preserved(self, monkeypatch):
        monkeypatch.setattr(SvgCanvas, "MARGIN_M", 0.0)
        canvas = SvgCanvas(self.world())
        assert canvas.height_px == 400  # 1000x500 world -> 800x400 pixels

    def test_y_axis_flipped(self, monkeypatch):
        monkeypatch.setattr(SvgCanvas, "MARGIN_M", 0.0)
        canvas = SvgCanvas(self.world())
        canvas.circle(Point(0, 500))  # world top-left
        root = parse(canvas.to_string())
        circle = root.find(f"{SVG_NS}circle")
        assert float(circle.get("cy")) == pytest.approx(0.0)

    def test_short_polyline_ignored(self):
        canvas = SvgCanvas(self.world())
        canvas.polyline([Point(0, 0)])
        assert parse(canvas.to_string()).find(f"{SVG_NS}polyline") is None

    def test_dashed_attribute(self):
        canvas = SvgCanvas(self.world())
        canvas.polyline([Point(0, 0), Point(10, 10)], dashed=True)
        line = parse(canvas.to_string()).find(f"{SVG_NS}polyline")
        assert line.get("stroke-dasharray") == "6,4"

    def test_text_escaped(self):
        canvas = SvgCanvas(self.world())
        canvas.text(Point(0, 0), "<script>")
        assert "<script>" not in canvas.to_string().split("text")[1]

    def test_save(self, tmp_path):
        canvas = SvgCanvas(self.world())
        path = canvas.save(tmp_path / "out.svg")
        assert path.exists()
        parse(path.read_text())


class TestRenderers:
    def test_render_network(self, small_city):
        canvas = render_network(small_city)
        root = parse(canvas.to_string())
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == small_city.num_edges

    def test_render_empty_network_rejected(self):
        with pytest.raises(EmptyInputError):
            render_network(RoadNetwork())

    def test_render_imputation_layers(self, trained_kamel, small_split, small_city):
        _, test = small_split
        truth = test[0]
        sparse = truth.sparsify(500.0)
        result = trained_kamel.impute(sparse)
        canvas = render_imputation(truth, sparse, result, network=small_city)
        root = parse(canvas.to_string())
        polylines = root.findall(f"{SVG_NS}polyline")
        circles = root.findall(f"{SVG_NS}circle")
        # network edges + truth + imputed (+ failures) layers present
        assert len(polylines) >= small_city.num_edges + 2
        # one dot per sparse point plus legend markers
        assert len(circles) >= len(sparse)

    def test_render_imputation_without_network(self, trained_kamel, small_split):
        _, test = small_split
        truth = test[1]
        sparse = truth.sparsify(500.0)
        result = trained_kamel.impute(sparse)
        canvas = render_imputation(truth, sparse, result)
        parse(canvas.to_string())

