"""SVG charts: well-formed XML, escaped text, byte-identical reruns, write errors."""

import xml.etree.ElementTree as ET

import pytest

from grmlr.errors import IoFailure
from grmlr.svgplot import bar_chart, line_chart

SVG = "{http://www.w3.org/2000/svg}"
LABELS = ["Desulfo<bacter>", "A&B", 'say "hi"']


def _draw_line(path, title="alpha & accuracy"):
    line_chart([(0.0, 0.5), (0.5, 0.75), (1.0, 0.6)], path, title, "a < 1", "acc > 0")


def _draw_bars(path):
    bar_chart(LABELS, [0.3, 1.2, 0.0], path, "<top> taxa", "|W| & more")


def _texts(path):
    return [el.text for el in ET.parse(path).getroot().iter(f"{SVG}text")]


def test_line_chart_parses_and_keeps_its_text(tmp_path):
    path = tmp_path / "line.svg"
    _draw_line(path)
    texts = _texts(path)
    assert texts[:3] == ["alpha & accuracy", "a < 1", "acc > 0"]


def test_bar_chart_parses_and_keeps_taxon_names(tmp_path):
    path = tmp_path / "bars.svg"
    _draw_bars(path)
    texts = _texts(path)
    assert texts[:3] == ["<top> taxa", None, "|W| & more"]  # no x label
    assert texts[3:] == LABELS


def test_special_characters_are_escaped(tmp_path):
    path = tmp_path / "bars.svg"
    _draw_bars(path)
    raw = path.read_text(encoding="utf-8")
    assert ">Desulfo&lt;bacter&gt;</text>" in raw
    assert ">A&amp;B</text>" in raw
    assert "<bacter>" not in raw and "A&B" not in raw


@pytest.mark.parametrize("draw", [_draw_line, _draw_bars])
def test_repeated_calls_write_identical_bytes(tmp_path, draw):
    draw(tmp_path / "first.svg")
    draw(tmp_path / "second.svg")
    assert (tmp_path / "first.svg").read_bytes() == (tmp_path / "second.svg").read_bytes()


@pytest.mark.parametrize("draw", [_draw_line, _draw_bars])
def test_unwritable_path_raises_io_failure(tmp_path, draw):
    path = tmp_path / "chart.svg"
    path.mkdir()
    with pytest.raises(IoFailure, match="cannot write"):
        draw(path)


@pytest.mark.parametrize("draw", [_draw_line, _draw_bars])
def test_missing_directory_is_created(tmp_path, draw):
    draw(tmp_path / "missing" / "chart.svg")
    assert (tmp_path / "missing" / "chart.svg").read_text().startswith("<svg")
