"""Minimal deterministic SVG renderings for sweep and ranking outputs.

Hand-rolled rather than delegated to a plotting library so that repeated
runs with identical inputs produce byte-identical files. Titles, axis labels
and bar labels (taxon names from input headers) are XML-escaped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

from .dataset import _write_file

_W, _H = 640, 400
_MARGIN = 60


def _svg_header() -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
    )


def _axis(title: str, x_label: str, y_label: str) -> str:
    title, x_label, y_label = escape(title), escape(x_label), escape(y_label)
    return (
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>\n'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>\n'
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>\n'
        f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" font-size="12">{x_label}</text>\n'
        f'<text x="18" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_H // 2})">{y_label}</text>\n'
    )


def line_chart(
    points: Sequence[tuple[float, float]],
    path: str | Path,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Single-series line chart; y axis spans [0, 1]."""
    xs = [p[0] for p in points]
    lo, hi = min(xs), max(xs)
    span = (hi - lo) or 1.0
    inner_w = _W - 2 * _MARGIN
    inner_h = _H - 2 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - lo) / span * inner_w

    def sy(y: float) -> float:
        return _H - _MARGIN - y * inner_h

    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts = [_svg_header(), _axis(title, x_label, y_label)]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{_MARGIN}" y1="{y:.2f}" x2="{_W - _MARGIN}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>\n'
            f'<text x="{_MARGIN - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="10">{frac:.2f}</text>\n'
        )
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="2"/>\n')
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f77b4"/>\n')
        parts.append(
            f'<text x="{sx(x):.2f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
            f'font-size="10">{x:g}</text>\n'
        )
    parts.append("</svg>\n")
    _write_file(path, "".join(parts))


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    path: str | Path,
    title: str,
    y_label: str,
) -> None:
    """Vertical bar chart; bars scaled to the maximum value."""
    top = max(values) if values else 1.0
    top = top or 1.0
    inner_w = _W - 2 * _MARGIN
    inner_h = _H - 2 * _MARGIN
    slot = inner_w / max(1, len(values))
    bar_w = slot * 0.7
    parts = [_svg_header(), _axis(title, "", y_label)]
    for i, (lab, val) in enumerate(zip(labels, values)):
        h = val / top * inner_h
        x = _MARGIN + i * slot + (slot - bar_w) / 2
        y = _H - _MARGIN - h
        cx = x + bar_w / 2
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="#2ca02c"/>\n'
            f'<text x="{cx:.2f}" y="{_H - _MARGIN + 12}" text-anchor="end" font-size="9" '
            f'transform="rotate(-45 {cx:.2f} {_H - _MARGIN + 12})">{escape(lab)}</text>\n'
        )
    parts.append("</svg>\n")
    _write_file(path, "".join(parts))
