"""Hand-rolled SVG line plots: no plotting dependency, one polyline per series.

One affine ``px``/``py`` pair maps data to pixels for whole arrays and for
single values alike: each series is mapped once, then its polyline is
formatted with one ``%`` over its interleaved x/y values, each as ``%.2f``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str


@dataclass(frozen=True)
class Marker:
    x: float
    y: float
    color: str
    label: str


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def line_plot(series: list[Series], title: str, xlabel: str, ylabel: str,
              markers: list[Marker] = ()) -> str:
    """Render series as an SVG document string."""
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = _padded(xs.min(), xs.max())
    y_lo, y_hi = _padded(ys.min(), ys.max())

    def px(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<title>{_esc(title)}</title>',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#444"/>',
    ]
    # zero axes, when zero is inside the viewport
    if x_lo < 0.0 < x_hi:
        parts.append(f'<line x1="{px(0):.1f}" y1="{_MARGIN}" x2="{px(0):.1f}" '
                     f'y2="{_HEIGHT - _MARGIN}" stroke="#bbb" stroke-dasharray="4 3"/>')
    if y_lo < 0.0 < y_hi:
        parts.append(f'<line x1="{_MARGIN}" y1="{py(0):.1f}" x2="{_WIDTH - _MARGIN}" '
                     f'y2="{py(0):.1f}" stroke="#bbb" stroke-dasharray="4 3"/>')
    for tick, label in [(x_lo, f"{x_lo:.3g}"), (x_hi, f"{x_hi:.3g}")]:
        parts.append(f'<text x="{px(tick):.1f}" y="{_HEIGHT - _MARGIN + 16}" '
                     f'font-size="11" text-anchor="middle">{label}</text>')
    for tick, label in [(y_lo, f"{y_lo:.3g}"), (y_hi, f"{y_hi:.3g}")]:
        parts.append(f'<text x="{_MARGIN - 6}" y="{py(tick):.1f}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
    for idx, s in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        xy = np.column_stack([px(np.asarray(s.x, float)), py(np.asarray(s.y, float))])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN - 4}" y="{_MARGIN + 16 + 14 * idx}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{_esc(s.label)}</text>')
    for m in markers:
        parts.append(f'<circle cx="{px(m.x):.1f}" cy="{py(m.y):.1f}" r="4" '
                     f'fill="{m.color}" stroke="black" stroke-width="0.5"/>')
        parts.append(f'<text x="{px(m.x) + 7:.1f}" y="{py(m.y) - 5:.1f}" '
                     f'font-size="10">{_esc(m.label)}</text>')
    parts.append(f'<text x="{_WIDTH / 2}" y="{_MARGIN - 14}" font-size="14" '
                 f'text-anchor="middle">{_esc(title)}</text>')
    parts.append(f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" font-size="12" '
                 f'text-anchor="middle">{_esc(xlabel)}</text>')
    parts.append(f'<text x="16" y="{_HEIGHT / 2}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_HEIGHT / 2})">{_esc(ylabel)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi == lo:
        pad = max(abs(hi), 1.0) * 0.05
    else:
        pad = (hi - lo) * 0.05
    return lo - pad, hi + pad
