"""Minimal dependency-free SVG line plots for report output."""
from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640, 400    # canvas size in pixels


def line_plot(path: str, xs, series: dict, title: str = "") -> None:
    """Write a polyline plot of one or more named series against xs."""
    width, height = WIDTH, HEIGHT
    xs = np.asarray(xs, dtype=float)
    ml, mr, mt, mb = 60, 20, 30, 40
    pw, ph = width - ml - mr, height - mt - mb
    ys_all = np.concatenate([np.asarray(v, dtype=float).ravel() for v in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for i, (xt, yt) in enumerate([(x0, y0), (x1, y1)]):
        parts.append(
            f'<text x="{px(xt):.1f}" y="{height - 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt:.3g}</text>')
        parts.append(
            f'<text x="{ml - 6}" y="{py(yt):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.3g}</text>')
    for i, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float).ravel()
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * i}" fill="{color}" '
            f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
