"""Hand-rolled SVG output: dendrograms and selection scatter plots.

No plotting library; coordinates are formatted with fixed precision so the
same inputs always produce the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .clustering import leaf_order, node_heights
from .model import Dendrogram

_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _f(v: float) -> str:
    return f"{v:.2f}"


def _text(attrs: str, content: str) -> str:
    """A ``<text>`` element; every text node is written here, escaped, so a
    label may hold ``&`` or ``<``. (``xml.sax.saxutils.escape`` would import
    ``urllib.request``, several MB, for three replacements.)"""
    escaped = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<text {attrs}>{escaped}</text>"


def dendrogram_svg(dend: Dendrogram, title: str = "") -> str:
    """Vertical dendrogram, y axis = dissimilarity, leaves along the bottom."""
    s = dend.n_leaves
    heights = node_heights(dend)
    ymax = max(max(heights), 1e-9) * 1.05
    left, top, plot_h, step = 64.0, 36.0, 320.0, 46.0
    bottom = top + plot_h
    width = left + 24 + step * s
    label_space = 14 + 7 * max(len(lbl) for lbl in dend.leaves)
    total_h = bottom + label_space

    def ypos(h: float) -> float:
        return bottom - (h / ymax) * plot_h

    order = leaf_order(dend)
    xpos = {leaf: left + 24 + step * pos for pos, leaf in enumerate(order)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="{_f(total_h)}" '
        f'viewBox="0 0 {_f(width)} {_f(total_h)}">',
        f'<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        parts.append(_text(f'x="{_f(width / 2)}" y="18" text-anchor="middle" font-size="13" {_FONT}', title))
    # y axis with 5 ticks
    parts.append(
        f'<line x1="{_f(left)}" y1="{_f(top)}" x2="{_f(left)}" y2="{_f(bottom)}" stroke="black" stroke-width="1"/>'
    )
    for k in range(5):
        tick = ymax * k / 4
        y = ypos(tick)
        parts.append(f'<line x1="{_f(left - 4)}" y1="{_f(y)}" x2="{_f(left)}" y2="{_f(y)}" stroke="black"/>')
        parts.append(_text(f'x="{_f(left - 7)}" y="{_f(y + 3.5)}" text-anchor="end" font-size="10" {_FONT}', f"{tick:.3g}"))
    parts.append(_text(
        f'x="14" y="{_f((top + bottom) / 2)}" text-anchor="middle" font-size="11" {_FONT} '
        f'transform="rotate(-90 14 {_f((top + bottom) / 2)})"', "dissimilarity"
    ))
    # links, drawn merge by merge
    node_x = dict(xpos)
    for m, (lnode, rnode, h) in enumerate(dend.merges):
        y = ypos(h)
        xl, xr = node_x[lnode], node_x[rnode]
        yl, yr = ypos(heights[lnode]), ypos(heights[rnode])
        parts.append(f'<line x1="{_f(xl)}" y1="{_f(yl)}" x2="{_f(xl)}" y2="{_f(y)}" stroke="black" stroke-width="1.2"/>')
        parts.append(f'<line x1="{_f(xr)}" y1="{_f(yr)}" x2="{_f(xr)}" y2="{_f(y)}" stroke="black" stroke-width="1.2"/>')
        parts.append(f'<line x1="{_f(xl)}" y1="{_f(y)}" x2="{_f(xr)}" y2="{_f(y)}" stroke="black" stroke-width="1.2"/>')
        node_x[s + m] = (xl + xr) / 2
    # leaf labels
    for leaf in order:
        x = xpos[leaf]
        y = bottom + 12
        parts.append(_text(
            f'x="{_f(x)}" y="{_f(y)}" text-anchor="end" font-size="10" {_FONT} '
            f'transform="rotate(-60 {_f(x)} {_f(y)})"', dend.leaves[leaf]
        ))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_svg(
    x_values,
    y_values,
    selected_mask,
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Log-log scatter of two sample columns, selected features highlighted.

    Zeros are drawn at half the smallest positive value of either column.
    """
    x = np.asarray(x_values, dtype=np.float64)
    y = np.asarray(y_values, dtype=np.float64)
    sel = np.asarray(selected_mask, dtype=bool)
    positive = np.concatenate([x[x > 0], y[y > 0]])
    floor = float(positive.min()) / 2.0 if positive.size else 1e-3
    lx = np.log10(np.where(x > 0, x, floor))
    ly = np.log10(np.where(y > 0, y, floor))
    lo = min(lx.min(), ly.min())
    hi = max(lx.max(), ly.max())
    span = max(hi - lo, 1e-9)
    left, top, size = 60.0, 34.0, 440.0
    width, height = left + size + 24, top + size + 58

    def px(v: float) -> float:
        return left + (v - lo) / span * size

    def py(v: float) -> float:
        return top + size - (v - lo) / span * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        parts.append(_text(f'x="{_f(left + size / 2)}" y="18" text-anchor="middle" font-size="13" {_FONT}', title))
    parts.append(
        f'<rect x="{_f(left)}" y="{_f(top)}" width="{_f(size)}" height="{_f(size)}" fill="none" stroke="black"/>'
    )
    for decade in range(math.ceil(lo), math.floor(hi) + 1):
        parts.append(_text(f'x="{_f(px(decade))}" y="{_f(top + size + 14)}" text-anchor="middle" font-size="9" {_FONT}', f"1e{decade}"))
        parts.append(_text(f'x="{_f(left - 6)}" y="{_f(py(decade) + 3)}" text-anchor="end" font-size="9" {_FONT}', f"1e{decade}"))
    parts.append(_text(f'x="{_f(left + size / 2)}" y="{_f(top + size + 34)}" text-anchor="middle" font-size="11" {_FONT}', x_label))
    parts.append(_text(
        f'x="16" y="{_f(top + size / 2)}" text-anchor="middle" font-size="11" {_FONT} '
        f'transform="rotate(-90 16 {_f(top + size / 2)})"', y_label
    ))
    # px and py over every point at once: the same operations in the same order
    cx = left + (lx - lo) / span * size
    cy = top + size - (ly - lo) / span * size
    for points, style in ((~sel, 'r="1.6" fill="#4477aa" fill-opacity="0.5"'), (sel, 'r="2.2" fill="#cc3311"')):
        parts.extend(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" {style}/>'
            for x, y in zip(cx[points].tolist(), cy[points].tolist())
        )
    parts.append(_text(
        f'x="{_f(left + size - 4)}" y="{_f(top + 14)}" text-anchor="end" font-size="10" {_FONT}',
        f"selected: {int(sel.sum())} / {sel.size}",
    ))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
