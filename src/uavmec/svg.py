"""Minimal SVG line-chart writer (no plotting dependency)."""

from __future__ import annotations

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def line_chart(series, xlabel, ylabel, title):
    """Render named (x, y) series as a 640 x 420 SVG document string.

    series: list of (label, xs, ys) with xs sorted ascending.
    """
    width, height, margin = 640, 420, 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return margin + plot_w * (x - x0) / (x1 - x0)

    def py(y):
        return margin + plot_h * (1 - (y - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>',
    ]
    # axis ticks
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{margin + plot_h + 16}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{xv:g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{py(yv) + 4:.1f}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{yv:.3g}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = margin + 16 + 16 * idx
        parts.append(f'<rect x="{margin + plot_w - 120}" y="{ly - 9}" '
                     f'width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{margin + plot_w - 102}" y="{ly + 2}" '
                     f'font-size="12" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
