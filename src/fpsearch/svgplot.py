"""Minimal deterministic SVG rendering for experiment plots.

Hand-rolled on purpose: output bytes must be identical across runs, so no
plotting library (with embedded timestamps or version strings) is used.
Coordinates are formatted with fixed precision.
"""

from __future__ import annotations

from dataclasses import dataclass

_PALETTE = ("#1f6fb4", "#c84b4b", "#3a9a5a", "#8458b0", "#b08a2e", "#4ba8a8")


def _f(x: float) -> str:
    return f"{x:.6g}"


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    marker: str | None = None  # square | circle | diamond | star
    dashed: bool = False


def _marker_svg(kind: str, x: float, y: float, color: str) -> str:
    s = 3.4
    if kind == "square":
        return (
            f'<rect x="{_f(x - s)}" y="{_f(y - s)}" width="{_f(2 * s)}" '
            f'height="{_f(2 * s)}" fill="{color}"/>'
        )
    if kind == "circle":
        return f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(s)}" fill="{color}"/>'
    if kind == "diamond":
        pts = f"{_f(x)},{_f(y - s)} {_f(x + s)},{_f(y)} {_f(x)},{_f(y + s)} {_f(x - s)},{_f(y)}"
        return f'<polygon points="{pts}" fill="{color}"/>'
    # four-point star
    t = s / 2.6
    pts = (
        f"{_f(x)},{_f(y - s)} {_f(x + t)},{_f(y - t)} {_f(x + s)},{_f(y)} "
        f"{_f(x + t)},{_f(y + t)} {_f(x)},{_f(y + s)} {_f(x - t)},{_f(y + t)} "
        f"{_f(x - s)},{_f(y)} {_f(x - t)},{_f(y - t)}"
    )
    return f'<polygon points="{pts}" fill="{color}"/>'


def xy_plot(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Line/marker plot with a framed axis box and min/max tick labels."""
    width, height = 640, 420
    margin_l, margin_r, margin_t, margin_b = 64, 150, 34, 46
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x: float) -> float:
        return margin_l + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return margin_t + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width // 2}" y="20" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>',
        f'<text x="{margin_l + pw // 2}" y="{height - 10}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>',
        f'<text x="16" y="{margin_t + ph // 2}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {margin_t + ph // 2})">'
        f"{ylabel}</text>",
        f'<text x="{margin_l}" y="{height - 28}" font-size="10" '
        f'font-family="sans-serif" text-anchor="middle">{_f(x0)}</text>',
        f'<text x="{margin_l + pw}" y="{height - 28}" font-size="10" '
        f'font-family="sans-serif" text-anchor="middle">{_f(x1)}</text>',
        f'<text x="{margin_l - 6}" y="{margin_t + ph}" font-size="10" '
        f'font-family="sans-serif" text-anchor="end">{_f(y0)}</text>',
        f'<text x="{margin_l - 6}" y="{margin_t + 10}" font-size="10" '
        f'font-family="sans-serif" text-anchor="end">{_f(y1)}</text>',
    ]
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in zip(s.xs, s.ys))
        dash = ' stroke-dasharray="5,4"' if s.dashed else ""
        if len(s.xs) > 1:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )
        if s.marker:
            for x, y in zip(s.xs, s.ys):
                parts.append(_marker_svg(s.marker, px(x), py(y), color))
        ly = margin_t + 14 + 16 * i
        lx = margin_l + pw + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        if s.marker:
            parts.append(_marker_svg(s.marker, lx + 9, ly - 4, color))
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{s.label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass
class Panel:
    row_label: str
    col_label: str
    xs: list[float]
    ys: list[float]


def panel_grid(
    panels: list[list[Panel]], title: str, y_limit: float, reverse_x: bool = True
) -> str:
    """Grid of small traces with one shared vertical scale.

    With ``reverse_x`` the horizontal axis increases right to left, the
    plotting convention for frequency spectra.
    """
    rows = len(panels)
    cols = max(len(row) for row in panels)
    cell_w, cell_h = 150, 96
    margin_l, margin_t = 70, 40
    width = margin_l + cols * cell_w + 20
    height = margin_t + rows * cell_h + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for i, row in enumerate(panels):
        oy = margin_t + i * cell_h
        parts.append(
            f'<text x="{margin_l - 8}" y="{oy + cell_h // 2}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{row[0].row_label}</text>'
        )
        for j, panel in enumerate(row):
            ox = margin_l + j * cell_w
            parts.append(
                f'<rect x="{ox}" y="{oy}" width="{cell_w - 8}" height="{cell_h - 8}" '
                'fill="none" stroke="#bbb" stroke-width="0.8"/>'
            )
            if i == 0:
                parts.append(
                    f'<text x="{ox + (cell_w - 8) // 2}" y="{margin_t - 6}" '
                    f'font-size="11" text-anchor="middle" font-family="sans-serif">'
                    f"{panel.col_label}</text>"
                )
            x0, x1 = min(panel.xs), max(panel.xs)
            span = (x1 - x0) or 1.0
            mid = oy + (cell_h - 8) / 2.0
            scale = (cell_h - 12) / (2.0 * y_limit) if y_limit > 0 else 0.0
            pts = []
            for x, y in zip(panel.xs, panel.ys):
                u = (x - x0) / span
                if reverse_x:
                    u = 1.0 - u
                pts.append(f"{_f(ox + 4 + u * (cell_w - 16))},{_f(mid - y * scale)}")
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="#1f6fb4" '
                'stroke-width="1.1"/>'
            )
            parts.append(
                f'<line x1="{ox}" y1="{_f(mid)}" x2="{ox + cell_w - 8}" y2="{_f(mid)}" '
                'stroke="#ddd" stroke-width="0.6"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
