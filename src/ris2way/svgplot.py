"""Minimal deterministic SVG line plots emitted next to the CSV output.

Hand-rolled on purpose: byte-identical output for identical data, no font or
backend dependencies.
"""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # text -> XML character data
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(round(t, 12))
        t += step
    return out or [lo]


def write_line_svg(path: str, x: list[float], series: dict[str, list[float]],
                   log_y: bool = False, title: str = "", x_label: str = "",
                   y_label: str = "") -> None:
    """One polyline per series over a shared x axis; log_y for outage curves."""
    def ty(v: float) -> float:
        if not log_y:
            return v
        return math.log10(v) if v > 0 else math.nan

    xs = [float(v) for v in x]
    ys_all = [ty(v) for vals in series.values() for v in vals
              if math.isfinite(ty(v))]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W/2:.1f}" y="18" text-anchor="middle" font-size="14" '
             f'font-family="sans-serif">{title.translate(_XML_TEXT)}</text>']
    # axes box
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(t):.1f}" y1="{_MT+ph}" x2="{px(t):.1f}" '
                     f'y2="{_MT+ph+4}" stroke="black"/>')
        parts.append(f'<text x="{px(t):.1f}" y="{_MT+ph+16}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        label = f"1e{t:g}" if log_y else f"{t:g}"
        parts.append(f'<line x1="{_ML-4}" y1="{py(t):.1f}" x2="{_ML}" '
                     f'y2="{py(t):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML-7}" y="{py(t)+3:.1f}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{label}</text>')
    parts.append(f'<text x="{_ML+pw/2:.1f}" y="{_H-12}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">{x_label.translate(_XML_TEXT)}</text>')
    parts.append(f'<text x="16" y="{_MT+ph/2:.1f}" text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {_MT+ph/2:.1f})">'
                 f'{y_label.translate(_XML_TEXT)}</text>')

    for i, (name, vals) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = [(px(xv), py(ty(yv))) for xv, yv in zip(xs, vals)
               if math.isfinite(ty(yv))]
        if pts:
            poly = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
            parts.append(f'<polyline points="{poly}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = _MT + 14 + 14 * i
        parts.append(f'<line x1="{_ML+pw-130}" y1="{ly-4}" x2="{_ML+pw-110}" '
                     f'y2="{ly-4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML+pw-105}" y="{ly}" font-size="10" '
                     f'font-family="sans-serif">{name.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
