"""Minimal self-contained SVG line plots. No plotting dependencies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Series", "write_line_plot"]

_PALETTE = ("#1f6fb0", "#d24d2e", "#3a8f3d", "#7b4fa6", "#b3851f", "#4d4d4d")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55


@dataclass
class Series:
    label: str
    xs: np.ndarray
    ys: np.ndarray
    yerr: np.ndarray


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 12))
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo = max(lo, 1e-300)
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0**e <= hi * 1.0001:
        if 10.0**e >= lo * 0.9999:
            ticks.append(10.0**e)
        e += 1
    if len(ticks) < 2:
        return _nice_ticks(lo, hi)
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def write_line_plot(
    path: str,
    series: list[Series],
    xlabel: str,
    ylabel: str,
    title: str = "",
    xlog: bool = False,
) -> None:
    """Write one SVG panel with lines, markers, error bars, legend.

    A point gets an error bar only where its yerr is positive.
    """
    xs_all = np.concatenate([np.asarray(s.xs, float) for s in series])
    ys_all = np.concatenate([np.asarray(s.ys, float) for s in series])
    for s in series:
        ys_all = np.concatenate([ys_all, np.asarray(s.ys) + s.yerr, np.asarray(s.ys) - s.yerr])
    ys_all = ys_all[np.isfinite(ys_all)]
    xs_all = xs_all[np.isfinite(xs_all)]
    if xs_all.size == 0 or ys_all.size == 0:
        raise ValueError("nothing finite to plot")

    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if y_hi == y_lo:
        y_hi += 1.0
        y_lo -= 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if xlog and x_lo <= 0:
        raise ValueError("log-scale x requires positive x values")

    def sx(x: float) -> float:
        if xlog:
            t = (math.log10(x) - math.log10(x_lo)) / (
                math.log10(x_hi) - math.log10(x_lo) or 1.0
            )
        else:
            t = (x - x_lo) / ((x_hi - x_lo) or 1.0)
        return _ML + t * (_W - _ML - _MR)

    def sy(y: float) -> float:
        t = (y - y_lo) / (y_hi - y_lo)
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>'
        )

    x_ticks = _log_ticks(x_lo, x_hi) if xlog else _nice_ticks(x_lo, x_hi)
    y_ticks = _nice_ticks(y_lo, y_hi)
    for v in x_ticks:
        if not (x_lo <= v <= x_hi):
            continue
        px = sx(v)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H - _MB}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(v)}</text>'
        )
    for v in y_ticks:
        if not (y_lo <= v <= y_hi):
            continue
        py = sy(v)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(v)}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2})">{ylabel}</text>'
    )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        xs = np.asarray(s.xs, float)
        ys = np.asarray(s.ys, float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        xs, ys = xs[keep], ys[keep]
        err = np.asarray(s.yerr, float)[keep]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for j, (x, y) in enumerate(zip(xs, ys)):
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.6" fill="{color}"/>'
            )
            if err[j] > 0:
                parts.append(
                    f'<line x1="{sx(x):.2f}" y1="{sy(y - err[j]):.2f}" '
                    f'x2="{sx(x):.2f}" y2="{sy(y + err[j]):.2f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        ly = _MT + 16 + 16 * i
        lx = _W - _MR - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly}">{s.label}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
