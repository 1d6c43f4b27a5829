"""Dependency-free deterministic artifacts: SVG plots and CSV tables.

Fixed canvas, no timestamps, repr-stable float formatting: identical input
produces byte-identical files, so plots and tables can be diffed like any
other artifact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class PlotSeries:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    kind: str = "points"  # "points" | "line"


def write_csv(path, header, rows) -> None:
    """Every CSV artifact: the header row, then one line per row.  Floats
    (numpy's included) are written as repr(float(x)), so they read back
    exactly; a field that holds a comma is quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                         for row in rows)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, count)
    return [float(v) for v in raw]


def emit_plot(
    series: list[PlotSeries],
    path,
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
    loglog: bool = False,
) -> int:
    """Write an SVG plot; returns the number of dropped non-finite points.

    Raises on an empty or all-dropped series list (no file is written)."""
    if not series:
        raise ValueError("nothing to plot: empty series list")
    cleaned: list[PlotSeries] = []
    dropped = 0
    for s in series:
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        good = np.isfinite(x) & np.isfinite(y)
        if loglog:
            good &= (x > 0) & (y > 0)
        dropped += int(np.sum(~good))
        if np.any(good):
            cleaned.append(PlotSeries(x[good], y[good], s.label, s.kind))
    if not cleaned:
        raise ValueError("nothing to plot: every point was non-finite")

    def tx(v):
        return np.log10(v) if loglog else v

    all_x = np.concatenate([tx(s.x) for s in cleaned])
    all_y = np.concatenate([tx(s.y) for s in cleaned])
    x_lo, x_hi = float(np.min(all_x)), float(np.max(all_x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" font-size="18">{title}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 15}" text-anchor="middle" font-size="14">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {HEIGHT // 2})">{ylabel}</text>'
    )
    for v in _ticks(x_lo, x_hi):
        X = px(v)
        label = _fmt(10 ** v) if loglog else _fmt(v)
        parts.append(
            f'<line x1="{_fmt(X)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(X)}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(X)}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="12">{label}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        Y = py(v)
        label = _fmt(10 ** v) if loglog else _fmt(v)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(Y)}" x2="{MARGIN_L}" y2="{_fmt(Y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(Y)}" text-anchor="end" '
            f'font-size="12" dominant-baseline="middle">{label}</text>'
        )

    for i, s in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        X, Y = px(tx(s.x)), py(tx(s.y))
        if s.kind == "line":
            pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(X, Y))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            for a, b in zip(X, Y):
                parts.append(f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="4" fill="{color}"/>')
        if s.label:
            parts.append(
                f'<text x="{MARGIN_L + 10}" y="{MARGIN_T + 18 + 16 * i}" font-size="12" '
                f'fill="{color}">{s.label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return dropped


def loglog_fit_series(x, slope: float, intercept: float) -> PlotSeries:
    """The fitted line log y = slope log x + intercept across the range of x,
    as a drawable series."""
    x = np.asarray(x, dtype=float)
    xs = np.array([np.min(x), np.max(x)])
    ys = np.exp(intercept) * xs ** slope
    return PlotSeries(xs, ys, label=f"fit slope {slope:.6g}", kind="line")
