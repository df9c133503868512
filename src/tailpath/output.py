"""Atomic file writers and minimal SVG rendering for the CLI.

CSV is the canonical output format: header row always present, floats at 17
significant digits so round-tripping is lossless. All writers stage to a
temporary file in the destination directory and os.replace() it into place,
so readers never observe a half-written file. Tables stream into the staged
file line by line, so a table is never held as one string: rows may come
from a generator, and only the line being formatted is in memory. SVG
charts are hand-rolled polyline/circle markup, enough to eyeball a curve,
not a plotting library.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from typing import Iterable, Iterator, Sequence, TextIO

__all__ = [
    "fmt_float",
    "svg_line_chart",
    "svg_scatter",
    "write_csv",
    "write_json",
    "write_text",
]


def fmt_float(x: object) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


@contextlib.contextmanager
def _staged(path: str) -> Iterator[TextIO]:
    """A text handle on a temp file beside path, moved onto path on success.

    The temp file is unlinked if the body raises, so neither the target nor
    a .tmp-*~ file is left by a failed write.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    """Write text atomically: temp file in the same directory, then rename."""
    with _staged(path) as handle:
        handle.write(text)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header line and one line per row, streamed into the staged file."""
    with _staged(path) as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join([fmt_float(cell) for cell in row]) + "\n" for row in rows)


def write_json(path: str, obj: object) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


_PALETTE = ("#1f6fb4", "#c23b22", "#2e8b57", "#8a5cb8")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi == lo:
        pad = abs(hi) * 0.05 + 1e-9
    else:
        pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Frame:
    """Maps data coordinates to a pixel viewport with simple axes."""

    def __init__(
        self,
        xs: list[float],
        ys: list[float],
        width: int,
        height: int,
        log_x: bool,
    ) -> None:
        self.width = width
        self.height = height
        self.log_x = log_x
        self.x0, self.x1 = _bounds([self._tx(x) for x in xs])
        self.y0, self.y1 = _bounds(ys)
        self.left, self.right = 62.0, width - 16.0
        self.top, self.bottom = 30.0, height - 42.0

    def _tx(self, x: float) -> float:
        return math.log10(x) if self.log_x else x

    def px(self, x: float) -> float:
        t = (self._tx(x) - self.x0) / (self.x1 - self.x0)
        return self.left + t * (self.right - self.left)

    def py(self, y: float) -> float:
        t = (y - self.y0) / (self.y1 - self.y0)
        return self.bottom - t * (self.bottom - self.top)

    def axes(self, title: str, x_label: str, y_label: str) -> list[str]:
        def xtick(v: float) -> float:
            return 10.0**v if self.log_x else v

        parts = [
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" fill="white"/>',
            f'<text x="{self.width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{_escape(title)}</text>',
            f'<line x1="{self.left}" y1="{self.bottom}" x2="{self.right}" '
            f'y2="{self.bottom}" stroke="#333"/>',
            f'<line x1="{self.left}" y1="{self.top}" x2="{self.left}" '
            f'y2="{self.bottom}" stroke="#333"/>',
            f'<text x="{(self.left + self.right) / 2:.1f}" y="{self.height - 8}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">'
            f"{_escape(x_label)}</text>",
            f'<text x="14" y="{(self.top + self.bottom) / 2:.1f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 14 {(self.top + self.bottom) / 2:.1f})">'
            f"{_escape(y_label)}</text>",
        ]
        for value, anchor_x in ((self.x0, self.left), (self.x1, self.right)):
            parts.append(
                f'<text x="{anchor_x:.1f}" y="{self.bottom + 14:.1f}" '
                f'text-anchor="middle" font-size="10" font-family="sans-serif">'
                f"{xtick(value):.4g}</text>"
            )
        for value, anchor_y in ((self.y0, self.bottom), (self.y1, self.top)):
            parts.append(
                f'<text x="{self.left - 6:.1f}" y="{anchor_y + 3:.1f}" '
                f'text-anchor="end" font-size="10" font-family="sans-serif">'
                f"{value:.4g}</text>"
            )
        return parts


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
    vlines: Sequence[tuple[float, str]] = (),
) -> str:
    xs = [float(p[0]) for _, pts in series for p in pts]
    ys = [float(p[1]) for _, pts in series for p in pts]
    frame = _Frame(xs, ys, 640, 420, log_x)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" viewBox="0 0 640 420">']
    parts.extend(frame.axes(title, x_label, y_label))
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{frame.right - 6:.1f}" y="{frame.top + 14 + 13 * i:.1f}" '
            f'text-anchor="end" font-size="11" font-family="sans-serif" '
            f'fill="{color}">{_escape(label)}</text>'
        )
    for x, label in vlines:
        px = frame.px(float(x))
        parts.append(
            f'<line x1="{px:.2f}" y1="{frame.top}" x2="{px:.2f}" '
            f'y2="{frame.bottom}" stroke="#888" stroke-dasharray="4,3"/>'
        )
        parts.append(
            f'<text x="{px + 3:.1f}" y="{frame.top + 10:.1f}" font-size="10" '
            f'font-family="sans-serif" fill="#555">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def svg_scatter(
    points: Sequence[tuple[float, float]],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    frame = _Frame(xs, ys, 480, 480, log_x=False)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" viewBox="0 0 480 480">']
    parts.extend(frame.axes(title, x_label, y_label))
    for x, y in points:
        parts.append(
            f'<circle cx="{frame.px(x):.2f}" cy="{frame.py(y):.2f}" r="1.4" '
            f'fill="#1f6fb4" fill-opacity="0.55"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
