"""CSV and SVG report text, and content hashes. All output is deterministic byte-for-byte.

Accuracy CSV schema: a ``# config_sha256=...`` comment line, a header row,
then one row per (after_task, eval_task) matrix entry in stage order, with an
extra row per stage where eval_task = -1 carrying the stage aggregate A_t.
Task indices are 0-based.
"""

from __future__ import annotations

import hashlib
import json

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def config_sha256(obj) -> str:
    """Hash of the canonical JSON encoding of a config document."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def accuracy_csv_text(matrix, config_hash: str) -> str:
    lines = [f"# config_sha256={config_hash}", "after_task,eval_task,accuracy"]
    for t in sorted(matrix.aggregate):
        for b in range(t + 1):
            lines.append(f"{t},{b},{matrix.entries[(t, b)]!r}")
        lines.append(f"{t},-1,{matrix.aggregate[t]!r}")
    return "\n".join(lines) + "\n"


def line_chart_svg(series, title, x_label, y_label) -> str:
    """Minimal accuracy line chart; y axis fixed to [0, 1].

    ``series`` is a list of (label, xs, ys) with integer stage xs.
    """
    width, height = 640, 420
    left, right, top, bottom = 60, 170, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_all = [x for _, xs, _ in series for x in xs]
    x_min, x_max = min(xs_all), max(xs_all)
    x_span = max(1, x_max - x_min)

    def px(x):
        return left + plot_w * (x - x_min) / x_span

    def py(y):
        return top + plot_h * (1.0 - y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>'
    )
    for i in range(6):
        y = i / 5.0
        parts.append(
            f'<line x1="{left - 4}" y1="{py(y):.1f}" x2="{left}" y2="{py(y):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py(y) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y:.1f}</text>'
        )
    for x in range(x_min, x_max + 1):
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{top + plot_h}" x2="{px(x):.1f}" '
            f'y2="{top + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(x):.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{y_label}</text>'
    )
    for s_idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[s_idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = top + 14 + 18 * s_idx
        lx = left + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
