"""Deterministic SVG rendering of a verification report.

The renderer is a pure function of the report dictionary: same dict in,
same bytes out, so a report round-tripped through JSON re-renders
identically.  No timestamps, no environment lookups, fixed float
formatting throughout.
"""

from __future__ import annotations

_MARGIN = 0.05
_WIDTH = 640.0

_STYLE = (
    "  <style>\n"
    "    .body { fill: none; stroke: #1a1a1a; stroke-width: 1.6; }\n"
    "    .heart { fill: #d04040; fill-opacity: 0.35; stroke: #a02020; stroke-width: 1.2; }\n"
    "    .track { fill: none; stroke: #2060c0; stroke-width: 1.2; stroke-dasharray: 4 3; }\n"
    "  </style>\n"
)

_MARKERS = (
    ("centroid", "#208020"),
    ("incenter", "#806010"),
    ("santalo", "#a020a0"),
    ("hot_spot_limit", "#2060c0"),
)


def _fmt(v: float) -> str:
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


class _Frame:
    """Affine map from body coordinates to pixel coordinates (y flipped)."""

    def __init__(self, vertices):
        xs = [p[0] for p in vertices]
        ys = [p[1] for p in vertices]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        span = max(xmax - xmin, ymax - ymin)
        pad = _MARGIN * span
        xmin -= pad
        xmax += pad
        ymin -= pad
        ymax += pad
        self.scale = _WIDTH / (xmax - xmin)
        self.xmin = xmin
        self.ymax = ymax
        self.width = _WIDTH
        self.height = self.scale * (ymax - ymin)

    def pt(self, p) -> tuple[str, str]:
        return _fmt((p[0] - self.xmin) * self.scale), _fmt((self.ymax - p[1]) * self.scale)


def _path(frame: _Frame, vertices, cls: str) -> str:
    parts = []
    for i, p in enumerate(vertices):
        x, y = frame.pt(p)
        parts.append(f"{'M' if i == 0 else 'L'} {x} {y}")
    return f'  <path class="{cls}" d="{" ".join(parts)} Z"/>\n'


def _dot(frame: _Frame, p, color: str, name: str, r: float = 4.0) -> str:
    x, y = frame.pt(p)
    return (
        f'  <circle cx="{x}" cy="{y}" r="{_fmt(r)}" fill="{color}" stroke="none">'
        f"<title>{name}</title></circle>\n"
    )


def render_report_svg(report: dict) -> str:
    """Render body, heart, markers and hot-spot track from a report dict.

    Sections absent from the report are simply not drawn, so partial
    reports (e.g. from the heart subcommand alone) render fine.
    """
    body = report["body"]
    frame = _Frame(body["vertices"])
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">\n',
        _STYLE,
        _path(frame, body["vertices"], "body"),
    ]
    heart = report.get("heart")
    if heart and heart.get("vertices"):
        verts = heart["vertices"]
        if heart["kind"] == "point":
            out.append(_dot(frame, verts[0], "#a02020", "heart", 5.0))
        elif heart["kind"] == "segment":
            (x1, y1), (x2, y2) = frame.pt(verts[0]), frame.pt(verts[1])
            out.append(
                f'  <line class="heart" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke-width="3.0"/>\n'
            )
        else:
            out.append(_path(frame, verts, "heart"))
    pde = report.get("pde") or {}
    if pde.get("track"):
        pts = " ".join(",".join(frame.pt(s["location"])) for s in pde["track"])
        out.append(f'  <polyline class="track" points="{pts}"/>\n')
    points = {
        "centroid": body.get("centroid"),
        "incenter": body.get("incenter"),
        "santalo": (report.get("polar") or {}).get("santalo"),
        "hot_spot_limit": pde.get("hot_spot_limit"),
    }
    for name, color in _MARKERS:
        if points[name] is not None:
            out.append(_dot(frame, points[name], color, name))
    out.append("</svg>\n")
    return "".join(out)
