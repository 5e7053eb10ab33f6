"""Command-line interface.

Subcommands: check, report, cone-f, cone-g, s-set, find-x, scan.
Exit codes: 0 when the queried relation holds or the artifact was produced,
2 when a queried relation fails, 3 when no solution exists, 1 on bad input.
"""

import argparse
import math
import sys

import numpy as np

from .cones import NoSolutionError, f_cone, find_x_for_cone, g_cone, normal_cone, s_set
from .norms import _sphere_grid, load_norm_spec, sphere_points
from .oracle import write_scan_csv
from .orthogonality import is_approx_orth_b, is_approx_orth_d, orth_report

_SPHERE_N = 720
_SPHERE_STYLE = 'fill="none" stroke="#999999" stroke-width="0.012"'
_ARC_STYLE = 'fill="none" stroke="#cc2222" stroke-width="0.035"'
_X_STYLE = 'stroke="#2244cc" stroke-width="0.02"'


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_vec(text):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse vector {text!r}: expected comma-separated numbers")
    if len(parts) < 1:
        raise ValueError(f"empty vector {text!r}")
    return np.array(parts)


def _fmt(v):
    return f"{float(v) + 0.0:.12g}"


def _fmt_vec(v):
    return ",".join(_fmt(c) for c in v)


def _sphere_polyline(spec):
    pts = _sphere_grid(spec, _SPHERE_N)[1]
    return np.concatenate([pts, pts[:1]])


def _arc_points(spec, v1, v2, per_arc=181):
    a1 = math.atan2(v1[1], v1[0])
    a2 = math.atan2(v2[1], v2[0])
    delta = math.remainder(a2 - a1, 2.0 * math.pi)
    return sphere_points(spec, a1 + delta * np.arange(per_arc) / (per_arc - 1))


def _write_svg(path, spec, x, pair):
    sphere = _sphere_polyline(spec)
    v1, v2 = pair.cone.v1, pair.cone.v2
    extent = 1.1 * float(np.abs(sphere).max())
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="480" height="480" '
        f'viewBox="{-extent:.4f} {-extent:.4f} {2 * extent:.4f} {2 * extent:.4f}">',
        '<g transform="scale(1,-1)">',
    ]

    def poly(points, style):
        coords = " ".join(f"{p[0]:.6f},{p[1]:.6f}" for p in points)
        lines.append(f'<polyline points="{coords}" {style}/>')

    poly(sphere, _SPHERE_STYLE)
    if float(np.linalg.norm(v1 - v2)) <= 1e-8:
        lines.append(f'<line x1="0" y1="0" x2="{v1[0]:.6f}" y2="{v1[1]:.6f}" {_ARC_STYLE}/>')
        lines.append(f'<line x1="0" y1="0" x2="{-v1[0]:.6f}" y2="{-v1[1]:.6f}" {_ARC_STYLE}/>')
    else:
        arc = _arc_points(spec, v1, v2)
        poly(arc, _ARC_STYLE)
        poly(-arc, _ARC_STYLE)
    lines.append(f'<line x1="0" y1="0" x2="{x[0]:.6f}" y2="{x[1]:.6f}" {_X_STYLE}/>')
    lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_cone_csv(path, spec, pair):
    with open(path, "w") as fh:
        fh.write("angle_radians,unit_x,unit_y,member\n")
        for angle, p in zip(*_sphere_grid(spec, _SPHERE_N)):
            fh.write(f"{angle:.12g},{p[0]:.12g},{p[1]:.12g},{int(pair.contains(p))}\n")


def _print_report(rep):
    print(f"bj: {str(rep.bj).lower()}")
    print(f"in_plus: {str(rep.in_plus).lower()}")
    print(f"in_minus: {str(rep.in_minus).lower()}")
    print(f"eps_d_min: {_fmt(rep.eps_d_min)}")
    print(f"eps_b_min: {_fmt(rep.eps_b_min)}")
    print(f"degenerate: {str(rep.degenerate).lower()}")


def _cmd_check(args):
    spec = load_norm_spec(args.norm)
    x = _parse_vec(args.x)
    y = _parse_vec(args.y)
    rep = orth_report(spec, x, y)
    _print_report(rep)
    if args.eps is None and args.kind is None:
        holds = rep.bj
        print(f"relation: bj holds: {str(holds).lower()}")
    else:
        eps = args.eps if args.eps is not None else 0.0
        kind = args.kind or "D"
        pred = is_approx_orth_d if kind == "D" else is_approx_orth_b
        holds = pred(spec, x, y, eps)
        print(f"relation: {kind} eps={_fmt(eps)} holds: {str(holds).lower()}")
    return 0 if holds else 2


def _cmd_report(args):
    spec = load_norm_spec(args.norm)
    _print_report(orth_report(spec, _parse_vec(args.x), _parse_vec(args.y)))
    return 0


def _cmd_cone(args):
    spec = load_norm_spec(args.norm)
    x = _parse_vec(args.x)
    if args.command == "cone-f":
        res = f_cone(spec, x, args.eps)
        pair, params = res.pair, {"t1": res.t1, "t2": res.t2}
    else:
        pair, params = g_cone(spec, x, args.eps), {}
    print(f"v1: {_fmt_vec(pair.cone.v1)}")
    print(f"v2: {_fmt_vec(pair.cone.v2)}")
    for name, value in params.items():
        print(f"{name}: {_fmt(value)}")
    if args.svg:
        _write_svg(args.svg, spec, x, pair)
    if args.csv:
        _write_cone_csv(args.csv, spec, pair)
    return 0


def _cmd_s_set(args):
    spec = load_norm_spec(args.norm)
    for v in s_set(spec, _parse_vec(args.x), args.eps):
        print(_fmt_vec(v))
    return 0


def _cmd_find_x(args):
    spec = load_norm_spec(args.norm)
    cone = normal_cone(spec, _parse_vec(args.v1), _parse_vec(args.v2))
    try:
        x, eps = find_x_for_cone(spec, cone)
    except NoSolutionError as exc:
        print(f"NO-SOLUTION: {exc}")
        return 3
    print(f"x: {_fmt_vec(x)}")
    print(f"eps: {_fmt(eps)}")
    return 0


def _cmd_scan(args):
    spec = load_norm_spec(args.norm)
    x = _parse_vec(args.x)
    if args.out:
        with open(args.out, "w") as fh:
            write_scan_csv(spec, x, args.eps, args.n, fh)
    else:
        write_scan_csv(spec, x, args.eps, args.n, sys.stdout)
    return 0


def _build_parser():
    parser = _Parser(prog="bjcones",
                     description="Birkhoff-James orthogonality and normal-cone decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        p.add_argument("--norm", required=True, help="path to a JSON norm spec")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check,
        **{"--x": dict(required=True), "--y": dict(required=True),
           "--eps": dict(type=float, default=None),
           "--kind": dict(choices=["D", "B"], default=None)})
    add("report", _cmd_report,
        **{"--x": dict(required=True), "--y": dict(required=True)})
    for name in ("cone-f", "cone-g"):
        add(name, _cmd_cone,
            **{"--x": dict(required=True), "--eps": dict(type=float, required=True),
               "--svg": dict(default=None), "--csv": dict(default=None)})
    add("s-set", _cmd_s_set,
        **{"--x": dict(required=True), "--eps": dict(type=float, required=True)})
    add("find-x", _cmd_find_x,
        **{"--v1": dict(required=True), "--v2": dict(required=True)})
    add("scan", _cmd_scan,
        **{"--x": dict(required=True), "--eps": dict(type=float, required=True),
           "--n": dict(type=int, default=3600), "--out": dict(default=None)})
    return parser


_VEC_FLAGS = {"--x", "--y", "--v1", "--v2"}


def _merge_vector_flags(argv):
    """Join each vector flag with its value so components with a leading
    minus sign (e.g. --v1 -0.5,1) are not mistaken for option names."""
    out, k = [], 0
    while k < len(argv):
        tok = argv[k]
        if tok in _VEC_FLAGS and k + 1 < len(argv):
            out.append(f"{tok}={argv[k + 1]}")
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_vector_flags(list(argv)))
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
