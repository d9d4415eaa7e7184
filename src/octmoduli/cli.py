"""Deterministic JSON command-line front end.

Every subcommand reads its inputs from argv, writes exactly one JSON object
per result line to stdout and exits 0 on success, 1 on input validation
errors and 2 on internal numeric failures.  Error responses still carry a
machine-readable code on stdout.  Angle arguments accept decimal radians or
`Npi/M` fractions ("2pi/3", "pi/2"); `--degrees` switches plain decimals to
degrees.  OCTMODULI_SEED supplies the default Monte Carlo seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import decomposition, embedding, forms, moduli, volume
from .errors import InputError, NumericError, OctmoduliError

SEED_ENV_VAR = "OCTMODULI_SEED"

_PI_FORM = re.compile(r"^(?P<coef>[+-]?(?:\d+(?:\.\d*)?|\.\d+)?)\s*pi"
                      r"(?:\s*/\s*(?P<den>\d+(?:\.\d*)?))?$", re.IGNORECASE)


class CliInputError(InputError):
    pass


def _parse_angle(token: str, degrees: bool = False) -> float:
    token = token.strip()
    m = _PI_FORM.match(token)
    if m:
        coef = m.group("coef")
        num = 1.0 if coef in ("", "+") else -1.0 if coef == "-" else float(coef)
        den = float(m.group("den")) if m.group("den") else 1.0
        return num * math.pi / den
    try:
        value = float(token)
    except ValueError:
        raise CliInputError(f"cannot parse angle {token!r}") from None
    return math.radians(value) if degrees else value


def _parse_deficits(text: str, degrees: bool) -> forms.ConeDeficits:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError(f"--deficits needs three comma-separated angles, got {text!r}")
    return forms.make_deficits(*(_parse_angle(t, degrees) for t in parts))


def _parse_chart(text: str) -> forms.ChartPoint:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliInputError(f"chart needs four comma-separated lengths, got {text!r}")
    try:
        return forms.ChartPoint(*(float(t) for t in parts))
    except ValueError:
        raise CliInputError(f"cannot parse chart {text!r}") from None


def _parse_vertices(text: str):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"vertices must be a JSON 3x3 array: {exc}") from None
    if (not isinstance(rows, list) or len(rows) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in rows)):
        raise CliInputError("vertices must be a JSON 3x3 array")
    return rows


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _ok(payload, diagnostics=()) -> None:
    _emit({"status": "ok", "payload": payload, "diagnostics": list(diagnostics)})


def _deficits_list(d: forms.ConeDeficits) -> list[float]:
    return list(d.as_tuple())


def _dihedral_payload(d: forms.ConeDeficits) -> dict[str, float]:
    return {wi + wj: moduli.dihedral_angle(wi, wj, d)
            for wi, wj in (("a", "b"), ("a", "c"), ("a", "d"),
                           ("b", "c"), ("b", "d"), ("c", "d"))}


def _cmd_gram(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    m = forms.gram_matrix(forms.trig_pack(d))
    _ok({"deficits": _deficits_list(d), "matrix": m.tolist()})


def _cmd_spectrum(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    t = forms.trig_pack(d)
    _ok({"deficits": _deficits_list(d),
         "eigenvalues": list(forms.spectrum(t).as_tuple()),
         "signature": list(forms.signature(t))})


def _cmd_dihedral(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    _ok({"deficits": _deficits_list(d), "angles": _dihedral_payload(d)})


def _cmd_volume(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    payload = {"deficits": _deficits_list(d), "volume": volume.tetrahedron_volume(d)}
    if args.mc:
        est = volume.monte_carlo_volume(d, args.mc, args.seed,
                                        truncation=args.truncation, workers=args.workers)
        payload["monte_carlo"] = {"value": est.value, "std_error": est.std_error,
                                  "samples": est.samples, "seed": est.seed,
                                  "truncation": args.truncation}
    _ok(payload)


def _cmd_embed(args) -> None:
    rows = _parse_vertices(args.vertices)
    e = embedding.validate(*rows)
    d = embedding.deficits(e)
    alpha, beta = embedding.alpha_beta(embedding.face_angles(e))
    p = embedding.chart(e)
    direct = embedding.mesh_area(e)
    formula = forms.area(p, forms.trig_pack(d))
    _ok({"deficits": _deficits_list(d), "alpha": alpha, "beta": beta,
         "chart": list(p.as_tuple()), "area_direct": direct, "area_formula": formula,
         "residual": abs(direct - formula) / direct})


def _cmd_chart(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    p = _parse_chart(args.chart)
    family = decomposition.parallelogram_family(p, d)
    complex_ = decomposition.build_gluing(family)
    cone = {v: decomposition.cone_angle(complex_, v) for v in complex_.vertex_orbits}
    payload = {
        "deficits": _deficits_list(d),
        "chart": list(p.as_tuple()),
        "parallelograms": [{"label": f.label, "side_u": f.side_u, "side_v": f.side_v,
                            "corner_angle": f.corner_angle, "corner_vertex": f.corner_vertex}
                           for f in family],
        "cone_angles": cone,
        "euler_characteristic": complex_.euler_characteristic(),
        "area": forms.area(p, forms.trig_pack(d)),
    }
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(decomposition.svg_net(p, d))
        payload["svg_path"] = args.svg
    _ok(payload)


def _cmd_distance(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    t = forms.trig_pack(d)
    p = moduli.normalize(_parse_chart(args.chart1), t)
    q = moduli.normalize(_parse_chart(args.chart2), t)
    _ok({"deficits": _deficits_list(d),
         "distance": moduli.distance(p, q),
         "klein_points": [moduli.klein_coordinates(p).tolist(),
                          moduli.klein_coordinates(q).tolist()]})


def _cmd_canon(args) -> None:
    d = _parse_deficits(args.deficits, args.degrees)
    p = _parse_chart(args.chart)
    g = moduli.symmetry_group(d, tol=args.tol)
    canonical = moduli.canonical_form(p, g)
    _ok({"deficits": _deficits_list(d), "chart": list(p.as_tuple()),
         "group_kind": g.kind, "generators": [list(x) for x in g.generators],
         "canonical_chart": list(canonical.as_tuple())})


def _cmd_sweep(args) -> None:
    steps = args.steps
    if steps < 3:
        raise CliInputError("--steps must be at least 3")
    h = forms.TWO_PI / steps
    for i in range(1, steps - 1):
        for j in range(1, steps - i):
            d = forms.make_deficits(i * h, j * h, forms.TWO_PI - (i + j) * h)
            _ok({"deficits": _deficits_list(d),
                 "volume": volume.tetrahedron_volume(d),
                 "dihedral": _dihedral_payload(d)})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="octmoduli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_deficits(p):
        p.add_argument("--deficits", required=True,
                       help="three angles, e.g. '2pi/3,2pi/3,2pi/3'")
        p.add_argument("--degrees", action="store_true",
                       help="interpret plain decimals as degrees")

    p = sub.add_parser("gram", help="Gram matrix of the area form")
    with_deficits(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("spectrum", help="closed-form eigenvalues and signature")
    with_deficits(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dihedral", help="the six wall-pair dihedral angles")
    with_deficits(p)
    p.set_defaults(func=_cmd_dihedral)

    p = sub.add_parser("volume", help="hyperbolic volume, optionally Monte Carlo checked")
    with_deficits(p)
    p.add_argument("--mc", type=int, default=0, metavar="N",
                   help="add a Monte Carlo estimate from N samples")
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get(SEED_ENV_VAR, "0")))
    p.add_argument("--truncation", type=float, default=1e-3)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("embed", help="chart extraction from three vertex vectors")
    p.add_argument("--vertices", required=True, help='JSON, e.g. "[[1,0,0],[0,1,0],[0,0,1]]"')
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("chart", help="parallelogram family and gluing diagnostics")
    with_deficits(p)
    p.add_argument("--chart", required=True, help="four lengths, e.g. '1,1,1,1'")
    p.add_argument("--svg", metavar="PATH", help="write the unfolding net as SVG")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("distance", help="hyperbolic distance between two charts")
    with_deficits(p)
    p.add_argument("--chart1", required=True)
    p.add_argument("--chart2", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("canon", help="symmetry group and canonical chart")
    with_deficits(p)
    p.add_argument("--chart", required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="tolerance for detecting equal deficits")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("sweep", help="JSONL volume/dihedral sweep over a deficit grid")
    p.add_argument("--steps", type=int, required=True,
                   help="grid resolution: deficits are multiples of 2pi/steps")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except OctmoduliError as exc:
        _emit({"status": "error",
               "payload": {"code": exc.code, "message": str(exc)},
               "diagnostics": []})
        return 2 if isinstance(exc, NumericError) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
