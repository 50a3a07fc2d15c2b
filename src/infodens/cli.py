"""Command-line frontend for analysis, translation, sweeps and certification.

Subcommands::

    analyze    mechanism JSON -> per-outcome CSV + guarantee-level JSON
    translate  one guarantee + p_min -> implication-closure JSON
    sweep      p_min -> the two translation-curve CSVs
    oracle     mechanism JSON + outcome -> brute-force certification JSON
    mechanism  mechanism JSON -> constructed channel / analytic dump
    props      seeded randomized property suite, pass/fail table

All numbers are stored and computed in nats; ``--unit bits`` converts for
display only (column names carry the unit).  Outputs are byte-identical for
identical invocations including the seed.  Exit codes: 0 success, 1 property
violation, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import bounds, leakage, mechanisms, oracles, properties
from .errors import InfodensError, ParseError
from .leakage import Guarantee, GuaranteeKind, format_level
from .oracles import SearchConfig
from .probcore import Joint, in_unit


def _load_doc(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _jsonable(value):
    if isinstance(value, float):
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        if math.isnan(value):
            raise ValueError("refusing to serialize NaN")
    return value


def _dump_json(obj, path: Optional[str]) -> None:
    def clean(x):
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        return _jsonable(x)

    text = json.dumps(clean(obj), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _levels_payload(joint: Joint, unit: str) -> dict:
    levels = leakage.all_guarantee_levels(joint)
    payload = {}
    for name, guarantee in levels.items():
        payload[name] = guarantee.to_dict(unit)
    payload[f"max_cost_leakage_{unit}"] = format_level(
        leakage.max_cost_leakage(joint), unit
    )
    payload[f"max_realizable_cost_{unit}"] = format_level(
        leakage.max_realizable_cost(joint), unit
    )
    return payload


def _parse_input(args):
    doc = _load_doc(args.input)
    return mechanisms.parse_mechanism_doc(doc, exact=args.mode == "rational")


def _cmd_analyze(args) -> int:
    obj = _parse_input(args)
    if not isinstance(obj, Joint):
        raise ParseError("analyze needs a finite mechanism (prior + channel)")
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    profile = leakage.leakage_profile(obj)
    (outdir / "profile.csv").write_text(profile.to_csv(unit=args.unit))
    _dump_json(_levels_payload(obj, args.unit), str(outdir / "levels.json"))
    sys.stdout.write(f"wrote {outdir / 'profile.csv'} and {outdir / 'levels.json'}\n")
    return 0


def _source_guarantee(args) -> Guarantee:
    chosen = [kind for kind in GuaranteeKind if getattr(args, kind.value) is not None]
    if len(chosen) != 1:
        raise ParseError("pass exactly one of --pml/--pmc/--lip/--ldp/--alip")
    (kind,) = chosen
    value = getattr(args, kind.value)
    make = getattr(Guarantee, kind.value)
    return make(*value) if kind is GuaranteeKind.ALIP else make(value)


def _cmd_translate(args) -> int:
    result = bounds.derive_implications(_source_guarantee(args), args.pmin)
    _dump_json(result.to_dict(args.unit), args.output)
    return 0


def _cmd_sweep(args) -> int:
    table = bounds.sweep_curves(args.pmin, args.steps)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "pml_to_pmc.csv").write_text(table.pml_to_pmc_csv(unit=args.unit))
    (outdir / "pmc_to_pml.csv").write_text(table.pmc_to_pml_csv(unit=args.unit))
    sys.stdout.write(
        f"wrote {outdir / 'pml_to_pmc.csv'} and {outdir / 'pmc_to_pml.csv'}\n"
    )
    return 0


def _cmd_oracle(args) -> int:
    obj = _parse_input(args)
    if not isinstance(obj, Joint):
        raise ParseError("oracle certification needs a finite mechanism")
    search = SearchConfig(resolution=args.grid, max_u=args.max_u, seed=args.seed)
    certificate = oracles.certify_pmc(obj, args.y, search)
    _dump_json(certificate.to_dict(args.unit), args.output)
    if not certificate.dominance_ok:
        sys.stderr.write("oracle value exceeds the closed form\n")
        return 1
    return 0


def _cmd_mechanism(args) -> int:
    unit = args.unit
    obj = _parse_input(args)
    if isinstance(obj, Joint):
        payload = {
            "kind": "finite",
            "prior": [float(w) for w in obj.prior.weights],
            "channel": [[float(e) for e in row] for row in obj.channel.rows],
            "levels": _levels_payload(obj, unit),
        }
    elif isinstance(obj, mechanisms.LaplaceMeanMechanism):
        payload = {
            "kind": "laplace_mean",
            "interval": [obj.lo, obj.hi],
            "count": obj.n,
            "scale": obj.b,
            f"sup_pmc_{unit}": in_unit(obj.sup_pmc(), unit),
            f"dp_level_{unit}": in_unit(obj.dp_level, unit),
        }
    else:
        payload = {
            "kind": "gaussian",
            "amplitude": obj.amplitude,
            "sigma": obj.sigma,
            "variance_ratio": obj.variance_ratio,
            "pmc_bounds": {
                repr(float(y)): [in_unit(v, unit) for v in obj.pmc_bounds(float(y))]
                for y in (0.0, 1.0, 2.0)
            },
            "tail_bounds": {repr(float(b)): obj.tail_bound(float(b)) for b in (1.0, 2.0, 4.0)},
        }
    _dump_json(payload, args.output)
    return 0


def _cmd_props(args) -> int:
    outcomes = properties.run_property_suite(
        seed=args.seed, instances=args.instances, tol=args.tol
    )
    width = max(len(o.name) for o in outcomes)
    failures = 0
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        sys.stdout.write(
            f"{o.name:<{width}}  instances={o.instances}  failures={o.failures}  "
            f"worst={o.worst_violation:.3e}  {status}\n"
        )
        failures += o.failures
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodens",
        description="Information-density leakage analysis for privacy mechanisms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="mechanism JSON document")
        p.add_argument("--mode", choices=("float", "rational"), default="float")
        p.add_argument("--unit", choices=("nats", "bits"), default="nats")

    p = sub.add_parser("analyze", help="per-outcome leakage profile and levels")
    common(p)
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("translate", help="implication closure of one guarantee")
    p.add_argument("--pml", type=float)
    p.add_argument("--pmc", type=float)
    p.add_argument("--lip", type=float)
    p.add_argument("--ldp", type=float)
    p.add_argument("--alip", type=float, nargs=2, metavar=("EPS_L", "EPS_U"))
    p.add_argument("--pmin", type=float, required=True)
    p.add_argument("--output")
    p.add_argument("--unit", choices=("nats", "bits"), default="nats")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("sweep", help="tabulate the translation curves")
    p.add_argument("--pmin", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--unit", choices=("nats", "bits"), default="nats")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="brute-force certification of one outcome")
    common(p)
    p.add_argument("--y", type=int, required=True, help="outcome index")
    p.add_argument("--grid", type=int, default=11, help="lattice resolution")
    p.add_argument("--max-u", dest="max_u", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mechanism", help="dump a constructed mechanism")
    common(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_mechanism)

    p = sub.add_parser("props", help="randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_props)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfodensError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
