"""Command-line workbench: parse inputs, dispatch to the library, emit
deterministic JSON (sorted keys, canonical polynomial text) or a flat
text rendering.

Exit codes: 0 success, 2 input error, 3 computation refused
(NotQuasiDominant, NotHomogeneous, ...), 4 internal bound exceeded.
Progress notes go to stderr; stdout stays machine-clean.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexes, hochschild, koszuldual, matfac, polyring, quiverlab
from . import findim, stabilize
from .errors import (
    BoundExceeded,
    InputError,
    ParseError,
    RefusedError,
)
from .fields import QQ, QQI, field_by_name
from .findim import algebra_from_json
from .polyring import Ring, format_poly, parse_poly

SCHEMAS = {
    "poly gb": {
        "flags": {
            "--ring": "comma-separated variable names",
            "--weights": "comma-separated positive integers (optional)",
            "--field": "rat | gauss | gf:<p>",
            "--gens": "semicolon-separated polynomials",
        },
        "output": {"basis": ["poly"], "leading": ["mono"]},
    },
    "milnor": {
        "flags": {
            "--ring": "variables",
            "--weights": "weights",
            "--field": "field",
            "--sigma": "polynomial",
        },
        "output": {"milnorNumber": "int | 'infinite'", "basis": ["mono"]},
    },
    "tjurina": {
        "flags": {"--ring": "variables", "--sigma": "polynomial"},
        "output": {"tjurinaNumber": "int | 'infinite'", "basis": ["mono"]},
    },
    "mf": {
        "input": {
            "ring": {
                "variables": ["name"],
                "weights": ["int (optional)"],
                "field": "rat (optional)",
            },
            "sigma": "poly",
            "phi": [["poly"]],
            "psi": [["poly"]],
            "weights_even": ["rational (optional)"],
            "weights_odd": ["rational (optional)"],
        }
    },
    "stab": {
        "flags": {
            "--ring": "variables",
            "--sigma": "polynomial",
            "--ideal": "semicolon-separated regular sequence",
        },
        "output": {"phi": [["poly"]], "psi": [["poly"]], "sigmaCoeffs": ["poly"]},
    },
    "endcoh": {
        "flags": {
            "--ring": "variables",
            "--sigma": "polynomial",
            "--ideal": "regular sequence",
            "--weight-bound": "int",
            "--theta-weights": "ints (optional)",
            "--t-weights": "ints (optional)",
        },
        "output": {"dims": {"parity,weight": "int"}},
    },
    "hh": {
        "input": {
            "grading": "Z | Z2 (optional)",
            "basis": ["name"],
            "degrees": ["int (optional)"],
            "unit": "name",
            "products": {"a,b": {"c": "scalar (optional)"}},
            "differential": {"a": {"b": "scalar (optional)"}},
            "curvature": {"a": "scalar (optional)"},
            "field": "rat (optional)",
        },
        "flags": {
            "--variant": "cochain | chain",
            "--support": "sum | product",
            "--window": "a:b",
            "--trunc": "tensor length bound",
            "--unreduced": "use unreduced slots",
        },
    },
    "quiver": {
        "input": {
            "vertices": ["name"],
            "arrows": [{"name": "a", "from": "v", "to": "w"}],
            "extending": "index (optional)",
        }
    },
    "quiver drinfeld": {
        "input": {
            "algebra": {
                "basis": ["name"],
                "unit": "name",
                "products": {"a,b": {"c": "scalar (optional)"}},
                "field": "rat (optional)",
            },
            "idempotent": "{name: scalar}",
        },
        "flags": {"--depth": "depth bound", "--window": "a:b"},
    },
    "koszul-dual": {
        "input": {
            "basis": ["name"],
            "degrees": ["int (optional)"],
            "unit": "name",
            "products": {"a,b": {"c": "scalar (optional)"}},
        },
        "flags": {"--trunc": "bar length bound", "--window": "a:b"},
    },
    "bar": {"flags": {"--trunc": "word length bound"}},
    "cobar": {
        "input": {
            "basis": ["name"],
            "degrees": ["int (optional)"],
            "coaug": "name",
            "delta": {"c": {"a,b": "scalar (optional)"}},
            "weights": ["int (optional)"],
        },
        "flags": {"--trunc": "total weight bound"},
    },
}


def _emit(args, payload):
    if getattr(args, "out", "json") == "text":
        for line in _flatten("", payload):
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _flatten(prefix, value):
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            yield from _flatten(f"{prefix}{k}.", value[k])
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(f"{prefix}{i}.", v)
    else:
        yield f"{prefix.rstrip('.')} = {value}"


def _maybe_schema(args, name):
    if getattr(args, "schema", False):
        print(json.dumps(SCHEMAS.get(name, {}), sort_keys=True, indent=2))
        return True
    return False


def _ring_from_args(args):
    variables = tuple(v.strip() for v in args.ring.split(",") if v.strip())
    weights = None
    if getattr(args, "weights", None):
        weights = tuple(int(w) for w in args.weights.split(","))
    field = field_by_name(getattr(args, "field", "rat") or "rat")
    return Ring(variables, weights, field)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ParseError(f"cannot read {path}: {ex}") from ex


def _optional(spec):
    """A schema entry is optional when its text says so; an object-valued
    entry when every entry inside it is."""
    if isinstance(spec, dict):
        return all(_optional(sub) for sub in spec.values())
    return "(optional)" in json.dumps(spec)


def _check(doc, spec, what):
    """InputError unless `doc` has every non-optional key of an object spec;
    its entries, and the items of a list-of-objects spec, are checked too."""
    if isinstance(spec, dict):
        if not isinstance(doc, dict):
            raise InputError(f"{what} must be a JSON object")
        for key, sub in spec.items():
            if key in doc:
                _check(doc[key], sub, f"{what} {key!r}")
            elif not _optional(sub):
                raise InputError(f"{what} lacks required key {key!r}")
    elif isinstance(spec, list) and isinstance(spec[0], dict):
        if not isinstance(doc, list):
            raise InputError(f"{what} must be a JSON list")
        for item in doc:
            _check(item, spec[0], f"{what} item")


def _require_keys(doc, schema_name):
    _check(doc, SCHEMAS[schema_name]["input"], f"{schema_name} input")
    return doc


def _require_file(args):
    """InputError unless a file was given; argparse cannot require it
    because `--schema` and `quiver blocks` run without one."""
    if args.file is None:
        raise InputError(f"{args.command} {args.action} needs an input file")


def _load_mf(path):
    doc = _require_keys(_load_json(path), "mf")
    m = matfac.MatrixFactorisation.from_json(doc)
    if "weights_even" in doc and "weights_odd" in doc:
        from fractions import Fraction

        m = m.graded(
            tuple(Fraction(str(w)) for w in doc["weights_even"]),
            tuple(Fraction(str(w)) for w in doc["weights_odd"]),
        )
    return m


def _window(text):
    """The degrees lo..hi of a `lo:hi` window."""
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise InputError(f"--window must be lo:hi, got {text!r}") from None
    if lo > hi:
        raise InputError(f"--window {text!r} is inverted")
    return list(range(lo, hi + 1))


def _parse_lambda(text):
    scalar_ring = Ring((), field=QQI)
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        out.append(parse_poly(scalar_ring, chunk).constant_term())
    return out


def _dims_json(dims):
    return {",".join(str(k) for k in key) if isinstance(key, tuple) else str(key): v
            for key, v in sorted(dims.items(), key=lambda kv: str(kv[0]))}


# -- command handlers ------------------------------------------------------------


def cmd_poly_gb(args):
    if _maybe_schema(args, "poly gb"):
        return 0
    ring = _ring_from_args(args)
    gens = [parse_poly(ring, g) for g in args.gens.split(";") if g.strip()]
    gb = polyring.buchberger(gens)
    _emit(args, {
        "basis": [format_poly(g) for g in gb.generators],
        "leading": [format_poly(ring.monomial(e)) for e in gb.leading_exponents()],
    })
    return 0


def _milnor_like(args, fn, key):
    ring = _ring_from_args(args)
    sigma = parse_poly(ring, args.sigma)
    qb, number = fn(sigma)
    _emit(args, {
        key: number if number is not None else "infinite",
        "finite": qb.finite,
        "basis": [format_poly(ring.monomial(e)) for e in qb.monomials],
    })
    return 0


def cmd_milnor(args):
    if _maybe_schema(args, "milnor"):
        return 0
    return _milnor_like(args, polyring.milnor_algebra, "milnorNumber")


def cmd_tjurina(args):
    if _maybe_schema(args, "tjurina"):
        return 0
    return _milnor_like(args, polyring.tjurina_algebra, "tjurinaNumber")


def cmd_mf(args):
    if _maybe_schema(args, "mf"):
        return 0
    _require_file(args)
    action = args.action
    if action == "verify":
        ok, witness = matfac.mf_verify(_load_mf(args.file))
        payload = {"ok": ok}
        if witness:
            payload["witness"] = witness
        _emit(args, payload)
        return 0
    if action == "shift":
        _emit(args, matfac.mf_shift(_load_mf(args.file)).to_json())
        return 0
    if action == "tensor":
        if not args.file2:
            raise InputError("tensor needs two files")
        out = matfac.mf_tensor(_load_mf(args.file), _load_mf(args.file2))
        _emit(args, out.to_json())
        return 0
    if action == "unfold":
        m = _load_mf(args.file)
        window = 3 if args.window_size is None else args.window_size
        c = matfac.mf_unfold(m, window)
        payload = {
            "grading": c.grading,
            "components": {
                str(d): [str(w) for w in c.weights(d)] for d in c.degrees()
            },
            "differentials": {
                str(d): c.differentials[d].to_json() for d in sorted(c.differentials)
            },
            "d_squared_zero": c.check_d_squared(),
        }
        _emit(args, payload)
        return 0
    if action == "coker":
        pres = matfac.mf_cokernel(_load_mf(args.file))
        payload = {
            "generators": pres.generators,
            "matrix": pres.matrix.to_json(),
        }
        if args.trunc:
            payload["dims_filtered"] = pres.dims_filtered(args.trunc)
        _emit(args, payload)
        return 0
    if action == "knoerrer-g":
        out = matfac.knoerrer_g(_load_mf(args.file), args.var or "y")
        _emit(args, out.to_json())
        return 0
    if action == "knoerrer-h":
        names = (args.vars or "u,v").split(",")
        out = matfac.knoerrer_h(_load_mf(args.file), names[0], names[1])
        _emit(args, out.to_json())
        return 0
    if action == "rho":
        out = matfac.restrict_rho(_load_mf(args.file), args.var or "y")
        _emit(args, out.to_json())
        return 0
    if action == "hom":
        if not args.file2:
            raise InputError("hom needs two files")
        x = _load_mf(args.file)
        y = _load_mf(args.file2)
        if not x.is_graded():
            x = x.graded()
        if not y.is_graded():
            y = y.graded()
        h = matfac.mf_hom_complex(x, y)
        bound = args.weight_bound if args.weight_bound is not None else 3
        dims = complexes.periodic_slice_cohomology(
            h, bound, min_weight=-bound
        )
        _emit(args, {"dims": _dims_json(dims)})
        return 0
    raise InputError(f"unknown mf action {action!r}")


def cmd_stab(args):
    if _maybe_schema(args, "stab"):
        return 0
    ring = _ring_from_args(args)
    sigma = parse_poly(ring, args.sigma)
    gens = [parse_poly(ring, g) for g in args.ideal.split(";") if g.strip()]
    st = stabilize.stabilise(ring, gens, sigma)
    ok, _ = matfac.mf_verify(st.mf)
    _emit(args, {
        "phi": st.mf.phi.to_json(),
        "psi": st.mf.psi.to_json(),
        "sigmaCoeffs": [format_poly(c) for c in st.sigma_coeffs],
        "verified": ok,
    })
    return 0


def cmd_endcoh(args):
    if _maybe_schema(args, "endcoh"):
        return 0
    ring = _ring_from_args(args)
    sigma = parse_poly(ring, args.sigma)
    gens = [parse_poly(ring, g) for g in args.ideal.split(";") if g.strip()]
    st = stabilize.stabilise(ring, gens, sigma)
    end = stabilize.end_dg_algebra_of(st)
    print("computing slice cohomology...", file=sys.stderr)
    theta_w = (
        [int(w) for w in args.theta_weights.split(",")]
        if args.theta_weights
        else None
    )
    t_w = [int(w) for w in args.t_weights.split(",")] if args.t_weights else None
    bound = args.weight_bound if args.weight_bound is not None else 3
    table = stabilize.end_cohomology(end, bound, theta_w, t_w)
    _emit(args, {
        "dims": _dims_json(table.dims),
        "shift": str(table.shift),
        "sigmaCoeffs": [format_poly(c) for c in st.sigma_coeffs],
    })
    return 0


def _curved_from_json(doc):
    alg = algebra_from_json(doc)
    grading = doc.get("grading", "Z")
    degrees = doc.get("degrees", [0] * alg.dim)
    scalar_of = findim.scalar_reader(alg.field)
    diff = {}
    for a, val in doc.get("differential", {}).items():
        diff[findim.basis_index(alg.basis, a)] = {
            findim.basis_index(alg.basis, b): scalar_of(v)
            for b, v in val.items()
        }
    curvature = alg.zero_vector()
    for a, v in doc.get("curvature", {}).items():
        curvature[findim.basis_index(alg.basis, a)] = scalar_of(v)
    return hochschild.CurvedAlgebra(alg, grading, degrees, diff, curvature)


def cmd_hh(args):
    if _maybe_schema(args, "hh"):
        return 0
    curved = _curved_from_json(_require_keys(_load_json(args.file), "hh"))
    ok, witness = hochschild.validate_curved(curved)
    if not ok:
        raise RefusedError(f"invalid curved algebra: {witness}")
    spec = hochschild.HochschildComplexSpec(
        curved,
        variant=args.variant.upper(),
        support=args.support.upper(),
        length_bound=args.trunc,
        reduced=not args.unreduced,
    )
    window = _window(args.window)
    print(f"assembling Hochschild complex (L={args.trunc})...", file=sys.stderr)
    if spec.variant == "COCHAIN":
        hc = hochschild.hochschild_cohomology(spec, window)
        _emit(args, {"dims": _dims_json(hc.dims)})
    else:
        dims = hochschild.hochschild_homology(spec, window)
        _emit(args, {"dims": _dims_json(dims)})
    return 0


def cmd_quiver(args):
    schema = "quiver drinfeld" if args.action == "drinfeld" else "quiver"
    if _maybe_schema(args, schema):
        return 0
    action = args.action
    if action == "blocks":
        lam = _parse_lambda(args.lam) if args.lam else []
        report = quiverlab.dsg_blocks(args.type, lam)
        _emit(args, {"blocks": report.to_json()})
        return 0
    _require_file(args)
    if action == "drinfeld":
        doc = _require_keys(_load_json(args.file), "quiver drinfeld")
        alg = algebra_from_json(doc["algebra"])
        e = alg.element(doc["idempotent"])
        depth = 6 if args.depth is None else args.depth
        window = _window(args.window) if args.window else [0, -1, -2, -3]
        D = quiverlab.drinfeld_quotient(alg, e, depth)
        _emit(args, {
            "dims": _dims_json(D.dims()),
            "cohomology": _dims_json(quiverlab.drinfeld_cohomology(D, window)),
        })
        return 0
    q = quiverlab.Quiver.from_json(_require_keys(_load_json(args.file), "quiver"))
    if action == "paths":
        paths = quiverlab.path_basis(q, args.max_len)
        _emit(args, {
            "paths": [quiverlab.path_name(q, p) for p in paths],
            "count": len(paths),
        })
        return 0
    if action == "preproj":
        lam = _parse_lambda(args.lam) if args.lam else None
        dq, rels = quiverlab.preprojective_relations(q, lam)
        payload = {"relations": [repr(r) for r in rels]}
        if args.trunc:
            field = QQI if lam is not None else QQ
            payload["dims"] = quiverlab.truncated_algebra_dim(
                dq, rels, args.trunc, field
            )
        _emit(args, payload)
        return 0
    if action == "derived":
        lam = _parse_lambda(args.lam) if args.lam else None
        dg = quiverlab.derived_preprojective(q, lam)
        _emit(args, {
            "relations": [repr(r) for r in dg.relations],
            "h0_dims": dg.h0_truncated_dims(args.trunc or 4),
        })
        return 0
    raise InputError(f"unknown quiver action {action!r}")


def _augmented_from_json(doc):
    alg = algebra_from_json(_require_keys(doc, "koszul-dual"))
    degrees = doc.get("degrees", [0] * alg.dim)
    return koszuldual.AugmentedAlgebra(alg, degrees)


def cmd_koszul_dual(args):
    if _maybe_schema(args, "koszul-dual"):
        return 0
    aug = _augmented_from_json(_load_json(args.file))
    window = _window(args.window) if args.window else [0, 1, 2, 3]
    kd = koszuldual.koszul_dual_cohomology(aug, args.trunc, window)
    _emit(args, {"dims": _dims_json(kd.dims)})
    return 0


def cmd_bar(args):
    if _maybe_schema(args, "bar"):
        return 0
    aug = _augmented_from_json(_load_json(args.file))
    bc = koszuldual.bar(aug, args.trunc)
    _emit(args, {
        "pieces": {
            str(n): {
                "dim": len(piece.basis),
                "degrees": sorted(piece.degrees),
            }
            for n, piece in bc.pieces.items()
        }
    })
    return 0


def cmd_cobar(args):
    if _maybe_schema(args, "cobar"):
        return 0
    doc = _require_keys(_load_json(args.file), "cobar")
    field = field_by_name(doc.get("field", "rat"))
    basis = list(doc["basis"])
    scalar_of = findim.scalar_reader(field)
    reduced_delta = {}
    for c, val in doc.get("delta", {}).items():
        reduced_delta[findim.basis_index(basis, c)] = {
            findim.pair_indices(basis, pair): scalar_of(v)
            for pair, v in val.items()
        }
    coalg = koszuldual.ConilpotentCoalgebra(
        field,
        basis,
        doc.get("degrees", [0] * len(basis)),
        findim.basis_index(basis, doc["coaug"]),
        reduced_delta,
        weights=doc.get("weights"),
    )
    om = koszuldual.cobar(coalg, args.trunc)
    table = om.basis_by_degree()
    _emit(args, {
        "words_by_degree": {str(d): len(ws) for d, ws in sorted(table.items())}
    })
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--out", choices=("json", "text"), default="json")
    parser.add_argument("--schema", action="store_true",
                        help="print the input schema and exit")


def build_parser():
    top = argparse.ArgumentParser(
        prog="singlab",
        description="exact workbench for matrix factorisations, quivers, "
                    "and Koszul duality",
    )
    sub = top.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly").add_subparsers(dest="action", required=True)
    gb = poly.add_parser("gb")
    gb.add_argument("--ring", required=False, default="")
    gb.add_argument("--weights")
    gb.add_argument("--field", default="rat")
    gb.add_argument("--gens", default="")
    _add_common(gb)
    gb.set_defaults(func=cmd_poly_gb)

    for name, fn in (("milnor", cmd_milnor), ("tjurina", cmd_tjurina)):
        p = sub.add_parser(name)
        p.add_argument("--ring", default="")
        p.add_argument("--weights")
        p.add_argument("--field", default="rat")
        p.add_argument("--sigma", default="0")
        _add_common(p)
        p.set_defaults(func=fn)

    mf = sub.add_parser("mf")
    mf.add_argument("action", choices=(
        "verify", "shift", "tensor", "unfold", "coker",
        "knoerrer-g", "knoerrer-h", "rho", "hom",
    ))
    mf.add_argument("file", nargs="?")
    mf.add_argument("file2", nargs="?")
    mf.add_argument("--var")
    mf.add_argument("--vars")
    mf.add_argument("--window-size", type=int, dest="window_size")
    mf.add_argument("--weight-bound", type=int, dest="weight_bound")
    mf.add_argument("--trunc", type=int)
    _add_common(mf)
    mf.set_defaults(func=cmd_mf)

    stab = sub.add_parser("stab")
    for p in (stab,):
        p.add_argument("--ring", default="")
        p.add_argument("--weights")
        p.add_argument("--field", default="rat")
        p.add_argument("--sigma", default="0")
        p.add_argument("--ideal", default="")
        _add_common(p)
    stab.set_defaults(func=cmd_stab)

    endcoh = sub.add_parser("endcoh")
    endcoh.add_argument("--ring", default="")
    endcoh.add_argument("--weights")
    endcoh.add_argument("--field", default="rat")
    endcoh.add_argument("--sigma", default="0")
    endcoh.add_argument("--ideal", default="")
    endcoh.add_argument("--weight-bound", type=int, dest="weight_bound")
    endcoh.add_argument("--theta-weights", dest="theta_weights")
    endcoh.add_argument("--t-weights", dest="t_weights")
    _add_common(endcoh)
    endcoh.set_defaults(func=cmd_endcoh)

    hh = sub.add_parser("hh")
    hh.add_argument("file")
    hh.add_argument("--variant", choices=("cochain", "chain"), default="cochain")
    hh.add_argument("--support", choices=("sum", "product"), default="sum")
    hh.add_argument("--window", default="0:3")
    hh.add_argument("--trunc", type=int, default=6)
    hh.add_argument("--unreduced", action="store_true")
    _add_common(hh)
    hh.set_defaults(func=cmd_hh)

    quiver = sub.add_parser("quiver")
    quiver.add_argument("action", choices=(
        "paths", "preproj", "derived", "blocks", "drinfeld",
    ))
    quiver.add_argument("file", nargs="?")
    quiver.add_argument("--max-len", type=int, dest="max_len", default=3)
    quiver.add_argument("--lambda", dest="lam")
    quiver.add_argument("--type")
    quiver.add_argument("--trunc", type=int)
    quiver.add_argument("--depth", type=int)
    quiver.add_argument("--window")
    _add_common(quiver)
    quiver.set_defaults(func=cmd_quiver)

    kd = sub.add_parser("koszul-dual")
    kd.add_argument("file")
    kd.add_argument("--trunc", type=int, default=6)
    kd.add_argument("--window")
    _add_common(kd)
    kd.set_defaults(func=cmd_koszul_dual)

    barp = sub.add_parser("bar")
    barp.add_argument("file")
    barp.add_argument("--trunc", type=int, default=4)
    _add_common(barp)
    barp.set_defaults(func=cmd_bar)

    cobarp = sub.add_parser("cobar")
    cobarp.add_argument("file")
    cobarp.add_argument("--trunc", type=int, default=4)
    _add_common(cobarp)
    cobarp.set_defaults(func=cmd_cobar)
    return top


PARSER = build_parser()


# Integer flags that bound a computation; a negative bound is an input error.
NONNEGATIVE_FLAGS = ("weight_bound", "trunc", "depth", "window_size")


def _check_bounds(args):
    for name in NONNEGATIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be nonnegative, got {value}")


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        _check_bounds(args)
        return args.func(args)
    except BoundExceeded as ex:
        print(json.dumps({"error": ex.code, "message": str(ex)},
                         sort_keys=True), file=sys.stderr)
        return 4
    except (ParseError, InputError) as ex:
        print(json.dumps({"error": ex.code, "message": str(ex)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except RefusedError as ex:
        print(json.dumps({"error": ex.code, "message": str(ex)},
                         sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
