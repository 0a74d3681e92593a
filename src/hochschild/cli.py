"""Command line front end: algebra files in, canonical JSON reports out.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Reports on stdout are byte-identical across runs on the same input; wall
clock timing goes to stderr under --verbose only.  Each command imports
the modules it runs when it runs, so `hh` loads no extension code and only
`verify-paper` loads the verification suite.
"""

import argparse
import json
import sys
import time


class UsageError(ValueError):
    pass


def degree(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"negative degree {n}")
    return n


def _emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _report(command, data_hash, results):
    return {"command": command, "input_hash": data_hash,
            "results": results, "timing": None}


def _resolve_module(selector, algebra, field):
    from .bimodule import dual_bimodule, regular_bimodule
    if selector == "regular":
        return regular_bimodule(algebra)
    if selector == "dual":
        return dual_bimodule(algebra)
    if selector.startswith("ext:"):
        try:
            m = int(selector.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad module selector {selector!r}")
        from .extcohom import ext_dual_bimodule
        return ext_dual_bimodule(algebra, m)
    if selector.startswith("file:"):
        from .algfile import load_bimodule_file
        return load_bimodule_file(selector.split(":", 1)[1], algebra)
    raise UsageError(f"unknown module selector {selector!r}")


def _cap(args):
    """--cap as given, or the library's bar cap."""
    from .cohomology import BAR_CAP
    return BAR_CAP if args.cap is None else args.cap


def cmd_hh(args):
    from .algebra import build_algebra
    from .algfile import input_hash, load_algebra_file
    from .cohomology import hh
    start = time.monotonic()
    data, pres = load_algebra_file(args.file, expect_field=args.field)
    algebra = build_algebra(pres)
    module = _resolve_module(args.module, algebra, pres.field)
    cap = _cap(args)
    dims = []
    reps = []
    for n in range(args.max_degree + 1):
        space = hh(algebra, module, n, cap=cap)
        dims.append(space.dim)
        if args.reps:
            reps.append([rep.matrix().to_strings()
                         for rep in space.representatives])
    results = {
        "field": pres.field.tag,
        "algebra_dim": algebra.dim,
        "basis_labels": list(algebra.labels),
        "module": args.module,
        "module_dim": module.dim,
        "dims": dims,
    }
    if args.reps:
        results["representatives"] = reps
    command = {"name": "hh", "module": args.module,
               "max_degree": args.max_degree, "reps": bool(args.reps)}
    if args.verbose:
        print(f"dim {algebra.dim} algebra, module {args.module} "
              f"(dim {module.dim}); hh dims {dims}; "
              f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    _emit(_report(command, input_hash(data), results))
    return 0


def cmd_phi(args):
    from .algebra import build_algebra
    from .algfile import input_hash, load_algebra_file
    from .extension import projection_morphism, trivial_extension
    start = time.monotonic()
    data, pres = load_algebra_file(args.file, expect_field=args.field)
    algebra = build_algebra(pres)
    module = _resolve_module(args.bimodule, algebra, pres.field)
    ext = trivial_extension(algebra, module)
    phi = projection_morphism(ext, args.degree, cap=_cap(args))
    results = phi.report()
    results["bimodule"] = args.bimodule
    command = {"name": "phi", "bimodule": args.bimodule,
               "degree": args.degree}
    if args.verbose:
        print(f"phi^{args.degree}: {phi.source.dim} -> {phi.target.dim}, "
              f"rank {phi.rank}, surjective {phi.surjective}; "
              f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    _emit(_report(command, input_hash(data), results))
    return 0


def cmd_relext(args):
    from .algfile import emit_algebra_file, input_hash, load_algebra_file
    from .quiver import Presentation
    from .relext import relation_extension_algebra
    start = time.monotonic()
    data, pres = load_algebra_file(args.file, expect_field=args.field)
    rext, algebra_b = relation_extension_algebra(pres)
    pres_b = Presentation(rext.quiver, pres.field, rext.relations)
    results = {
        "dim_B": algebra_b.dim,
        "new_arrows": [{"name": n,
                        "from": rext.quiver.arrow_by_name[n].source,
                        "to": rext.quiver.arrow_by_name[n].target}
                       for n, _ in rext.new_arrows],
        "potential": rext.potential.label(),
        "relations": [r.label() for r in rext.relations],
        "implied_square_generators":
            [r.label() for r in rext.implied_square_generators],
        "gldim_le_2_asserted": True,
        "algebra_file": emit_algebra_file(pres_b),
    }
    command = {"name": "relext"}
    if args.verbose:
        print(f"dim B = {algebra_b.dim}, {len(rext.new_arrows)} new "
              f"arrow(s); elapsed {time.monotonic() - start:.2f}s",
              file=sys.stderr)
    _emit(_report(command, input_hash(data), results))
    return 0


def cmd_verify_paper(args):
    from .verification import run_blocks
    start = time.monotonic()
    timings = []
    body = run_blocks(only=args.only, timings=timings)
    if args.verbose:
        for block, (name, seconds, check_seconds) in zip(body["blocks"],
                                                         timings):
            for check, dt in zip(block["checks"], check_seconds):
                verdict = "pass" if check["pass"] else "FAIL"
                print(f"[{verdict}] {name}: {check['name']} ({dt:.3f}s)",
                      file=sys.stderr)
            print(f"block {name}: {seconds:.3f}s", file=sys.stderr)
        print(f"elapsed: {time.monotonic() - start:.1f}s", file=sys.stderr)
    command = {"name": "verify-paper", "only": args.only}
    _emit(_report(command, body.pop("input_hash"), body))
    return 0 if body["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hochschild",
        description="Exact Hochschild cohomology of bound quiver algebras "
                    "and their split extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default=None,
                       help="expected field tag; mismatch with the file "
                            "is an error")
        p.add_argument("--verbose", action="store_true")

    def cap(p):
        p.add_argument("--cap", type=int, default=None,
                       help="cap on (dim A)^(n+1) * dim M, the size of "
                            "the bar complex in degree n; hh^n is gated on "
                            "it, though it builds the smaller normalized "
                            "complex (see ROADMAP item 2); default "
                            "cohomology.BAR_CAP")

    p_hh = sub.add_parser("hh", help="cohomology dimensions of an algebra")
    p_hh.add_argument("file")
    p_hh.add_argument("--module", default="regular",
                      help="regular | dual | ext:m | file:path")
    p_hh.add_argument("--max-degree", type=degree, default=2)
    p_hh.add_argument("--reps", action="store_true",
                      help="include representative cocycles")
    common(p_hh)
    cap(p_hh)
    p_hh.set_defaults(func=cmd_hh)

    p_phi = sub.add_parser("phi", help="projection morphism of a trivial "
                                       "extension")
    p_phi.add_argument("file")
    p_phi.add_argument("--bimodule", default="dual",
                       help="regular | dual | ext:m | file:path")
    p_phi.add_argument("--degree", type=degree, default=1)
    common(p_phi)
    cap(p_phi)
    p_phi.set_defaults(func=cmd_phi)

    p_rx = sub.add_parser("relext", help="relation extension presentation")
    p_rx.add_argument("file")
    common(p_rx)
    p_rx.set_defaults(func=cmd_relext)

    p_vp = sub.add_parser("verify-paper",
                          help="run the bundled verification suite")
    p_vp.add_argument("--only", default=None,
                      help="run a single named block")
    p_vp.add_argument("--verbose", action="store_true")
    p_vp.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
