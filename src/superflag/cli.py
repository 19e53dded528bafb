"""Command-line interface: exact computations and verification suites.

Exit codes: 0 all requested checks pass; 1 a verification check fails,
or standard output closed before everything was written; 2 usage or input
errors, sizes too large to allocate among them.  The environment variable
SUPERFLAG_MAX_SIZE (default 6) caps the sizes accepted by the symbolic
commands, since costs grow quickly; the claims being checked are
size-uniform, so small sizes are the intended witnesses.  ``verify
--max-size N`` sets the cap for one verify run, in place of
SUPERFLAG_MAX_SIZE.  The suites in ``suites.UNCAPPED`` (bwb, whose cost is
linear in its ranks) and the ``bwb`` command take any size.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import BACKEND, __version__
from .charts import (
    FlagTypeError,
    act,
    build_chart,
    chart_variable_count,
    constant_functions_predicate,
    fundamental_field,
    isotropic_chart,
    validate_flag_type,
)
from .matrices import BlockShape, parse_numeric_matrix
from .osp import (
    basis,
    dimension_counts,
    gram_form,
    is_member,
    membership_residual,
)
from .suites import REPORT_SCHEMA, SUITES, UNCAPPED, run_all
from .weights import fiber_description, psi_highest_weights, root_system

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def max_size():
    raw = os.environ.get("SUPERFLAG_MAX_SIZE", "6")
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"SUPERFLAG_MAX_SIZE must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError(f"SUPERFLAG_MAX_SIZE must be at least 1, got {cap}")
    return cap


def _check_sizes(cap=None, **sizes):
    """Reject sizes above ``cap``; without one, the SUPERFLAG_MAX_SIZE cap."""
    override = "--max-size"
    if cap is None:
        cap, override = max_size(), "SUPERFLAG_MAX_SIZE"
    for name, value in sizes.items():
        if value > cap:
            raise UsageError(
                f"{name}={value} exceeds the size cap {cap}"
                f" (raise {override} to override)"
            )


def parse_flag_type(text):
    """Parse 'k=3,1 l=2,1' into a validated flag type."""
    parts = text.split()
    if len(parts) != 2 or not parts[0].startswith("k=") \
            or not parts[1].startswith("l="):
        raise UsageError(f"flag type must look like 'k=3,1 l=2,1', got {text!r}")
    try:
        k = tuple(int(v) for v in parts[0][2:].split(","))
        l = tuple(int(v) for v in parts[1][2:].split(","))
    except ValueError:
        raise UsageError(f"non-integer entry in flag type {text!r}")
    return k, l


def parse_index_sets(specs, ft):
    """Parse ['I1=2;2', 'I2=1;'] into per-step (even, odd) index tuples."""
    if not specs:
        return None
    by_step = {}
    for spec in specs:
        head, _, body = spec.partition("=")
        if not head.startswith("I") or "=" not in spec or ";" not in body:
            raise UsageError(
                f"index set must look like 'I1=2;2' (even;odd), got {spec!r}"
            )
        try:
            step = int(head[1:])
            even_part, odd_part = body.split(";")
            i0 = tuple(int(v) for v in even_part.split(",") if v)
            i1 = tuple(int(v) for v in odd_part.split(",") if v)
        except ValueError:
            raise UsageError(f"malformed index set {spec!r}")
        if step in by_step:
            raise UsageError(f"index set I{step} is given more than once")
        by_step[step] = (i0, i1)
    if sorted(by_step) != list(range(1, ft.r + 1)):
        raise UsageError(
            f"need index sets I1..I{ft.r}, got {sorted(by_step)}"
        )
    return tuple(by_step[s] for s in range(1, ft.r + 1))


def _flavor_sizes(args):
    _check_sizes(m=args.m, n=args.n)
    return args.flavor, args.m, args.n


def cmd_osp_basis(args):
    flavor, a, b = _flavor_sizes(args)
    bas = basis(flavor, a, b)
    ev, od = dimension_counts(flavor, a, b)
    print(f"osp basis, flavor={flavor}, sizes=({a},{b}): "
          f"{ev} even + {od} odd generators")
    for g in bas:
        parity = "odd " if g.parity else "even"
        print(f"  {g.tag:<12} {parity}  {g.matrix.render()}")
    return PASS


def cmd_check_membership(args):
    flavor, a, b = _flavor_sizes(args)
    gram = gram_form(flavor, a, b)
    shape = gram.matrix.rows
    parity = {"0": 0, "1": 1, "auto": "auto"}[args.parity]
    m = parse_numeric_matrix(args.matrix, shape, shape, parity=parity)
    if is_member(m, gram):
        print("member: defining equation M^ST G + G M = 0 holds")
        return PASS
    print("NOT a member; residual M^ST G + G M =")
    print(f"  {membership_residual(m, gram).render()}")
    return FAIL


def cmd_flag_validate(args):
    k, l = parse_flag_type(args.type)
    try:
        ft = validate_flag_type(k, l)
    except FlagTypeError as e:
        print(f"invalid flag type: {e}")
        return FAIL
    ev, od = chart_variable_count(ft)
    constant = constant_functions_predicate(ft)
    print(f"valid flag type {ft} (r={ft.r})")
    print(f"chart variables: {ev} even, {od} odd")
    print("global functions are constants:", "yes" if constant else "no")
    return PASS


def cmd_act(args):
    k, l = parse_flag_type(args.type)
    try:
        ft = validate_flag_type(k, l)
    except FlagTypeError as e:
        raise UsageError(f"invalid flag type: {e}")
    _check_sizes(m=ft.m, n=ft.n)
    chart = build_chart(ft, parse_index_sets(args.index_set, ft))
    shape = BlockShape(ft.m, ft.n)
    L = parse_numeric_matrix(args.matrix, shape, shape, parity=0)
    target = parse_index_sets(args.target, ft)
    moved = act(L, chart, J=target)
    print("chart:")
    print(chart.render())
    print("transformed chart:")
    print(moved.render())
    return PASS


def cmd_fundamental_field(args):
    _check_sizes(k1=args.k1, l1=args.l1)
    iso = isotropic_chart(args.k1, args.l1)
    bas = basis("odd", args.k1 - 1, args.l1)
    try:
        gen = bas[args.tag]
    except KeyError:
        raise UsageError(
            f"unknown generator tag {args.tag!r}; list them with"
            f" 'osp-basis --flavor odd --m {args.k1 - 1} --n {args.l1}'"
        )
    X = -gen.matrix if args.negate else gen.matrix
    v = fundamental_field(X, iso.chart)
    sign = "-" if args.negate else ""
    print(f"fundamental field of {sign}{gen.tag} on the isotropic chart"
          f" (k1={args.k1}, l1={args.l1}):")
    print(f"  {v.render()}")
    return PASS


def cmd_isotropic_chart(args):
    _check_sizes(k1=args.k1, l1=args.l1)
    tail = None
    if args.tail:
        tk, tl = parse_flag_type(args.tail)
        tail = (tk, tl)
    iso = isotropic_chart(args.k1, args.l1, tail=tail)
    print(f"isotropic chart at (k1={args.k1}, l1={args.l1}), type {iso.ft}:")
    print(iso.chart.render())
    print("independent coordinates:", ", ".join(iso.chart.independent))
    res = iso.residual()
    # a product keeps no empty entry, so a zero residual has no entries
    zero = res.is_zero()
    print("isotropy residual Z^ST Gamma Z:", "0" if zero else res.render())
    return PASS if zero else FAIL


def cmd_bwb(args):
    weights = psi_highest_weights(args.k1, args.l1)
    rs = root_system(args.k1, args.l1)
    print(f"highest weights at (k1={args.k1}, l1={args.l1}):")
    if not weights:
        print("  (empty list)")
    survivors = []
    for w in weights:
        violation = rs.violation(w)
        if violation is None:
            survivors.append(w)
            print(f"  {w.render():<24} dominant")
        else:
            print(f"  {w.render():<24} not dominant"
                  f"  (negative against {violation.render()})")
    print("global fiber functions:", fiber_description(survivors))
    return PASS


# verify's size flags and the value each takes when left out
SIZE_DEFAULTS = {"m": 1, "n": 1, "k1": 2, "l1": 1}


def cmd_verify(args):
    if args.max_size is None:
        cap = max_size()
    elif args.max_size < 1:
        raise UsageError(f"--max-size must be at least 1, got {args.max_size}")
    else:
        cap = args.max_size
    fn, params = SUITES[args.suite] if args.suite else (None, ())
    stray = [f"--{p}" for p in SIZE_DEFAULTS
             if p not in params and getattr(args, p) is not None]
    if stray and args.suite:
        raise UsageError(
            f"--suite {args.suite} does not take {', '.join(stray)};"
            f" it takes {' and '.join(f'--{p}' for p in params)}")
    if stray:
        raise UsageError(f"size flags need --suite ({', '.join(stray)}"
                         " given); verify without one runs the default set"
                         " at fixed sizes")
    if args.suite:
        values = [SIZE_DEFAULTS[p] if getattr(args, p) is None
                  else getattr(args, p) for p in params]
        if args.suite not in UNCAPPED:
            _check_sizes(cap, **dict(zip(params, values)))
        reports = [fn(*values)]
    else:
        reports = run_all(cap)
    for r in reports:
        print(r.render())
    ok = all(r.ok for r in reports)
    print(f"verify: {'PASS' if ok else 'FAIL'}"
          f" ({sum(len(r.records) for r in reports)} checks,"
          f" backend={BACKEND}, version={__version__})")
    if args.json_out:
        payload = {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "backend": BACKEND,
            "status": "pass" if ok else "fail",
            "reports": [r.to_dict() for r in reports],
        }
        text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write the report to {args.json_out!r}:"
                             f" {e.strerror or e}") from None
        print(f"structured report written to {args.json_out}")
    return PASS if ok else FAIL


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged, and an ``append`` action copies
    its ``default=[]`` before appending, so every call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="superflag",
        description="Exact orthosymplectic superalgebra and flag-chart"
                    " computations with bundled verification suites.",
    )
    parser.add_argument("--version", action="version",
                        version=f"superflag {__version__} (backend {BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("osp-basis", help="list the canonical generators")
    p.add_argument("--flavor", choices=("odd", "even", "primed", "gl"),
                   default="odd")
    p.add_argument("--m", type=int, required=True,
                   help="first size parameter (block rank)")
    p.add_argument("--n", type=int, required=True,
                   help="second size parameter (odd rank)")
    p.set_defaults(fn=cmd_osp_basis)

    p = sub.add_parser("check-membership",
                       help="test M^ST G + G M = 0 for a numeric matrix")
    p.add_argument("--flavor", choices=("odd", "even", "primed"),
                   default="odd")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parity", choices=("0", "1", "auto"), default="auto")
    p.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','")
    p.set_defaults(fn=cmd_check_membership)

    p = sub.add_parser("flag-validate", help="validate a flag type")
    p.add_argument("--type", required=True, help="e.g. 'k=3,1 l=2,1'")
    p.set_defaults(fn=cmd_flag_validate)

    p = sub.add_parser("act", help="transform a chart by a group element")
    p.add_argument("--type", required=True, help="e.g. 'k=2,1 l=1,1'")
    p.add_argument("--matrix", required=True, help="numeric matrix literal")
    p.add_argument("--index-set", action="append", default=[],
                   metavar="I", help="e.g. 'I1=2;1' (repeatable)")
    p.add_argument("--target", action="append", default=[],
                   metavar="J", help="target index sets (default: same)")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("fundamental-field",
                       help="field of a one-parameter family on the"
                            " isotropic chart")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--tag", required=True, help="generator tag, e.g. G4:1")
    p.add_argument("--negate", action="store_true",
                   help="use the negated generator")
    p.set_defaults(fn=cmd_fundamental_field)

    p = sub.add_parser("isotropic-chart",
                       help="print the resolved isotropic chart")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--tail", help="extra steps, e.g. 'k=1 l=0'")
    p.set_defaults(fn=cmd_isotropic_chart)

    p = sub.add_parser("bwb", help="dominant-weight filter and fiber"
                                   " description")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--l1", type=int, required=True)
    p.set_defaults(fn=cmd_bwb)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=sorted(SUITES))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--l1", type=int)
    p.add_argument("--max-size", type=int,
                   help="size cap, at least 1 (default SUPERFLAG_MAX_SIZE"
                        " or 6); --suite bwb is exempt, since its cost is"
                        " linear in the ranks")
    p.add_argument("--json-out", metavar="FILE",
                   help="write the structured report here")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output (``superflag ... | head -1``).
        # Point it at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return FAIL
    except (UsageError, ValueError, MemoryError) as e:
        # a MemoryError carries no message: sizes too large to allocate
        print(f"error: {str(e) or 'not enough memory for these sizes'}",
              file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
