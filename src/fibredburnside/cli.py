"""Command-line front end.

Subcommands: group, basis, compose, hat, counterexample, verify.
Exit codes: 0 success, 1 assertion or property failure, 2 usage errors
(including inputs beyond the order-64 enumeration bound or the fixed
order-15 catalog, and fibre groups that are not abelian), 141 (128 +
SIGPIPE) when the reader closes stdout early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

from . import fibred, hat, sampling
from .groups import (
    BoundExceededError,
    GroupError,
    GroupSpecError,
    center,
    frattini,
    group_from_spec,
    automorphisms,
    small_groups_catalog,
    subgroups,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a piped writer


def _load_element(arg: str) -> fibred.FibredElement:
    text = arg.strip()
    if not text.startswith(("{", "[")):
        try:
            text = Path(arg).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise OSError(f"element file is not UTF-8 text: {arg!r} "
                          f"({exc.reason} at byte {exc.start})") from None
    return fibred.element_from_json(json.loads(text))


def _emit(data, as_json: bool, text_lines, table=None):
    """Print ``data`` as JSON (indent 2, sorted keys) or the text lines.
    ``table``, a pair (rows, cells), stands for ``data["table"]``, the
    matrix with cells[i] at each index i of ``rows``: the n + 1 cells are
    encoded once and each row is joined from them, as the pure-Python
    encoder that indent selects takes seconds on millions of cells."""
    if not as_json:
        for line in text_lines:
            print(line)
        return
    if table is None:
        # With indent the encoder yields tens of millions of small chunks
        # for a large value: json.dumps holds them all in one list, and
        # json.dump writes them one by one.  Batches of them do neither.
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
        for batch in iter(lambda: "".join(itertools.islice(chunks, 1 << 16)),
                          ""):
            sys.stdout.write(batch)
        print()
        return
    rows, cells = table
    # the key is at depth 1, the only lines indented by exactly two spaces
    head, tail = json.dumps({**data, "table": []}, indent=2,
                            sort_keys=True).split('\n  "table": []')
    cells = [json.dumps(c, indent=2, sort_keys=True).replace("\n", "\n      ")
             for c in cells]
    sys.stdout.write(head + '\n  "table": [' + ("" if rows else "]"))
    for i, row in enumerate(rows):
        text = ("[\n      " + ",\n      ".join([cells[c] for c in row])
                + "\n    ]") if row else "[]"
        sys.stdout.write(("," if i else "") + "\n    " + text)
    print(("\n  ]" if rows else "") + tail)


def cmd_group(args) -> int:
    G = group_from_spec(args.spec)
    aut = automorphisms(G)
    report = {
        "spec": args.spec,
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian,
        "center_order": center(G).order,
        "frattini_order": frattini(G).order,
        "subgroup_count": len(subgroups(G)),
        "aut_order": len(aut.all),
        "out_order": aut.out_order,
    }
    _emit(report, args.json, [
        f"group {G.name}: order {G.order}"
        + (" (abelian)" if G.is_abelian else ""),
        f"  center order    {report['center_order']}",
        f"  frattini order  {report['frattini_order']}",
        f"  subgroups       {report['subgroup_count']}",
        f"  |Aut| = {report['aut_order']}, |Out| = {report['out_order']}",
    ])
    return EXIT_OK


def cmd_basis(args) -> int:
    G = group_from_spec(args.group)
    C = group_from_spec(args.fibre)
    classes = fibred.subcharacter_classes(G, C)
    data = {
        "group": G.name,
        "fibre": C.name,
        "count": len(classes),
        "classes": [{"group_spec": G.name, "fibre": C.name,
                     "subgroup_elements": list(sc.elements),
                     "delta_images": list(sc.delta)}
                    for sc in classes],
    }
    lines = [f"basis of the {C.name}-monomial Burnside ring of {G.name}: "
             f"{len(classes)} classes"]
    for sc in classes:
        els = ",".join(G.label(x) for x in sc.elements)
        vals = ",".join(C.label(v) for v in sc.delta)
        lines.append(f"  D = {{{els}}}  delta = ({vals})")
    _emit(data, args.json, lines)
    return EXIT_OK


def cmd_compose(args) -> int:
    X = _load_element(args.left)
    Y = _load_element(args.right)
    result = fibred.compose(X, Y, check=args.check)
    data = fibred.element_to_json(result)
    lines = [f"composition over {result.left.name} x {result.right.name} "
             f"({len(result.terms)} terms)"
             + ("; formula/oracle agreement checked" if args.check else "")]
    for cls, coeff in result.sorted_terms():
        lines.append(f"  {coeff:+d} * {cls.describe()}")
    _emit(data, args.json, lines)
    return EXIT_OK


def cmd_hat(args) -> int:
    G = group_from_spec(args.group)
    C = group_from_spec(args.fibre)
    prime = hat.is_prime(C.order)
    dim, basis = hat.hat_dimension(G, C)
    data = {"group": G.name, "fibre": C.name, "dimension": dim,
            "prime_fibre": prime}
    lines = [f"quotient algebra of {G.name} with fibre {C.name}: "
             f"dimension {dim}"]
    if prime:
        # the generators and their classes that the cross-check reads
        record = hat._prime_data(G, C)
        gens = record.gens
        closed_ok = ({X.raw for X in record.classes}
                     == {X.raw for X in basis})
        report = hat.verify_hat_vs_quotient(G, C)
        # the checked table holds generator indices, -1 for zero, and every
        # product is one generator or zero, so every nonzero cell has
        # coefficient 1: one cell per generator, and index -1 reads the
        # None last
        cells = [{"generator": i, "coeff": "1"}
                 for i in range(len(gens))] + [None]
        table = (report["table"], cells)
        data.update({
            "generators": [g.describe() for g in gens],
            "closed_form_ok": closed_ok,
            "cross_check_ok": report["ok"],
            "cross_check_pairs": report["pairs"],
            "mismatches": report["mismatches"],
        })
        lines.append(f"  structural generators: {len(gens)} "
                     f"(X: {sum(1 for g in gens if g.variant == 'X')}, "
                     f"Y: {sum(1 for g in gens if g.variant == 'Y')})")
        for i, g in enumerate(gens):
            lines.append(f"    [{i}] {g.describe()}")
        lines.append("  multiplication table "
                     "(entries are generator indices, . = 0):")
        if not args.json:
            for i, row in enumerate(report["table"]):
                text = " ".join(f"{c:>3d}" if c >= 0 else "  ." for c in row)
                lines.append(f"    [{i:>3d}] {text}")
        lines.append("  survivors equal the closed-form generator classes: "
                     + ("ok" if closed_ok else "MISMATCH"))
        lines.append("  cross-check against compose-then-reduce: "
                     + ("ok" if report["ok"] else "MISMATCH"))
        if not (closed_ok and report["ok"]):
            _emit(data, args.json, lines, table)
            return EXIT_FAILURE
    else:
        table = None
        lines.append("  fibre order is not prime: brute-force dimension "
                     "only, no closed-form table")
    _emit(data, args.json, lines, table)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    try:
        report = hat.counterexample_verify()
    except hat.VerificationError as exc:
        if args.json:
            print(json.dumps({"ok": False, "failed_step": exc.step,
                              "detail": exc.detail}, indent=2))
        else:
            print(f"FAILED at step: {exc.step}  ({exc.detail})")
        return EXIT_FAILURE
    lines = [
        "counterexample verification over "
        f"{report['left_group']} / {report['right_group']} with fibre "
        f"{report['fibre']}:"]
    for stepinfo in report["steps"]:
        lines.append(f"  PASS {stepinfo['name']}"
                     + (f"  [{stepinfo['detail']}]"
                        if stepinfo["detail"] else ""))
    lines.append(f"  searched groups: "
                 + ", ".join(report["searched_groups"]))
    lines.append("  swept groups: " + ", ".join(report["swept_groups"])
                 + " (every other searched group embeds in one of these)")
    lines.append("  all steps passed: the idempotent survives in the "
                 "quotient on both sides")
    _emit(report, args.json, lines)
    return EXIT_OK


def _check(failures, what, inputs, holds):
    """Record a failure when ``holds()`` is false or raises GroupError.
    The line carries the element JSON of the inputs, each quoted in the
    form that ``compose --check`` accepts."""
    try:
        ok, detail = holds(), ""
    except GroupError as exc:
        ok, detail = False, f" ({exc})"
    if not ok:
        failures.append(f"{what} fails{detail}; inputs: " + " ".join(
            "'" + json.dumps(fibred.element_to_json(e)) + "'"
            for e in inputs))


def _verify_axioms(rng, failures):
    # every composition here also runs the orbit oracle (check=True)
    from .fibred import compose, element_of, identity_element
    C2 = group_from_spec("C2")
    C4 = group_from_spec("C4")
    for C in (C2, C4):
        for G in small_groups_catalog(6):
            idG = identity_element(G, C)
            for X in fibred.transitive_basis(G, G, C):
                e = element_of(X)
                _check(failures, f"identity law on {G.name} ({C.name})",
                       (idG, e),
                       lambda: (compose(idG, e, check=True) == e
                                and compose(e, idG, check=True) == e))
    for _ in range(50):
        C = group_from_spec(rng.choice(["C2", "C3"]))
        gs = [sampling.random_group(rng, 6) for _ in range(4)]
        X = sampling.random_transitive_class(rng, gs[0], gs[1], C)
        Y = sampling.random_transitive_class(rng, gs[1], gs[2], C)
        Z = sampling.random_transitive_class(rng, gs[2], gs[3], C)
        ex, ey, ez = map(element_of, (X, Y, Z))
        _check(failures, f"associativity on {[g.name for g in gs]}",
               (ex, ey, ez),
               lambda: compose(compose(ex, ey, check=True), ez, check=True)
               == compose(ex, compose(ey, ez, check=True), check=True))


def _verify_oracle(rng, failures):
    from .fibred import compose, compose_oracle, element_of
    for i in range(60):
        C = group_from_spec(rng.choice(["C2", "C3", "C4"]))
        gs = [sampling.random_group(rng, 8) for _ in range(3)]
        X = sampling.random_transitive_class(rng, gs[0], gs[1], C)
        Y = sampling.random_transitive_class(rng, gs[1], gs[2], C)
        ex, ey = element_of(X), element_of(Y)
        _check(failures, f"formula/oracle agreement on sample {i}",
               (ex, ey), lambda: compose(ex, ey) == compose_oracle(ex, ey))


def _verify_prime(rng, failures):
    for spec in ("C2", "C3", "C4", "C2xC2", "S3", "D8", "Q8"):
        G = group_from_spec(spec)
        for cspec in ("C2", "C3"):
            C = group_from_spec(cspec)
            report = hat.verify_hat_vs_quotient(G, C, check=True)
            if not report["ok"]:
                failures.append(f"hat product mismatch for {spec}/{cspec}: "
                                f"{report['mismatches'][:2]}")


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    failures = []
    suites = {
        "axioms": _verify_axioms,
        "oracle": _verify_oracle,
        "prime": _verify_prime,
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    for name in chosen:
        before = len(failures)
        suites[name](rng, failures)
        failures[before:] = [f"seed {args.seed}, suite {name}: {f}"
                             for f in failures[before:]]
        status = "ok" if len(failures) == before else "FAILED"
        if not args.json:
            print(f"suite {name}: {status}")
    if args.json:
        print(json.dumps({"suites": chosen, "seed": args.seed,
                          "failures": failures, "ok": not failures},
                         indent=2))
    elif failures:
        for f in failures:
            print(f"  {f}")
    return EXIT_FAILURE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibredburnside",
        description="Monomial Burnside rings, fibred biset composition, "
                    "and the quotient algebra over finite groups.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="census of a group spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("basis", help="subcharacter basis of the ring")
    p.add_argument("group")
    p.add_argument("fibre")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("compose", help="compose two elements "
                                       "(JSON inline or file path)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--check", action="store_true",
                   help="also run the orbit oracle and compare")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("hat", help="quotient-algebra census and table")
    p.add_argument("group")
    p.add_argument("fibre")
    p.set_defaults(func=cmd_hat)

    p = sub.add_parser("counterexample",
                       help="run the flagship regression")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=["axioms", "oracle", "prime", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def _unknown_global_option(argv) -> Optional[str]:
    """The first option before the command that is not a global one.
    argparse would take the word after it for the command and report that
    word, not the option."""
    for token in argv:
        if token == "--" or not token.startswith("-"):
            return None
        name = token.split("=", 1)[0]
        if name != "-h" and not any(opt.startswith(name)
                                    for opt in ("--json", "--help")):
            return name
    return None


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    unknown = _unknown_global_option(argv)
    if unknown is not None:
        parser.error(f"unrecognized option {unknown!r} before the command "
                     f"(the only global option is --json)")
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flushed here, so that a closed pipe cannot fail at exit instead
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; whatever is still buffered goes to devnull
        # when the interpreter flushes stdout at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (GroupSpecError, BoundExceededError, fibred.FibreError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
