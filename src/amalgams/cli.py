"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 negative verdict, 2 input
error, 3 precondition failed, 4 conjugate inputs, 5 budget exhausted (also
when ``separate`` proves that no finite p-group separates the inputs).
``verify`` exits 0 for a certificate that passes, 1 for one that is
rejected and 2 for a malformed certificate or amalgam file.
VerificationFailed (an internal re-check rejected a computed conjugator or
witness) is an AmalgamsError and so also exits 2, with its message on
stderr; no positive answer is printed in that case.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import amalgam as am
from . import fileio
from . import fingroup
from . import graphgroups as gg
from . import quotients as qt
from . import separability as sep
from .errors import (
    AmalgamsError,
    BudgetExhausted,
    ElementsConjugate,
    NotCentral,
    NotPrime,
    NotSeparable,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CONJUGATE = 4
EXIT_BUDGET = 5


def _emit(args, text_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for ln in text_lines:
            print(ln)


def cmd_reduce(args) -> int:
    spec = fileio.load_amalgam(args.amalgam)
    w = fileio.parse_word(spec, args.word)
    reduced = am.reduce(spec, w)
    nf = am.normal_form(spec, w)
    n = len(reduced)
    _emit(args,
          [f"reduced: {fileio.render_word(spec, reduced) or '(identity)'}",
           f"normal form: a={nf.amalgam_part} tail=[{fileio.render_word(spec, am.Word(nf.tail))}]",
           f"length: {n}"],
          {"reduced": fileio.render_word(spec, reduced),
           "amalgam_part": nf.amalgam_part,
           "tail": fileio.render_word(spec, am.Word(nf.tail)),
           "length": n})
    return EXIT_OK


def cmd_conjugate(args) -> int:
    spec = fileio.load_amalgam(args.amalgam)
    x = fileio.parse_word(spec, args.word1)
    y = fileio.parse_word(spec, args.word2)
    if args.general:
        verdict = am.is_conjugate_general(spec, x, y)
    else:
        try:
            verdict = am.is_conjugate_central(spec, x, y)
        except NotCentral as exc:
            print(f"error: {exc}; rerun with --general", file=sys.stderr)
            return EXIT_PRECONDITION
    if verdict.conjugate:
        z = fileio.render_word(spec, verdict.conjugator)
        _emit(args, [f"CONJUGATE conjugator: {z or '(identity)'}"],
              {"verdict": "CONJUGATE", "conjugator": z})
        return EXIT_OK
    _emit(args, [f"NOT-CONJUGATE certificate: {verdict.certificate[0]}"],
          {"verdict": "NOT-CONJUGATE", "certificate": str(verdict.certificate)})
    return EXIT_NEGATIVE


def cmd_pairs(args) -> int:
    spec = fileio.load_amalgam(args.amalgam)
    pairs = qt.enumerate_compatible_pairs(spec, args.p, args.max_index)
    lines = [f"{len(pairs)} compatible pairs"]
    payload = []
    for pair in pairs:
        lines.append(f"R={list(pair.R.elements)} S={list(pair.S.elements)} "
                     f"quotients H/R order {pair.quotient_spec.H.order}, "
                     f"K/S order {pair.quotient_spec.K.order}")
        payload.append({"R": list(pair.R.elements), "S": list(pair.S.elements),
                        "quotient_spec": fileio.serialize_amalgam(pair.quotient_spec)})
    _emit(args, lines, {"count": len(pairs), "pairs": payload})
    return EXIT_OK


def cmd_separate(args) -> int:
    spec = fileio.load_amalgam(args.amalgam)
    f = fileio.parse_word(spec, args.word1)
    g = fileio.parse_word(spec, args.word2)
    budget = fileio.load_config(args.config)
    if args.p is not None:
        budget = dataclasses.replace(budget, p=args.p)
    try:
        witness = sep.search_witness(spec, f, g, budget)
    except ElementsConjugate as exc:
        z = fileio.render_word(spec, exc.conjugator) if exc.conjugator else ""
        print(f"inputs are conjugate; conjugator: {z or '(identity)'}",
              file=sys.stderr)
        return EXIT_CONJUGATE
    except NotSeparable as exc:
        print(f"not separable: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    cert = fileio.serialize_certificate(spec, witness, f, g)
    out = Path(args.output)
    out.write_text(cert)
    _emit(args,
          [f"witness target order {witness.target.order} (strategy direct)",
           f"certificate written to {out}"],
          {"target_order": witness.target.order,
           "strategy": "direct", "certificate_path": str(out)})
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = fileio.load_amalgam(args.amalgam)
    cert = fileio.parse_certificate(Path(args.certificate).read_text())
    f, g = fileio.parse_word(spec, cert["f"]), fileio.parse_word(spec, cert["g"])
    X = cert["target"]
    witness = sep.Witness(X, fingroup.GroupHom(spec.H, X, cert["psi_H"]),
                          fingroup.GroupHom(spec.K, X, cert["psi_K"]))
    # The smallest prime factor of |X|; verify_witness rejects a target
    # whose order is not a power of it.
    p = next((d for d in range(2, X.order + 1) if X.order % d == 0), None)
    if p is None or not sep.verify_witness(spec, witness, f, g, p):
        reason = ("the witness fails re-verification (hom laws, agreement "
                  "on A, p-group target or class separation)")
    elif fileio.certificate_images(witness, f, g) != cert["images"]:
        reason = "recorded images differ from the recomputed ones"
    else:
        _emit(args, [f"VERIFIED: target order {X.order}, p = {p}"],
              {"verdict": "VERIFIED", "target_order": X.order, "p": p})
        return EXIT_OK
    _emit(args, [f"REJECTED: {reason}"], {"verdict": "REJECTED", "reason": reason})
    return EXIT_NEGATIVE


def cmd_pi1(args) -> int:
    graph = fileio.load_group_graph(args.graph)
    pres = gg.fundamental_presentation(graph)
    text = gg.presentation_text(pres)
    _emit(args, [text],
          {"generators": list(pres.generators),
           "relators": [[list(t) for t in r] for r in pres.relators]})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgams",
        description="Exact computation in amalgamated free products of "
                    "finite groups.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output mode (json mirrors text field-for-field)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduced form, normal form, and length")
    p.add_argument("amalgam")
    p.add_argument("word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("conjugate", help="decide conjugacy of two words")
    p.add_argument("amalgam")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--general", action="store_true",
                   help="use the general decider (required for non-central "
                        "amalgams)")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("pairs", help="enumerate compatible normal subgroup pairs")
    p.add_argument("amalgam")
    p.add_argument("-p", type=int, default=2)
    p.add_argument("--max-index", type=int, default=16, dest="max_index")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("separate", help="search a conjugacy separation witness")
    p.add_argument("amalgam")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("-o", "--output", default="witness.cert")
    p.add_argument("--config", default=None)
    p.add_argument("-p", type=int, default=None)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="re-check a witness certificate "
                                      "written by separate")
    p.add_argument("amalgam")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pi1", help="fundamental group presentation of a "
                                   "graph of groups")
    p.add_argument("graph")
    p.set_defaults(func=cmd_pi1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotPrime as exc:
        print(f"input error: {exc} is not prime", file=sys.stderr)
        return EXIT_INPUT
    except (AmalgamsError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
