"""Command-line front end: descent reports, residue profiles, the reference
grid, family surveys, and the full regression suite.

Each `_cmd_*` returns (exit code, JSON value, text); `main` prints the
JSON under --json and the text otherwise. `survey` has no JSON value: its
text is NDJSON already. Exit codes: 0 success, 1 computation failed (bad
pair, budget exhausted, a verification mismatch), 2 usage error. A
`DescentError`, which every argument the package rejects raises, prints
one line `error: <Type>: <message>` on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .criteria import residue_profile
from .descent import descend, selmer_group
from .errors import DescentError
from .survey import (
    REFERENCE_GRID,
    FamilySpec,
    check_grid_row,
    render_ndjson,
    run_survey,
    verify_reference,
)


def _render_classify(rep) -> str:
    lines = [f"k = {rep.k}"]
    if rep.classification is not None:
        lines.append(f"family: {rep.classification.family}")
    else:
        lines.append("family: none (residue criteria not applicable)")
    lines.append(f"selmer psi: {rep.selmer_psi.describe()}")
    lines.append(f"selmer phi: {rep.selmer_phi.describe()}")
    lines.append(f"solvable classes psi: {rep.w_psi.describe()}")
    lines.append(f"solvable classes phi: {rep.w_phi.describe()}")
    lines.append(f"certified sha psi: {rep.sha_psi_cert.describe()}")
    lines.append(f"certified sha phi: {rep.sha_phi_cert.describe()}")
    lines.append(f"rank bounds: {rep.rank_lower} <= rank <= {rep.rank_upper}")
    if rep.sha2_dim is not None:
        lines.append(f"sha[2] dimension: {rep.sha2_dim}")
    if rep.noncongruent:
        verdict = "yes"
    elif rep.rank_lower > 0:
        verdict = "no (positive rank witnessed)"
    else:
        verdict = "undecided"
    lines.append(f"noncongruent: {verdict}")
    npts = sum(len(w) for w in rep.witnesses.values())
    lines.append(f"witness points found: {npts} (search height {rep.height})")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_classify(args):
    rep = descend(args.k, height=args.height)
    return 0, rep.to_json(), _render_classify(rep)


def _cmd_selmer(args):
    psi = selmer_group(args.k, "psi")
    phi = selmer_group(args.k, "phi")
    value = {"k": args.k, "selmer_psi": list(psi), "selmer_phi": list(phi)}
    text = (
        f"k = {args.k}\n"
        f"selmer psi: {psi.describe()} (dimension {psi.dim})\n"
        f"selmer phi: {phi.describe()} (dimension {phi.dim})"
    )
    return 0, value, text


def _signs(profile) -> str:
    return " ".join("+" if s == 1 else "-" for s in profile)


def _cmd_profile(args):
    pr = residue_profile(args.p, args.l)
    return 0, {"p": args.p, "l": args.l, "profile": list(pr)}, _signs(pr)


def _fmt_gens(gens) -> str:
    return "<" + ", ".join(gens) + ">" if gens else "1"


def _cmd_grid(args):
    entries, lines = [], []
    all_ok = True
    for i, row in enumerate(REFERENCE_GRID, start=1):
        entry = {"row": i, **row._asdict()}
        tail = ""
        if args.verify:
            ok = all(c.passed for c in check_grid_row(i, row))
            entry["verified"] = ok
            all_ok = all_ok and ok
            tail = "  ok" if ok else "  MISMATCH"
        entries.append(entry)
        lines.append(
            f"{i:2d}  {_signs(row.profile)}  sha_psi={_fmt_gens(row.sha_psi)}"
            f"  sha_phi={_fmt_gens(row.sha_phi)}  rank<={row.rank_bound}"
            f"  W={_fmt_gens(row.w_phi)}  example={row.example}{tail}"
        )
    return 0 if all_ok else 1, entries, "\n".join(lines)


def _cmd_survey(args):
    spec = FamilySpec(
        bound=args.bound,
        residues=args.residues,
        two_p=args.two_p,
        legendre=args.legendre,
    )
    rows, summary = run_survey(spec, height=args.height)
    text = render_ndjson(rows, summary)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        return 0, None, f"{summary.total} rows -> {args.out}"
    return 0, None, text.removesuffix("\n")  # main adds it back


def _cmd_verify(args):
    report = verify_reference()
    value = {"passed": report.passed, "checks": [c._asdict() for c in report.checks]}
    return 0 if report.passed else 1, value, report.render()


def _at_least(low: int):
    """argparse type: an integer >= low."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    convert.__name__ = "integer"  # argparse names it in "invalid integer value"
    return convert


def _residues(text: str) -> tuple[int, int]:
    """argparse type: 'r1,r2' -> (r1, r2)."""
    parts = text.split(",")
    if len(parts) != 2 or not all(x.strip().isdigit() for x in parts):
        raise argparse.ArgumentTypeError("expects two integers like 1,1")
    return int(parts[0]), int(parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cndescent",
        description="2-isogeny descent on the curves y^2 = x(x^2 - k^2): "
        "Selmer groups, certified Tate-Shafarevich classes, rank bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, fn, summary in (
        ("classify", _cmd_classify, "full descent report for one k"),
        ("selmer", _cmd_selmer, "Selmer groups of both isogeny directions"),
        ("profile", _cmd_profile, "five residue symbols of an admissible pair"),
        ("grid", _cmd_grid, "print the 32-row reference grid"),
        ("survey", _cmd_survey, "classify a whole family, NDJSON output"),
        ("verify", _cmd_verify, "recompute all reference tables"),
    ):
        cmd[name] = sub.add_parser(name, help=summary)
        cmd[name].set_defaults(fn=fn)
        cmd[name].add_argument("--json", action="store_true")

    p = cmd["classify"]
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--height", type=_at_least(0), default=1000,
                   help="point search bound (default 1000)")

    cmd["selmer"].add_argument("--k", type=_at_least(1), required=True)

    p = cmd["profile"]
    p.add_argument("--p", type=_at_least(3), required=True)
    p.add_argument("--l", type=_at_least(3), required=True)

    cmd["grid"].add_argument("--verify", action="store_true",
                             help="recompute each row and flag mismatches")

    p = cmd["survey"]
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--residues", type=_residues, help="p and l mod 8, e.g. 1,1")
    group.add_argument("--two-p", action="store_true", dest="two_p")
    p.add_argument("--legendre", type=int, choices=(1, -1), default=None,
                   help="restrict to (p/l) = +1 or -1")
    p.add_argument("--bound", type=_at_least(3), default=10**4,
                   help="upper bound on the primes (default 10000)")
    p.add_argument("--height", type=_at_least(0), default=0,
                   help="optional point search height per k (default off)")
    p.add_argument("--out", help="write NDJSON here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, value, text = args.fn(args)
    except DescentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(value) if args.json and value is not None else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
