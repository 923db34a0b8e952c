"""Command-line front end.

Subcommands: gens, pair, perp, minors, series, verify, dims-chain.
Global flags: --json (machine-readable output), --out PATH (write the output
to a file).  ``verify`` alone takes --seed N (randomized property sampling).
The exit code is 0 iff all requested checks pass; invalid input exits with
code 2, an oversized request too (``gens`` past ``arcgen.PRODUCT_LIMIT``
products, for one).

Each ``_cmd_*`` returns ``(payload, lines, passed)``: the JSON-ready result,
its text lines and the verdict.  ``main`` alone renders it (``--json`` or
text), writes it (stdout or ``--out``) and returns the exit code; a reader
that closed stdout gets no traceback, and the run exits 1.  ``run`` is the
process entry of ``arcperp`` and ``python -m arcperp.cli``: once the output is
flushed, it ends the process with no interpreter teardown.

Each command imports what it calls when it runs, so a run loads only the
modules of its own command: ``series`` and ``dims-chain`` never load the
kernel side (``perp``), the pairing, the arc generators or the verification
driver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcperp",
        description="Exact inverse systems of arc ideals of double points.",
    )
    parser.add_argument("--version", action="version", version=f"arcperp {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--out", metavar="PATH", help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", parents=[common], help="list arc-ideal generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True, help="largest t-power")

    p = sub.add_parser("pair", parents=[common], help="apply the apolarity pairing")
    p.add_argument("f", help="operator polynomial")
    p.add_argument("P", help="target polynomial")

    p = sub.add_parser("perp", parents=[common], help="graded inverse-system basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("minors", parents=[common], help="minors and span dimensions")
    p.add_argument("--family", choices=["H", "T", "S", "S1"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, help="offset bound (H family only)")
    p.add_argument("--max-size", type=int, help="largest minor size to enumerate")

    p = sub.add_parser("series", parents=[common], help="truncated dimension series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h-max", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="run the cross-check battery")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--deep", action="store_true", help="widen the sweeps")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="seed for randomized property sampling")
    p.add_argument("--no-timings", action="store_true",
                   help="omit wall-clock timings for byte-identical reports")

    p = sub.add_parser("dims-chain", parents=[common],
                       help="triangular/scaled/augmented dimension agreement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)

    return parser


def _write(out: str, mode: str, text: str = "") -> None:
    try:
        with open(out, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an unwritable --out is invalid input, not a failed check
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if not out:
        print(text)
        return
    _write(out, "w", text + "\n")


def _cmd_gens(args) -> tuple:
    from .arcgen import arc_generators_up_to
    from .ring import format_polynomial

    gens = [format_polynomial(g) for g in arc_generators_up_to(args.n, args.max_order)]
    return gens, gens, True


def _cmd_pair(args) -> tuple:
    from .pairing import apply_pairing, check_pairing_size
    from .ring import format_polynomial, parse

    f, p = parse(args.f), parse(args.P)
    check_pairing_size(f, p)
    result = format_polynomial(apply_pairing(f, p))
    return result, [result], True


def _cmd_perp(args) -> tuple:
    from .perp import perp_graded_basis
    from .ring import format_polynomial

    span = perp_graded_basis(args.n, args.degree, args.order)
    basis = [format_polynomial(p) for p in span.basis_polynomials()]
    payload = {
        "n": args.n,
        "degree": args.degree,
        "order": args.order,
        "dimension": span.dimension,
        "basis": basis,
    }
    return payload, [f"dimension {span.dimension}", *basis], True


def _cmd_minors(args) -> tuple:
    from .hankel import build_matrix, check_minor_count, iter_minors, matrix_shape, minor_span
    from .ring import format_polynomial

    rows, cols = matrix_shape(args.family, args.n, args.h, args.k)
    max_size = min(rows, cols) if args.max_size is None else args.max_size
    if max_size < 0:
        raise ValueError("minors needs --max-size >= 0")
    sizes = range(min(max_size, rows, cols) + 1)  # no minor is larger
    check_minor_count(rows, cols, sizes, top=False)
    matrix = build_matrix(args.family, args.n, args.h, args.k)
    listing = [
        {
            "size": size,
            "rows": list(rows),
            "cols": list(cols),
            "value": format_polynomial(value),
        }
        for size, rows, cols, value in iter_minors(matrix, sizes)
    ]
    graded = minor_span(matrix, sizes)
    dims = {str(d): dim for d, dim in graded.graded_dimensions.items()}
    payload = {
        "family": args.family,
        "n": args.n,
        "h": args.h,
        "k": args.k,
        "minors": listing,
        "span_dimensions_by_degree": dims,
        "total_dimension": graded.total_dimension,
    }
    lines = [
        f"minor size={m['size']} rows={m['rows']} cols={m['cols']}: {m['value']}"
        for m in listing
    ]
    lines.append(f"span dimensions by degree: {dims}")
    lines.append(f"total dimension: {graded.total_dimension}")
    return payload, lines, True


def _cmd_series(args) -> tuple:
    from .hankel import check_span_count, dimension_series, truncated_perp_basis

    if args.h_max < 0:
        raise ValueError("the series needs h_max >= 0")
    for h in range(args.h_max + 1):
        check_span_count("T", args.n, h)
    truncated = (truncated_perp_basis(args.n, h) for h in range(args.h_max + 1))
    rows = dimension_series(args.n, truncated)
    lines = [
        f"h={r.h}: dimension={r.dimension} closed_form={r.closed_form} "
        f"{'match' if r.match else 'MISMATCH'}"
        for r in rows
    ]
    return [r._asdict() for r in rows], lines, all(r.match for r in rows)


def _cmd_verify(args) -> tuple:
    from .reports import run_verification

    report = run_verification(args.n, args.h, deep=args.deep, seed=args.seed)
    lines = [f"arcperp {report.version} verify n={args.n} h={args.h} deep={args.deep}"]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        extra = f" witness: {c.witness}" if c.witness else ""
        timing = "" if args.no_timings else f" ({c.elapsed_ms:.1f} ms)"
        lines.append(f"  [{status}] {c.name}{timing}{extra}")
    lines.append("all checks passed" if report.passed else "SOME CHECKS FAILED")
    return report.to_dict(not args.no_timings), lines, report.passed


def _cmd_dims_chain(args) -> tuple:
    from .hankel import check_span_count, dimension_chain, truncated_perp_basis

    # The chain's spans are counted in the order they are built: T(n, h), then
    # S(n, h), whose count is T's, then the maximal minors of S1(n, h).
    check_span_count("T", args.n, args.h)
    check_span_count("S1", args.n, args.h, sizes=[args.h + 1])
    chain = dimension_chain(args.n, args.h, truncated_perp_basis(args.n, args.h))
    line = (
        f"triangular={chain.triangular} scaled={chain.scaled} "
        f"scaled_augmented={chain.scaled_augmented} "
        f"equal={chain.equal} bijection={chain.bijection_lands_in_scaled}"
    )
    payload, passed = chain.to_dict(), chain.equal and chain.bijection_lands_in_scaled
    if not passed:
        line += f" witness: {chain.witness}"
        payload["witness"] = chain.witness
    return payload, [line], passed


_COMMANDS = {
    "gens": _cmd_gens,
    "pair": _cmd_pair,
    "perp": _cmd_perp,
    "minors": _cmd_minors,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "dims-chain": _cmd_dims_chain,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Every file it opens is
    closed before it returns, and an ``--out`` file that this run created is
    removed again if the command fails or is interrupted."""
    args = _build_parser().parse_args(argv)
    created = False
    try:
        if args.out:
            # Fail on an unwritable path before the work; append leaves a file as it is.
            existed = os.path.exists(args.out)
            _write(args.out, "a")
            created = not existed
        payload, lines, passed = _COMMANDS[args.command](args)
        _emit(json.dumps(payload, indent=2) if args.json else "\n".join(lines), args.out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at the null device, so that the
        # last flush has nowhere to fail, and exit as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BaseException as exc:
        if created:
            os.remove(args.out)  # leave no file from an unfinished run behind
        if not isinstance(exc, ValueError):  # PolynomialSyntaxError is a ValueError
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def run() -> None:
    """The process entry, which does not return: run ``main`` on ``sys.argv``,
    flush the standard streams and end the process with ``os._exit``.  arcperp
    registers no exit hook and closes its files itself, so the interpreter's
    teardown would only free memory.  An ``argparse`` exit and an uncaught
    exception leave through Python's normal exit, traceback included."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
