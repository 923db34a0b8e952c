"""Compare the command-line behaviour of this checkout with another source tree.

Usage::

    python tools/cli_parity.py PARENT_SRC

``PARENT_SRC`` is the ``src`` directory of another checkout, typically the
parent commit.  Each call in ``CALLS`` runs twice, as ``python -m arcperp.cli``
under the interpreter running this script: once with ``PYTHONPATH`` set to
this checkout's ``src`` and once with ``PARENT_SRC``.  The two runs are
compared on stdout, stderr, exit code and the ``--out`` file, if one is
left.  One line is printed per call; the exit code is 1 if any call differs
and 0 otherwise.  Only the standard library is needed, so the script runs on
every supported Python, with or without pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "{out}"  # replaced by a file in a fresh temporary directory
UNWRITABLE = "{missing}"  # replaced by a path under a directory that does not exist

# Malformed ``pair`` operands: together they reach every parser error.
MALFORMED = [
    "x1_0 $", "   ", "-", "x1_0 x1_1", "x1_0*", "x1_0^", "1/x1_0", "1/0", "+-x1_0",
    "xi1_2", "x0_1", "x1_0 + z3", "x1",
]

PAIR_F = "x1_0 + 1/2*x1_1"
PAIR_P = "xi2*x1_0^2 + al1_1*x1_0^2 - 2/3*E1*y_1*x1_0*x1_1 + xi1^2*al2_1*E2*x1_1"
# 4,000 signed terms, some with coefficient 0, summing onto 1,000 monomials.
PAIR_LONG = "".join(f" {'+-'[k % 2]} {k % 7}/{k % 5 + 1}*x1_0*x1_{k % 1000}" for k in range(4000))

CALLS = [
    ["--version"],
    ["--help"],
    ["verify", "--help"],
    [],
    ["gens", "--n", "2", "--max-order", "3"],
    ["gens", "--json", "--n", "2", "--max-order", "3"],
    ["gens", "--n", "0", "--max-order", "1"],
    ["gens", "--n", "1", "--max-order", "-1"],
    ["gens", "--n", "1"],
    ["pair", "2*x1_0*x1_2 + x1_1^2", "x1_0*x1_2 - x1_1^2"],
    ["pair", PAIR_F, PAIR_P],
    ["pair", "--json", PAIR_F, PAIR_P],
    ["pair", "xi1*x1_0 - al1_2*x1_1", PAIR_P],
    *(["pair", text, "x1_0"] for text in MALFORMED),
    ["pair", "x1_0", "1/x1_0"],
    ["pair", "x1_0^5000", "x1_0^5000"],  # a coefficient of 16,326 digits
    ["pair", "x1_0", PAIR_LONG],
    ["pair", "x1_0", "1/2*x1_0 - 1/2*x1_0 + x1_0"],  # the first two terms cancel
    ["perp", "--n", "1", "--degree", "2", "--order", "2"],
    ["perp", "--json", "--n", "2", "--degree", "3", "--order", "3"],
    ["perp", "--json", "--n", "3", "--degree", "3", "--order", "3"],
    ["perp", "--n", "0", "--degree", "1", "--order", "1"],
    ["perp", "--json", "--n", "1", "--degree", "4", "--order", "4"],
    ["perp", "--json", "--n", "2", "--degree", "2", "--order", "5"],
    ["perp", "--json", "--n", "3", "--degree", "2", "--order", "4"],
    ["perp", "--json", "--n", "5", "--degree", "2", "--order", "2"],
    ["perp", "--json", "--n", "2", "--degree", "4", "--order", "4"],
    ["perp", "--json", "--n", "4", "--degree", "2", "--order", "3"],
    ["perp", "--json", "--n", "3", "--degree", "4", "--order", "4"],
    ["perp", "--json", "--n", "4", "--degree", "3", "--order", "4"],
    ["perp", "--json", "--n", "4", "--degree", "5", "--order", "5"],  # the largest admitted kernel
    ["perp", "--n", "1", "--degree", "1", "--order", "1500"],
    ["perp", "--n", "3", "--degree", "7", "--order", "7"],  # refused: too many monomials
    ["perp", "--n", "2", "--degree", "100000", "--order", "0"],  # refused: too many monomials
    ["perp", "--n", "1", "--degree", "1", "--order", "200000"],  # refused: too many variables
    ["minors", "--family", "T", "--n", "1", "--h", "3", "--json"],
    ["minors", "--family", "T", "--n", "2", "--h", "2"],
    ["minors", "--family", "T", "--n", "2", "--h", "3"],
    ["minors", "--family", "S1", "--n", "1", "--h", "3", "--json"],
    ["minors", "--family", "S", "--n", "2", "--h", "1", "--json"],
    ["minors", "--family", "S1", "--n", "2", "--h", "2", "--json"],
    ["minors", "--family", "H", "--n", "2", "--h", "2", "--k", "1", "--json"],
    ["minors", "--family", "S", "--n", "2", "--h", "2", "--max-size", "1"],
    ["minors", "--family", "H", "--n", "1", "--h", "1"],
    ["minors", "--family", "H", "--n", "1", "--h", "1", "--k", "3000"],
    ["minors", "--json", "--family", "H", "--n", "2", "--h", "3", "--k", "2"],
    ["minors", "--family", "H", "--n", "2", "--h", "3", "--k", "0"],  # more rows than columns
    ["minors", "--family", "S1", "--n", "1", "--h", "0"],
    ["minors", "--family", "T", "--n", "1", "--h", "1", "--k", "1"],
    ["minors", "--family", "T", "--n", "1", "--h", "1", "--max-size", "-1"],
    ["minors", "--family", "T", "--n", "0", "--h", "1"],
    ["minors", "--family", "Q", "--n", "1", "--h", "1"],
    # Partial sizes of shift-structured and Hankel matrices: the listing walks
    # every row set where the span walks the top rows alone.
    ["minors", "--family", "T", "--n", "2", "--h", "3", "--max-size", "2", "--json"],
    ["minors", "--family", "S", "--n", "1", "--h", "3"],
    ["minors", "--family", "S1", "--n", "2", "--h", "1", "--max-size", "2"],
    ["minors", "--family", "H", "--n", "3", "--h", "2", "--k", "1", "--json"],
    ["minors", "--family", "T", "--n", "1", "--h", "100"],  # refused: too many minors
    ["dims-chain", "--n", "1", "--h", "100"],  # refused: too many minors
    ["verify", "--n", "1", "--h", "100"],  # refused: too many minors
    ["series", "--n", "1", "--h-max", "7"],
    ["series", "--json", "--n", "2", "--h-max", "3"],
    ["series", "--n", "2", "--h-max", "4", "--json"],
    ["series", "--n", "1", "--h-max", "17"],  # refused at h = 17: 262,144 minors of T(1, 17)
    ["series", "--n", "6", "--h-max", "5"],  # refused: 2,391,496 minors of a 6x36 matrix
    ["series", "--n", "1", "--h-max", "-1"],
    ["series", "--n", "0", "--h-max", "2"],
    *(
        ["verify", "--json", "--no-timings", "--n", n, "--h", h]
        for n, h in [
            ("1", "0"), ("1", "1"), ("1", "2"), ("1", "3"), ("2", "2"), ("2", "3"), ("3", "2"),
            ("3", "3"), ("4", "2"), ("1", "6"), ("2", "4"), ("4", "3"),
        ]
    ),
    ["verify", "--json", "--no-timings", "--deep", "--n", "1", "--h", "2"],
    ["verify", "--json", "--no-timings", "--deep", "--n", "2", "--h", "2"],
    ["verify", "--json", "--no-timings", "--deep", "--n", "2", "--h", "3"],
    ["verify", "--json", "--no-timings", "--deep", "--n", "3", "--h", "2"],
    ["verify", "--no-timings", "--seed", "7", "--n", "2", "--h", "2"],
    ["verify", "--json", "--no-timings", "--seed", "3", "--n", "3", "--h", "3"],
    ["verify", "--json", "--no-timings", "--deep", "--seed", "11", "--n", "1", "--h", "0"],
    ["verify", "--no-timings", "--n", "446", "--h", "0"],  # the largest generator listing admitted
    ["verify", "--n", "0", "--h", "1"],
    ["verify", "--n", "1", "--h", "-1"],
    ["verify", "--n", "9", "--h", "9"],  # refused before any work
    ["verify", "--deep", "--n", "4", "--h", "3"],  # refused: T(4, 6) has too many minors
    ["verify", "--n", "28", "--h", "2"],  # refused: too many degree-3 kernel monomials
    ["verify", "--n", "20", "--h", "2"],  # refused: too many degree-3 restriction monomials
    ["verify", "--n", "27", "--h", "2"],  # refused: too many degree-3 restriction monomials
    ["dims-chain", "--n", "2", "--h", "3"],
    ["dims-chain", "--json", "--n", "3", "--h", "3"],
    ["dims-chain", "--json", "--n", "3", "--h", "4"],
    ["dims-chain", "--json", "--n", "1", "--h", "5"],
    ["dims-chain", "--json", "--n", "4", "--h", "2"],
    ["dims-chain", "--n", "1", "--h", "0"],
    ["dims-chain", "--n", "2", "--h", "5"],
    ["dims-chain", "--json", "--n", "5", "--h", "1"],
    ["dims-chain", "--n", "1", "--h", "-1"],
    ["dims-chain", "--n", "4", "--h", "5"],  # T admitted, S1's maximal minors refused
    ["dims-chain", "--json", "--n", "3", "--h", "5"],
    ["series", "--n", "1", "--h-max", "3", "--out", OUT],
    ["gens", "--n", "2", "--max-order", "2", "--out", OUT],
    ["pair", "--json", PAIR_F, PAIR_P, "--out", OUT],
    ["perp", "--n", "2", "--degree", "2", "--order", "2", "--out", OUT],
    ["minors", "--family", "T", "--n", "1", "--h", "2", "--json", "--out", OUT],
    ["verify", "--json", "--no-timings", "--n", "1", "--h", "2", "--out", OUT],
    ["dims-chain", "--json", "--n", "2", "--h", "2", "--out", OUT],
    ["pair", "x1_0 +", "x1_0", "--out", OUT],
    ["gens", "--n", "1", "--max-order", "1", "--out", UNWRITABLE],
    ["verify", "--no-timings", "--n", "1", "--h", "1", "--out", UNWRITABLE],
]


def run(src: Path, argv: list[str], tmp: Path) -> tuple:
    """Exit code, stdout, stderr and the ``--out`` file's text (or None)."""
    out = tmp / "out.txt"
    if out.exists():
        out.unlink()
    paths = {OUT: str(out), UNWRITABLE: str(tmp / "missing" / "out.txt")}
    argv = [paths.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "arcperp.cli", *argv],
        env=env, cwd=tmp, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr, out.read_text() if out.exists() else None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parents[1] / "src"
    parent = Path(argv[0]).resolve()
    if not (parent / "arcperp" / "cli.py").is_file():
        print(f"no arcperp package under {parent}", file=sys.stderr)
        return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for call in CALLS:
            mine, theirs = run(here, call, Path(tmp)), run(parent, call, Path(tmp))
            names = ("exit", "stdout", "stderr", "out")
            fields = [name for name, a, b in zip(names, mine, theirs) if a != b]
            differ += bool(fields)
            shown = [a if len(a) <= 80 else a[:77] + "..." for a in call]
            print(f"{'DIFF ' + ','.join(fields) if fields else 'same'}\texit {mine[0]}\t{shown}")
    print(f"{len(CALLS)} calls on Python {sys.version.split()[0]}, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
