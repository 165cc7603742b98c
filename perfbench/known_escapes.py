"""Inputs that escape ``mpmech.cli.main`` as exceptions instead of an exit code.

    python3 perfbench/known_escapes.py

The exit contract is 0 ok, 1 validation or run failure, 2 malformed input,
with no traceback.  Each input below breaks it; the timed workloads leave
them out, because a benchmark run must consist of ops that succeed.  Prints
one line per input and one JSON summary, and exits with 1 while any input
still escapes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import OUT, call, import_cli


def cases(workdir: str) -> list[tuple[str, list[str], int]]:
    ragged = os.path.join(workdir, "ragged.json")
    with open(ragged, "w", encoding="utf-8") as fh:
        json.dump({"g": {"dim": 3, "C": [[[0.0, 1.0], [0.0]], [[0.0]], [[0.0]]]},
                   "h": {"dim": 3, "C": [[[0.0] * 3] * 3] * 3},
                   "rho": [[[0.0] * 3] * 3] * 3, "sigma": [[[0.0] * 3] * 3] * 3}, fh)
    out = os.path.join(workdir, "traj")
    return [
        ("ragged tensor document", ["check", ragged], 2),
        ("--t-end nan", ["simulate", "--pair", "sl2c_derived", "--hamiltonian",
                         "quadratic_identity", "--initial=1,0,0,0,1,0", "--dt", "0.01",
                         "--t-end", "nan", "--out", out], 2),
        ("ep mode with rigid_body_123", ["simulate", "--mode", "ep", "--pair", "sl2c_derived",
                                         "--hamiltonian", "rigid_body_123",
                                         "--initial=1,0,0,0,1,0", "--dt", "0.01",
                                         "--t-end", "1", "--out", out], 2),
    ]


def main() -> int:
    cli = import_cli()
    os.makedirs(OUT, exist_ok=True)
    escaped = []
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as workdir:
        for label, argv, expect in cases(workdir):
            rc, _, err, _ = call(cli.main, argv)
            verdict = f"escaped ({err.strip().splitlines()[-1]})" if rc is None else f"exit {rc}"
            print(f"{label}: {verdict}; contract expects exit {expect}")
            if rc is None:
                escaped.append(label)
    print(json.dumps({"escaped": escaped}))
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
