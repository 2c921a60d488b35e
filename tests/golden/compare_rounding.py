"""Check a planned rounding change of the golden CLI outputs.

    python tests/golden/compare_rounding.py OLD_REV

Run from the root of the repository.  Every file of tests/golden/expected
and tests/golden/cases.json is compared with its version at the git
revision OLD_REV:

- the search outputs named in ROUNDING_CASES may differ in rounding only:
  the same keys, the same hits in the same order with the same family and
  parameters, the same blade set in c and d, every coefficient within
  COEFF_BOUND of the old one, and a B_check_residual of at most
  RESIDUAL_BOUND;
- every other file must be byte-identical, and no file may appear or go.

Prints the largest coefficient move and residual per case; exits 1 on any
other difference.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from cwclifford.textio import multivector_from_text  # noqa: E402

GOLDEN = "tests/golden"
ROUNDING_CASES = ("search_rot4_clusters_2_2", "search_rot8_clusters_4_4")
COEFF_BOUND = 2.0 ** -51          # two units in the last place at 1 to 2
RESIDUAL_BOUND = 8e-15


def _old(rev, path):
    return subprocess.run(["git", "show", f"{rev}:{path}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout


def _old_names(rev):
    out = subprocess.run(["git", "ls-tree", "--name-only", rev,
                          f"{GOLDEN}/expected/"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return {Path(p).stem for p in out.split()}


def compare_search(old_text, new_text):
    """Problems of a rounding-only change; the largest moves it found."""
    old, new = json.loads(old_text), json.loads(new_text)
    problems = []
    if {k: v for k, v in old.items() if k != "results"} != \
            {k: v for k, v in new.items() if k != "results"}:
        problems.append("the keys or values outside results differ")
    if len(old["results"]) != len(new["results"]):
        return problems + ["the number of hits differs"], 0.0, 0.0
    move = residual = 0.0
    for i, (a, b) in enumerate(zip(old["results"], new["results"])):
        if set(a) != set(b):
            problems.append(f"hit {i}: keys {sorted(a)} -> {sorted(b)}")
            continue
        for key in set(a) - {"c", "d", "B_check_residual"}:
            if a[key] != b[key]:
                problems.append(f"hit {i}: {key} {a[key]!r} -> {b[key]!r}")
        for key in ("c", "d"):
            x = multivector_from_text(a[key], old["dim"])
            y = multivector_from_text(b[key], new["dim"])
            if {m for m, _ in x.terms()} != {m for m, _ in y.terms()}:
                problems.append(f"hit {i}: the blades of {key} differ")
                continue
            move = max(move, max((abs(z - y.coefficient(m))
                                  for m, z in x.terms()), default=0.0))
        residual = max(residual, b["B_check_residual"])
    if move > COEFF_BOUND:
        problems.append(f"a coefficient moved by {move:.3e} > {COEFF_BOUND:.3e}")
    if residual > RESIDUAL_BOUND:
        problems.append(f"B_check_residual {residual:.3e} > {RESIDUAL_BOUND:g}")
    return problems, move, residual


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    problems = []
    path = f"{GOLDEN}/cases.json"
    if _old(rev, path) != (ROOT / path).read_text():
        problems.append("cases.json differs")
    names = {p.stem for p in (ROOT / GOLDEN / "expected").glob("*.out")}
    if names != _old_names(rev):
        problems.append(f"expected files differ: {sorted(names ^ _old_names(rev))}")
    for name in sorted(names & _old_names(rev)):
        path = f"{GOLDEN}/expected/{name}.out"
        old, new = _old(rev, path), (ROOT / path).read_text()
        if name in ROUNDING_CASES:
            found, move, residual = compare_search(old, new)
            problems += [f"{name}: {p}" for p in found]
            print(f"{name}: largest coefficient move {move:.3e}, "
                  f"largest B_check_residual {residual:.3e}")
        elif old != new:
            problems.append(f"{name}: not byte-identical")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"{len(names)} cases, {len(ROUNDING_CASES)} with rounding only: "
          f"{'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
