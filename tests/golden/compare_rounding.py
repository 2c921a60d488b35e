"""Check a planned change of the golden CLI outputs.

    python tests/golden/compare_rounding.py OLD_REV [--new-key KEY]...
                                            [--case-change NAME]...

Run from the root of the repository.  Every case of tests/golden/cases.json
is compared with its version at the git revision OLD_REV:

- a case keeps its argv and exit code, and no case appears or goes unless
  it is named by --case-change;
- each expected stdout is read as JSON and walked together with the old
  one: every old key is still there and the only keys added are those named
  by --new-key; strings, booleans and nulls (statuses, verdicts, families,
  tags, parameters) are equal; a multivector string (keys c and d) keeps its
  blade set; and every number, multivector coefficients included, moves by
  at most BOUND * max(1, |old|).

Prints the largest move per changed case; exits 1 on any other difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from cwclifford.textio import multivector_from_text  # noqa: E402

GOLDEN = "tests/golden"
BOUND = 1e-14
MULTIVECTOR_KEYS = ("c", "d")


def _old(rev, path):
    return subprocess.run(["git", "show", f"{rev}:{path}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout


def _move(old, new):
    """The move of a number relative to max(1, |old|)."""
    return abs(new - old) / max(1.0, abs(old))


def compare(old, new, new_keys, dim, where=""):
    """Problems of a change within the rules above; the largest move."""
    if isinstance(old, dict) and isinstance(new, dict):
        problems = [f"{where}: key {k!r} is gone" for k in old if k not in new]
        problems += [f"{where}: new key {k!r}" for k in new
                     if k not in old and k not in new_keys]
        move = 0.0
        for key in old.keys() & new.keys():
            found, m = _compare_value(key, old[key], new[key], new_keys, dim,
                                      f"{where}.{key}")
            problems += found
            move = max(move, m)
        return problems, move
    return _compare_value(None, old, new, new_keys, dim, where)


def _compare_value(key, old, new, new_keys, dim, where):
    if isinstance(old, dict) or isinstance(new, dict):
        if not (isinstance(old, dict) and isinstance(new, dict)):
            return [f"{where}: {old!r} -> {new!r}"], 0.0
        return compare(old, new, new_keys, dim, where)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{where}: length {len(old)} -> {len(new)}"], 0.0
        problems, move = [], 0.0
        for i, (a, b) in enumerate(zip(old, new)):
            found, m = _compare_value(key, a, b, new_keys, dim,
                                      f"{where}[{i}]")
            problems += found
            move = max(move, m)
        return problems, move
    if _is_number(old) and _is_number(new):
        move = _move(old, new)
        return ([f"{where}: {old!r} -> {new!r}"] if move > BOUND else []), move
    if key in MULTIVECTOR_KEYS and isinstance(old, str) \
            and isinstance(new, str) and old != new:
        x = multivector_from_text(old, dim)
        y = multivector_from_text(new, dim)
        if {m for m, _ in x.terms()} != {m for m, _ in y.terms()}:
            return [f"{where}: the blades differ"], 0.0
        move = max(_move(z, y.coefficient(m)) for m, z in x.terms())
        return ([f"{where}: a coefficient moved by {move:.3e}"]
                if move > BOUND else []), move
    if type(old) is not type(new) or old != new:
        return [f"{where}: {old!r} -> {new!r}"], 0.0
    return [], 0.0


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--new-key", action="append", default=[])
    parser.add_argument("--case-change", action="append", default=[])
    args = parser.parse_args(argv)
    path = f"{GOLDEN}/cases.json"
    old_cases = {c["name"]: c for c in json.loads(_old(args.rev, path))}
    new_cases = {c["name"]: c for c in json.loads((ROOT / path).read_text())}
    problems = []
    for name in sorted(old_cases.keys() ^ new_cases.keys()):
        what = "added" if name in new_cases else "removed"
        print(f"{name}: {what}")
        if name not in args.case_change:
            problems.append(f"{name}: {what}")
    on_disk = {p.stem for p in (ROOT / GOLDEN / "expected").glob("*.out")}
    if on_disk != new_cases.keys():
        problems.append("expected files and cases.json differ")
    changed = 0
    for name in sorted(old_cases.keys() & new_cases.keys()):
        if old_cases[name] != new_cases[name]:
            problems.append(f"{name}: argv or exit code differs")
        path = f"{GOLDEN}/expected/{name}.out"
        old, new = _old(args.rev, path), (ROOT / path).read_text()
        if old == new:
            continue
        changed += 1
        if not (old and new):
            problems.append(f"{name}: stdout appeared or went")
            continue
        old_doc, new_doc = json.loads(old), json.loads(new)
        found, move = compare(old_doc, new_doc, set(args.new_key),
                              old_doc.get("dim"), name)
        problems += found
        print(f"{name}: largest move {move:.3e}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"{len(new_cases)} cases, {changed} changed within "
          f"{BOUND:g}: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
