"""Compare two corpus trees written by scripts/report_corpus.py, allowing
floats to differ and nothing else.

    python scripts/corpus_diff.py OLD NEW

Both trees must hold the same files.  summary.txt and every file that is not
JSON must be byte-identical; in each JSON file every key, string, integer,
boolean, null and list length must agree.  A number that is a float on
either side counts as a float, since reports print an integral float as an
integer.  Each such difference is printed
and makes the exit status 1.  Floats may differ: for each field, named by
its dict keys from the top of the document down (list indices dropped, so
a realize report's colligation A matrix is `colligation.A`), the script
prints how many of its floats differ and the largest difference, with the
file where it occurs.  Exit status 0 means the trees differ in floats alone.
"""
import json
import math
import sys
from pathlib import Path


def files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def float_gap(a: float, b: float) -> float:
    """|a - b|, 0 for two NaNs or two equal infinities."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def walk(a, b, field: str, where: str, floats: dict, faults: list) -> None:
    """Compare two parsed JSON values; float gaps go to floats[field], every
    other difference to faults."""
    if isinstance(a, float) or isinstance(b, float):
        # the report format prints an integral float as an integer, 1.0 as 1
        if not {type(a), type(b)} <= {int, float}:
            faults.append(f"{where}: {a!r:.60} against {b!r:.60}")
            return
        gap = float_gap(float(a), float(b))
        count, total, worst, at = floats.get(field, (0, 0, 0.0, ""))
        if gap > 0:
            count += 1
            if gap > worst:
                worst, at = gap, where
        floats[field] = (count, total + 1, worst, at)
    elif type(a) is not type(b):
        faults.append(f"{where}: {type(a).__name__} {a!r:.60} against {type(b).__name__} "
                      f"{b!r:.60}")
    elif isinstance(a, dict):
        if list(a) != list(b):
            faults.append(f"{where}: keys {list(a)} against {list(b)}")
            return
        for key in a:
            walk(a[key], b[key], f"{field}.{key}" if field else key, f"{where}.{key}",
                 floats, faults)
    elif isinstance(a, list):
        if len(a) != len(b):
            faults.append(f"{where}: length {len(a)} against {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, field, f"{where}[{i}]", floats, faults)
    elif a != b:
        faults.append(f"{where}: {a!r:.60} against {b!r:.60}")


def compare(old: Path, new: Path) -> tuple[dict, list]:
    floats: dict[str, tuple[int, int, float, str]] = {}
    faults: list[str] = []
    names_old, names_new = files(old), files(new)
    for name in sorted(names_old ^ names_new):
        faults.append(f"{name}: only in {old if name in names_old else new}")
    for name in sorted(names_old & names_new):
        raw_old, raw_new = (old / name).read_bytes(), (new / name).read_bytes()
        if raw_old == raw_new:
            continue
        if not name.endswith(".json"):
            faults.append(f"{name}: bytes differ")
            continue
        try:
            doc_old, doc_new = json.loads(raw_old), json.loads(raw_new)
        except ValueError:
            faults.append(f"{name}: bytes differ and one side is not JSON")
            continue
        before = len(faults), sum(v[0] for v in floats.values())
        walk(doc_old, doc_new, "", f"{name}:$", floats, faults)
        if (len(faults), sum(v[0] for v in floats.values())) == before:
            faults.append(f"{name}: bytes differ, values agree")
    return floats, faults


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    floats, faults = compare(old, new)
    for fault in faults:
        print(f"DIFFERS {fault}")
    changed = {f: v for f, v in floats.items() if v[0]}
    print(f"{len(faults)} differences other than floats; floats differ in "
          f"{len(changed)} of the {len(floats)} fields of the JSON files that differ")
    for field, (count, total, worst, at) in sorted(changed.items()):
        print(f"  {field}: {count} of {total} floats differ, largest {worst:.3e} at {at}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
