"""Print the outcome of every norm-bracket op, bit for bit, with its Newton steps.

Two trees give the same norm brackets when the outputs match:

    PYTHONPATH=src python scripts/norm_fingerprints.py --seeds 1-10,201,1639 > new.txt
    PYTHONPATH=/other/tree/src python scripts/norm_fingerprints.py --seeds 1-10,201,1639 > old.txt
    diff old.txt new.txt

The ops are those of the norm-bracket workload: perfbench/workloads.py is
loaded by path and only read.  The package is whichever `aglerlab` the
interpreter imports, so the same script runs against any tree.  BLAS runs on
one thread, as in the benchmark, because the last bits of a solve depend on
the thread count.  Each line holds the seed, the op index, c_lo and c_hi as
`float.hex`, `resolved`, the number of evaluations, the workload gate's
verdict (`ok`, or `fail` when the bracket or one of its ends fails the gate)
and the Newton steps the op took.  The steps are counted by wrapping
`realize._newton_step` in this process, so a diff of two trees shows a change
of solver path next to the brackets it gives.  Then come the total of the
steps, `bounds UPPER LOWER` and the sha256 of the op lines.  UPPER and LOWER
count the bounds that the solver built over all ops, by wrapping
`realize._Workspace.upper` and `lower` the same way.  They sit outside the
sha256, so two trees that build their bounds differently but give the same
answers print the same op lines and hash.
"""
import argparse
import collections
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not importlib.util.find_spec("aglerlab"):
    sys.path.insert(0, str(ROOT / "src"))


def load_perfbench(stem: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  ROOT / "perfbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds and ranges, e.g. 1-10,201")
    seeds = parse_seeds(parser.parse_args().seeds)
    load_perfbench("env").pin_threads()  # before workloads.py imports numpy
    workload = load_perfbench("workloads").NormBracket()
    from aglerlab import realize
    counts = collections.Counter()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        setattr(owner, name, counted)

    count(realize, "_newton_step", "steps")
    count(realize._Workspace, "upper", "upper")
    count(realize._Workspace, "lower", "lower")
    digest, totals = hashlib.sha256(), collections.Counter()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            ops = workload.setup(seed, Path(workdir))
        for op in ops:
            counts.clear()
            res = workload.run(op)
            gate = "fail" if workload.check(op, res).error else "ok"
            line = (f"{seed} {op.index} {res.c_lo.hex()} {res.c_hi.hex()} {res.resolved} "
                    f"{res.evaluations} {gate} {counts['steps']}")
            totals.update(counts)
            digest.update(f"{line}\n".encode())
            print(line, flush=True)
    print(f"steps {totals['steps']}")
    print(f"bounds {totals['upper']} {totals['lower']}")
    print(f"sha256 {digest.hexdigest()}")

if __name__ == "__main__":
    main()
