"""Lattice arithmetic on multi-indices and preorderings.

Multi-indices are plain tuples of non-negative ints, partially ordered
entrywise.  A preordering is a finite set of multi-indices of common
dimension that dominates every coordinate direction; it indexes which
hereditary defect products a kernel has to keep positive.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

MultiIndex = tuple[int, ...]


def weight(lam: MultiIndex) -> int:
    """Total degree |lam|."""
    return sum(lam)


def leq(a: MultiIndex, b: MultiIndex) -> bool:
    """Entrywise partial order a <= b."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def is_zero_one(lam: MultiIndex) -> bool:
    return all(v in (0, 1) for v in lam)


def unit(d: int, i: int) -> MultiIndex:
    """e_i (0-based i)."""
    return tuple(1 if j == i else 0 for j in range(d))


def predecessors(lam: MultiIndex) -> list[MultiIndex]:
    """All lam' <= lam in lexicographic order."""
    return sorted(itertools.product(*(range(v + 1) for v in lam)))


def _validate_elements(elements) -> tuple[int, frozenset[MultiIndex]]:
    elems = frozenset(tuple(int(v) for v in lam) for lam in elements)
    if not elems:
        raise ValueError("a preordering is nonempty")
    dims = {len(lam) for lam in elems}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions in preordering: {sorted(dims)}")
    d = dims.pop()
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if any(v < 0 for lam in elems for v in lam):
        raise ValueError("multi-index entries must be non-negative")
    for i in range(d):
        if not any(lam[i] >= 1 for lam in elems):
            raise ValueError(f"no element dominates coordinate {i}")
    return d, elems


@dataclass(frozen=True)
class Preordering:
    """Finite antitone-generating set of multi-indices in N^d."""

    elements: frozenset[MultiIndex]
    d: int = field(default=0)

    def __init__(self, elements):
        d, elems = _validate_elements(elements)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "d", d)

    def sorted(self) -> list[MultiIndex]:
        return sorted(self.elements)

    def __iter__(self):
        return iter(self.sorted())

    def __len__(self):
        return len(self.elements)

    def __contains__(self, lam):
        return tuple(lam) in self.elements


def classical(d: int) -> Preordering:
    """{e_1, ..., e_d}."""
    return Preordering([unit(d, i) for i in range(d)])


def standard_ample(d: int) -> Preordering:
    """{(1, ..., 1)}."""
    return Preordering([(1,) * d])


def standard_nearly_ample(d: int, drop1: int, drop2: int) -> Preordering:
    """Two maximal elements one step under (1,...,1) in coordinates drop1 != drop2."""
    if drop1 == drop2:
        raise ValueError("the two dropped coordinates must differ")
    top = [1] * d
    a = tuple(0 if j == drop1 else v for j, v in enumerate(top))
    b = tuple(0 if j == drop2 else v for j, v in enumerate(top))
    return Preordering([a, b])


def maximal_closure(p: Preordering) -> Preordering:
    """All lam <= some element of p, including the zero tuple."""
    out = set()
    for gen in p.elements:
        out.update(itertools.product(*(range(v + 1) for v in gen)))
    return Preordering(out)


def minimal_reduction(p: Preordering) -> Preordering:
    """The entrywise-maximal elements of p."""
    elems = list(p.elements)
    keep = [a for a in elems if not any(a != b and leq(a, b) for b in elems)]
    return Preordering(keep)


@dataclass(frozen=True)
class Classification:
    """What kind of preordering we are looking at.

    kind is one of 'ample', 'standard-ample', 'nearly-ample',
    'standard-nearly-ample', 'general'.  lambda_max is the largest element
    for ample preorderings; for nearly ample ones lambda_max is the common
    one-step-up tuple and (lambda1, lambda2) the two maximal elements.
    """

    kind: str
    lambda_max: MultiIndex | None = None
    lambda1: MultiIndex | None = None
    lambda2: MultiIndex | None = None

    @property
    def is_ample(self) -> bool:
        return self.kind in ("ample", "standard-ample")


def classify(p: Preordering) -> Classification:
    maxima = minimal_reduction(p).sorted()
    ones = (1,) * p.d
    if len(maxima) == 1:
        lam_m = maxima[0]
        kind = "standard-ample" if lam_m == ones else "ample"
        return Classification(kind, lambda_max=lam_m)
    if len(maxima) == 2:
        l1, l2 = maxima
        join = tuple(max(a, b) for a, b in zip(l1, l2))
        d1 = tuple(a - b for a, b in zip(join, l1))
        d2 = tuple(a - b for a, b in zip(join, l2))
        if weight(d1) == 1 and weight(d2) == 1 and d1 != d2:
            kind = "standard-nearly-ample" if join == ones else "nearly-ample"
            return Classification(kind, lambda_max=join, lambda1=l1, lambda2=l2)
    return Classification("general")


def parity_split(lam: MultiIndex) -> tuple[list[MultiIndex], list[MultiIndex]]:
    """Predecessors of lam with even / odd weight, each lexicographically sorted.

    Restricted to 0/1 tuples: the 2^{|lam|} predecessor count behind the
    even/odd row construction presumes distinct factor slots.
    """
    if not is_zero_one(lam):
        raise ValueError(f"parity_split needs 0/1 entries, got {lam}")
    if weight(lam) == 0:
        raise ValueError("parity_split rejects the zero tuple")
    preds = predecessors(lam)
    even = [q for q in preds if weight(q) % 2 == 0]
    odd = [q for q in preds if weight(q) % 2 == 1]
    return even, odd
