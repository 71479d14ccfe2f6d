"""Differential digest: one sha256 over the results on 600 seeded weight families.

Run from the repository root as

    PYTHONPATH=src python tests/differential.py

It prints one line, the digest, the number of bytes hashed and the number of
families.  A change that must not alter any result prints the same line
before and after.  Each family from `_support.random_family` contributes
the reprs of: the family and its JSON round trip, `property_report` and its
JSON form, `classify`, tail infima, searches, selections,
`dyadic_jump_tail`, `at` and `scaled_at`, `ditkin_approximation` on the
dyadic staircase, relative-unit witnesses, a random exact element's JSON
round trip, norm and residual diagnostics, and the interval tier on the same
values: a `RuleBased` copy of that element, certified by its exact tail sums,
with its norm at two horizons, two residuals and `ditkin_approximation`.
A raised exception is hashed as its class name and message, so error paths
are compared too.  The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import islice

from _support import random_exact_element, random_family, random_positive_fraction

import ditkin as dk
from ditkin.weights import dyadic_jump_tail

FAMILIES = 600
KINDS = ("any", "bounded", "divergent", "liminf_finite")


def _outcome(thunk) -> str:
    try:
        return repr(thunk())
    except Exception as exc:  # the differential compares failures as well as results
        return f"{type(exc).__name__}: {exc}"


def family_records(seed: int):
    """The result reprs of one seeded family, in a fixed order."""
    rng = random.Random(seed)
    w = random_family(rng, KINDS[seed % len(KINDS)], depth=rng.randint(1, 3))
    obj = w.to_obj()
    yield repr(w)
    yield json.dumps(obj, sort_keys=True)
    yield _outcome(lambda: dk.weight_family_from_obj(json.loads(json.dumps(obj))) == w)
    yield _outcome(lambda: dk.property_report(w))
    yield _outcome(lambda: json.dumps(dk.property_report(w).to_obj()))
    yield _outcome(w.classify)
    for n in (1, 2, 3, rng.randint(1, 50), rng.randint(1, 10**6)):
        yield _outcome(lambda: w.tail_infimum(n))
    for _ in range(9):
        t, lo = random_positive_fraction(rng, 40, 8), rng.randint(1, 60)
        yield _outcome(lambda: w.first_above(t, lo))
        yield _outcome(lambda: w.first_at_most(t, lo))
        yield _outcome(lambda: w.first_attaining(t, lo))
    for slack in (None, Fraction(0), random_positive_fraction(rng), Fraction(-1)):
        yield _outcome(lambda: dk.select_ai_subsequence(w, rng.randint(1, 12), slack))
    yield _outcome(lambda: list(islice(w.selected_indices(rng.randint(1, 30)), 10)))
    for start in (1, 2, rng.randint(1, 100), rng.randint(1, 10**5)):
        yield _outcome(lambda: dyadic_jump_tail(w, start))
    yield _outcome(lambda: [w.at(n) for n in range(1, 41)])
    yield _outcome(lambda: w.scaled_at([*range(1, 41), rng.randint(41, 10**6)]))
    yield _outcome(lambda: dk.ditkin_approximation(dk.DyadicDecay(), w, Fraction(1, rng.randint(1, 100))))
    excluded = dk.ClosedSet(rng.sample(range(1, 30), rng.randint(0, 3)))
    for point in (dk.INFINITY, rng.randint(1, 30), rng.randint(31, 10**4)):
        yield _outcome(lambda: dk.relative_unit_witness(w, point, excluded))
    f = random_exact_element(rng, max_len=20, tail=Fraction(0) if rng.random() < 0.8 else None)
    yield _outcome(lambda: dk.element_from_obj(json.loads(json.dumps(dk.element_to_obj(f)))) == f)
    yield _outcome(lambda: f.norm(w))
    yield _outcome(lambda: dk.residual_diagnostics(f, w, sorted(rng.sample(range(1, 40), 4))))
    g = dk.RuleBased(f.at, f.limit, lambda s, u: f.tail_variation(u, s, s, 0).value)
    for horizon in (rng.randint(0, 16), rng.randint(17, 80)):
        yield _outcome(lambda: g.norm(w, horizon))
    for k in (rng.randint(1, 10), rng.randint(11, 40)):
        yield _outcome(lambda: dk.residual_norm(g, w, k, rng.randint(0, 40)))
    yield _outcome(lambda: dk.ditkin_approximation(g, w, Fraction(1, rng.randint(1, 100)), horizon=32))


def digest() -> tuple[str, int]:
    h, size = hashlib.sha256(), 0
    for seed in range(FAMILIES):
        for record in family_records(seed):
            data = record.encode() + b"\n"
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


if __name__ == "__main__":
    value, size = digest()
    print(f"{value} {size} bytes {FAMILIES} families")
