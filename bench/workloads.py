"""The four workloads: seeded inputs, one timed operation, and its checks.

Each workload has the same protocol.  `make(i)` builds operation i's inputs
from the seed alone (untimed).  `op(inp)` is the timed call into ditkin.
`observe(inp, out)` turns the results into plain JSON-like data (untimed),
`counts(out)` returns counts visible from outside the program, and
`check(inp, doc)` compares the data with the oracles in `oracle.py` and
returns a list of problems.  `ROUND` operations make one round; a run
always attempts whole rounds.

The package is passed in as `dk` and every call goes through a module
attribute, so the traced run can wrap it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from oracle import (
    Family,
    dyadic,
    dyadic_bracket,
    norm_scaled,
    residual_scaled,
    staircase_variation,
)

DENS = (1, 2, 3, 4, 6)
CLASSES = ("bounded", "mixed", "divergent")


class Input:
    """One operation's inputs; `label` names it in the trace."""

    known_fault = False

    def __init__(self, label: str, **fields):
        self.label = label
        self.__dict__.update(fields)


def _q(rng: random.Random, lo: int, hi: int) -> str:
    return str(Fraction(rng.randint(lo, hi), rng.choice(DENS)))


def _leaf(rng: random.Random, grows: bool) -> dict:
    if grows:
        return {"family": "linear", "offset": _q(rng, 0, 12), "slope": _q(rng, 1, 6)}
    if rng.random() < 0.5:
        return {"family": "constant", "value": _q(rng, 1, 24)}
    return {"family": "linear", "offset": _q(rng, 1, 24), "slope": "0"}


def _inter(parts: list) -> dict:
    return {"family": "interleave", "parts": parts}


def _pre(values: list, tail: dict) -> dict:
    return {"family": "prefix", "prefix": values, "tail": tail}


def _grows(rng: random.Random, cls: str) -> bool:
    return cls == "divergent" or (cls == "mixed" and rng.random() < 0.5)


def nested_family(rng, cls, tag, top=9, subs=(4, 5, 7, 11), prefix=40) -> dict:
    """A prefix over an interleave of `top` parts, nested three deep.

    Four parts are interleaves with the moduli `subs`; one part of the third
    of those is an interleave of two; one more part is a prefixed leaf.  With
    the defaults the lcm of the moduli is 13,860 and every leaf is reachable
    (9 is coprime to the rest).  `cls` picks the leaves: bounded, divergent,
    or mixed, which forces one bounded and one growing leaf, so the weights
    are unbounded with a finite liminf.  `tag` ends the outer prefix and
    makes the family distinct from every other one of the run.
    """
    parts = [_leaf(rng, _grows(rng, cls)) for _ in range(top)]
    slots = rng.sample(range(top), len(subs) + 3)
    for slot, m in zip(slots, subs):
        parts[slot] = _inter([_leaf(rng, _grows(rng, cls)) for _ in range(m)])
    third = parts[slots[2]]["parts"]
    third[rng.randrange(len(third))] = _inter(
        [_leaf(rng, _grows(rng, cls)), _leaf(rng, _grows(rng, cls))]
    )
    p, b, g = slots[len(subs):]
    parts[p] = _pre([_q(rng, 1, 24) for _ in range(10)], _leaf(rng, _grows(rng, cls)))
    if cls == "mixed":
        parts[b] = _leaf(rng, False)
        parts[g] = _leaf(rng, True)
    return _pre([_q(rng, 1, 24) for _ in range(prefix)] + [tag], _inter(parts))


def small_family(rng, cls, parts=4, prefix=5) -> dict:
    leaves = [_leaf(rng, _grows(rng, cls)) for _ in range(parts)]
    if cls == "mixed":
        leaves[0], leaves[-1] = _leaf(rng, False), _leaf(rng, True)
    return _pre([_q(rng, 1, 24) for _ in range(prefix)], _inter(leaves))


ELEMENT_SCALE = 840  # lcm(1..8), the denominators of generated element values


def _element(rng, n, tail="0") -> tuple[dict, list[int], int]:
    """An eventually constant element with n small-height prefix values.

    Returns the JSON object and its prefix and tail scaled by ELEMENT_SCALE.
    """
    num = [rng.randint(-9, 9) for _ in range(n)]
    den = [rng.randint(1, 8) for _ in range(n)]
    obj = {
        "kind": "eventually_constant",
        "prefix": [str(Fraction(a, b)) for a, b in zip(num, den)],
        "tail": tail,
    }
    pre = [a * (ELEMENT_SCALE // b) for a, b in zip(num, den)]
    return obj, pre, int(Fraction(tail) * ELEMENT_SCALE)


def _element_values(obj: dict) -> tuple[list[int], int, int]:
    """An eventually-constant JSON element as scaled ints (prefix, tail, scale)."""
    pairs = [_pq(x) for x in obj["prefix"]] + [_pq(obj["tail"])]
    D = math.lcm(*(d for _, d in pairs))
    ints = [n * (D // d) for n, d in pairs]
    return ints[:-1], ints[-1], D


def _pq(text) -> tuple[int, int]:
    """A "p/q" or integer string as (p, q), without Fraction's parser."""
    n, _, d = str(text).partition("/")
    return int(n), int(d or 1)


def _q_or_none(x):
    return None if x is None else Fraction(x)


class Problems(list):
    def expect(self, where: str, got, want) -> None:
        if got != want:
            self.append(f"{where}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# checks shared by the in-process workloads and the CLI outputs


def check_classification(p: Problems, where: str, c: dict, fam: Family) -> None:
    p.expect(where + ".bounded", c["bounded"], fam.bounded)
    p.expect(where + ".sup", _q_or_none(c["sup"]), fam.sup)
    p.expect(where + ".liminf_finite", c["liminf_finite"], fam.liminf is not None)
    p.expect(where + ".liminf", _q_or_none(c["liminf"]), fam.liminf)
    p.expect(where + ".nondecreasing", c["nondecreasing"], fam.nondecreasing)
    p.expect(where + ".diverges_to_infinity", c["diverges_to_infinity"], fam.liminf is None)


def check_selection(p: Problems, where: str, sel: dict, fam: Family, count: int) -> None:
    """A selection checked by definition against the brute-force weights."""
    idx = sel["indices"]
    p.expect(where + ".count", len(idx), count)
    if not idx or idx[0] < 1 or any(b <= a for a, b in zip(idx, idx[1:])):
        p.append(f"{where}.indices: not a strictly increasing list of naturals")
        return
    norms = [Fraction(x) for x in sel["norms"]]
    bad = next((n for n, v in zip(idx, norms) if v != 1 + fam.at(n)), None)
    p.expect(where + ".norms (first index with norm != 1 + alpha_n)", bad, None)
    if fam.liminf is None:
        p.expect(where + ".kind", sel["kind"], "running_min")
        lo = 1
        for n in idx:
            # each index is the earliest attainer of the tail infimum after the last
            _, j = fam.tail_inf(lo)
            if n != j:
                p.append(f"{where}: index {n} is not the earliest attainer {j} from {lo}")
                return
            lo = n + 1
    else:
        p.expect(where + ".kind", sel["kind"], "bounded_bai")
        p.expect(where + ".liminf", Fraction(sel["liminf"]), fam.liminf)
        slack = Fraction(sel["slack"])
        if slack < 0:
            p.append(f"{where}.slack: negative")
        over = next((n for n in idx if fam.at(n) > fam.liminf + slack), None)
        p.expect(where + " (first weight above liminf + slack)", over, None)


def check_report(p: Problems, where: str, rep: dict, fam: Family, count: int = 8) -> None:
    check_classification(p, where + ".classification", rep["classification"], fam)
    for key in ("ditkin", "strongly_regular", "spectral_synthesis", "separable"):
        p.expect(f"{where}.{key}", rep[key], True)
    finite = fam.liminf is not None
    for key in ("strong_ditkin", "m_infinity_has_bai", "bru_bade"):
        p.expect(f"{where}.{key}", rep[key], finite)
    p.expect(where + ".bru_dales", rep["bru_dales"], fam.bounded)
    p.expect(
        where + ".dales_bound",
        _q_or_none(rep["dales_bound"]),
        2 * fam.sup + 1 if fam.bounded else None,
    )
    if finite:
        check_selection(p, where + ".bade_witness", rep["bade_witness"], fam, count)
    else:
        p.expect(where + ".bade_witness", rep["bade_witness"], None)
    rows = rep["unboundedness_witness"]
    if fam.bounded:
        p.expect(where + ".unboundedness_witness", rows, None)
        return
    p.expect(where + ".unboundedness_witness.count", len(rows), count)
    for i, (n, a) in enumerate(rows):
        # the first index whose weight exceeds 2^i, with that weight
        want = fam.first_above(Fraction(1 << i))
        if n != want or Fraction(a) != fam.at(want):
            p.append(f"{where}.unboundedness_witness[{i}]: {n}, {a} != {want}, {fam.at(want)}")
            return


def check_element_norm(p: Problems, where: str, el: dict, norm, fam: Family) -> None:
    pre, tail, D = _element_values(el)
    p.expect(where, Fraction(norm), Fraction(norm_scaled(pre, tail, fam), D * fam.D))


def check_witness_at_infinity(p: Problems, where: str, wit: dict, fam: Family, points) -> None:
    """The cheapest truncation indicator covering the excluded points."""
    p.expect(where + ".point", wit["point"], "inf")
    p.expect(where + ".excluded_set_max", wit["excluded_set_max"], max(points))
    el = wit["element"]
    pre, tail, D = _element_values(el)
    k = len(pre)
    if tail != 0 or not pre or any(v != D for v in pre):
        p.append(f"{where}.element: not an indicator of an initial segment")
        return
    _, j = fam.tail_inf(max(points))
    p.expect(where + ".k (earliest tail-infimum attainer past the set)", k, j)
    check_element_norm(p, where + ".norm", el, wit["norm"], fam)


def check_witness_at_point(p: Problems, where: str, wit: dict, fam: Family, x, points) -> None:
    """An element vanishing at x and equal to 1 on the excluded points."""
    p.expect(where + ".point", wit["point"], x)
    el = wit["element"]
    pre, tail, D = _element_values(el)

    def f(n):
        return Fraction(pre[n - 1] if n <= len(pre) else tail, D)

    p.expect(where + ".element at the point", f(x), 0)
    p.expect(where + ".element on the excluded set", {f(n) for n in points}, {1})
    check_element_norm(p, where + ".norm", el, wit["norm"], fam)


def _norm_value(obj: dict) -> Fraction:
    return Fraction(obj["exact"])


# ---------------------------------------------------------------------------


class Grammar:
    """Build-heavy: three fresh nested families per operation, flattened from scratch."""

    ROUND = 1

    def __init__(self, dk, seed: int, workdir: str):
        self.dk, self.seed = dk, seed

    def _inputs(self, rng, i, **shape) -> Input:
        fams = []
        for j, cls in enumerate(CLASSES):
            obj = nested_family(rng, cls, str(Fraction(3 * i + j + 1, 7)), **shape)
            fam = Family(obj)
            span = fam.start + fam.period
            fams.append((json.dumps(obj), fam, rng.randint(1, span), sorted(rng.sample(range(1, span), 3))))
        return Input("grammar.op", fams=fams)

    def make(self, i: int) -> Input:
        return self._inputs(random.Random(f"{self.seed}/grammar/{i}"), i)

    def warm_up(self) -> None:
        rng = random.Random(f"{self.seed}/grammar/warm-up")
        inp = self._inputs(rng, 10**6, top=7, subs=(2, 3, 4, 5))
        problems = self.check(inp, self.observe(inp, self.op(inp)))
        if problems:
            raise RuntimeError(f"warm-up failed: {problems[0]}")

    def op(self, inp: Input):
        dk, out = self.dk, []
        for text, _, n0, points in inp.fams:
            w = dk.weight_family_from_obj(json.loads(text))
            ef = dk.weights.eventual_form(w)
            c = w.classify()
            t = w.tail_infimum(n0)
            rep = dk.property_report(w)
            wit = dk.relative_unit_witness(w, dk.INFINITY, dk.ClosedSet(tuple(points)))
            out.append((ef, c, t, rep, wit))
        return out

    def counts(self, out) -> dict:
        return {"weights.arms": sum(len(ef.arms) for ef, *_ in out), "families": len(out)}

    def observe(self, inp: Input, out) -> list:
        return [
            {
                "eventual_form": ef,
                "classify": c.to_obj(),
                "tail_infimum": {"at_index": t.at_index, "value": str(t.value), "attained_at": t.attained_at},
                "report": rep.to_obj(),
                "witness": wit.to_obj(),
            }
            for ef, c, t, rep, wit in out
        ]

    def check(self, inp: Input, doc: list) -> list[str]:
        p = Problems()
        for (_, fam, n0, points), d, cls in zip(inp.fams, doc, CLASSES):
            where = f"grammar[{cls}]"
            ef = d["eventual_form"]
            S, L = fam.start, fam.period
            if ef.start > S:
                p.append(f"{where}.eventual_form.start {ef.start} > {S}")
            else:
                p.expect(where + ".eventual_form (first wrong index)", _form_mismatch(ef, fam), None)
            check_classification(p, where + ".classify", d["classify"], fam)
            t = d["tail_infimum"]
            p.expect(where + ".tail_infimum.at_index", t["at_index"], n0)
            p.expect(where + ".tail_infimum", (Fraction(t["value"]), t["attained_at"]), fam.tail_inf(n0))
            check_report(p, where + ".report", d["report"], fam)
            check_witness_at_infinity(p, where + ".witness", d["witness"], fam, points)
        return p


def _form_mismatch(ef, fam: Family) -> int | None:
    """First n in two periods past the brute-force start where the eventual
    form's arm disagrees with the brute-force weight, or None.

    Arms are shared tuples, so each is scaled to ints once; the cache holds
    the arm itself, so its id is not reused while the check runs.
    """
    scaled: dict[int, tuple] = {}
    v, D = fam.vals, fam.D
    for n in range(fam.start, fam.start + 2 * fam.period):
        arm = ef.arm(n)
        hit = scaled.get(id(arm))
        if hit is None:
            a, b = arm[0] * D, arm[1] * D
            if a.denominator != 1 or b.denominator != 1:
                return n
            hit = scaled[id(arm)] = (arm, a.numerator, b.numerator)
        if hit[1] + hit[2] * n != v[n - 1]:
            return n
    return None


class Exact:
    """Read-heavy: norms and residuals of a fresh long element on three flattened families."""

    ROUND = 1
    LENGTH = 2000
    SELECT = 200

    def __init__(self, dk, seed: int, workdir: str):
        self.dk, self.seed = dk, seed
        rng = random.Random(f"{seed}/exact/families")
        objs = [
            small_family(rng, "bounded", parts=3, prefix=6),
            small_family(rng, "mixed", parts=4, prefix=5),
            small_family(rng, "divergent", parts=3, prefix=5),
        ]
        self.fams = [Family(o) for o in objs]
        self.ws = [dk.weight_family_from_obj(o) for o in objs]
        for w in self.ws:
            w.classify()  # flattens and caches the eventual form

    def make(self, i: int, length: int | None = None) -> Input:
        rng = random.Random(f"{self.seed}/exact/{i}")
        n = length or self.LENGTH
        obj, pre, _ = _element(rng, n)
        ks = [max(1, n * (2 * t + 1) // 8 + rng.randint(-n // 40, n // 40)) for t in range(4)]
        dks = [rng.randint(1 << b, 2 << b) for b in (3, 7, 11)]
        return Input("exact.op", text=json.dumps(obj), pre=pre, ks=ks, dks=dks)

    def warm_up(self) -> None:
        inp = self.make(-1, length=200)
        problems = self.check(inp, self.observe(inp, self.op(inp)))
        if problems:
            raise RuntimeError(f"warm-up failed: {problems[0]}")

    def op(self, inp: Input):
        dk = self.dk
        f = dk.element_from_obj(json.loads(inp.text))
        per = []
        for w in self.ws:
            per.append(
                (
                    f.norm(w),
                    [dk.residual_norm(f, w, k) for k in inp.ks],
                    dk.residual_diagnostics(f, w, inp.ks),
                    dk.residual_oracle(f, w, inp.ks[0]),
                    dk.select_ai_subsequence(w, self.SELECT),
                )
            )
        h = f * f - f
        w0 = self.ws[0]
        hn = h.norm(w0)
        dy = dk.DyadicDecay()
        dn = dy.norm(w0)
        dr = [dk.residual_norm(dy, w0, k) for k in inp.dks]
        return per, h, hn, dn, dr

    def counts(self, out) -> dict:
        return {}

    def observe(self, inp: Input, out) -> dict:
        per, h, hn, dn, dr = out
        return {
            "families": [
                {
                    "norm": nr.to_obj(),
                    "residuals": [r.to_obj() for r in rn],
                    "diagnostics": [row.to_obj() for row in rd],
                    "oracle": ro.to_obj(),
                    "select": sel.to_obj(),
                }
                for nr, rn, rd, ro, sel in per
            ],
            "product": self.dk.element_to_obj(h),
            "product_norm": hn.to_obj(),
            "dyadic_norm": dn.to_obj(),
            "dyadic_residuals": [r.to_obj() for r in dr],
        }

    def check(self, inp: Input, doc: dict) -> list[str]:
        p = Problems()
        pre, D = inp.pre, ELEMENT_SCALE
        for fam, d, cls in zip(self.fams, doc["families"], CLASSES):
            where = f"exact[{cls}]"
            scale = D * fam.D
            p.expect(where + ".norm", _norm_value(d["norm"]), Fraction(norm_scaled(pre, 0, fam), scale))
            want = [Fraction(residual_scaled(pre, fam, k), scale) for k in inp.ks]
            p.expect(where + ".residual_norm", [_norm_value(r) for r in d["residuals"]], want)
            p.expect(where + ".residual_oracle vs residual_norm", _norm_value(d["oracle"]), _norm_value(d["residuals"][0]))
            p.expect(where + ".residual_oracle", _norm_value(d["oracle"]), want[0])
            for row, k, r in zip(d["diagnostics"], inp.ks, want):
                f_next = Fraction(pre[k] if k < len(pre) else 0, D)
                f_self = Fraction(pre[k - 1] if k <= len(pre) else 0, D)
                got = (row["n_k"], _norm_value(row["residual"]), Fraction(row["alpha_next"]), Fraction(row["alpha_self"]))
                p.expect(where + ".diagnostics", got, (k, r, fam.at(k) * abs(f_next), fam.at(k) * abs(f_self)))
            check_selection(p, where + ".select", d["select"], fam, self.SELECT)
        fam = self.fams[0]
        hpre, htail, hD = _element_values(doc["product"])
        hvals = hpre + [htail] * (len(pre) + 1 - len(hpre))
        want = [v * v - D * v for v in pre] + [0]
        # f*f - f pointwise, compared over a common scale D^2 * hD
        bad = next((n for n, (a, b) in enumerate(zip(hvals, want), 1) if a * D * D != b * hD), None)
        p.expect("exact.product (first wrong index)", bad, None)
        p.expect(
            "exact.product_norm",
            _norm_value(doc["product_norm"]),
            Fraction(norm_scaled(hpre, htail, fam), hD * fam.D),
        )
        lo, hi = dyadic_bracket(fam, 1)
        v = _norm_value(doc["dyadic_norm"])
        if not (Fraction(1, 2) + lo <= v <= Fraction(1, 2) + hi):
            p.append(f"exact.dyadic_norm {v} outside [{Fraction(1, 2) + lo}, {Fraction(1, 2) + hi}]")
        for k, r in zip(inp.dks, doc["dyadic_residuals"]):
            base = dyadic(k + 1) * (1 + fam.at(k))
            lo, hi = dyadic_bracket(fam, k + 1)
            v = _norm_value(r)
            if not (base + lo <= v <= base + hi):
                p.append(f"exact.dyadic_residual[{k}] {v} outside [{base + lo}, {base + hi}]")
        return p


class Counted:
    """value_at and tail bound callbacks of c * dyadic that count their calls."""

    def __init__(self, dk, c: Fraction):
        self.jump_tail = dk.algebra.dyadic_jump_tail
        self.c = c
        self.values = 0
        self.bounds = 0

    def value_at(self, n: int) -> Fraction:
        self.values += 1
        return self.c * Fraction(1, 1 << n.bit_length())

    def tail_bound(self, start: int, w) -> Fraction:
        self.bounds += 1
        return abs(self.c) * self.jump_tail(w, start)


class Interval:
    """Rule-based tier: horizon scans of c * dyadic on a bounded family."""

    ROUND = 1
    HORIZON = 1024
    # with c in [2, 5/2] and weights in [1, 3/2], k = 128 is always the first
    # power of two whose residual is at most TOL, so every operation tries
    # the same eight candidates
    TOL = Fraction(1, 24)

    def __init__(self, dk, seed: int, workdir: str):
        self.dk, self.seed = dk, seed

    def make(self, i: int) -> Input:
        rng = random.Random(f"{self.seed}/interval/{i}")

        def weight():
            return str(Fraction(rng.randint(8, 12), 8))

        obj = _pre([weight() for _ in range(8)], _inter([{"family": "constant", "value": weight()} for _ in range(5)]))
        return Input(
            "interval.op",
            text=json.dumps(obj),
            fam=Family(obj),
            c=Fraction(rng.randint(16, 20), 8),
            ks=[rng.randint(1, 64) for _ in range(3)],
        )

    def warm_up(self) -> None:
        inp = self.make(-1)
        problems = self.check(inp, self.observe(inp, self.op(inp)))
        if problems:
            raise RuntimeError(f"warm-up failed: {problems[0]}")

    def op(self, inp: Input):
        dk, H = self.dk, self.HORIZON
        w = dk.weight_family_from_obj(json.loads(inp.text))
        cb = Counted(dk, inp.c)
        f = dk.RuleBased(cb.value_at, 0, cb.tail_bound)
        nm = f.norm(w, horizon=H)
        rs = [dk.residual_norm(f, w, k, horizon=H) for k in inp.ks]
        k, res = dk.ditkin_approximation(f, w, self.TOL, horizon=H)
        return w, f, nm, rs, k, res, cb.values, cb.bounds

    def counts(self, out) -> dict:
        return {"algebra.value_at_calls": out[6], "algebra.tail_bound_calls": out[7]}

    def observe(self, inp: Input, out) -> dict:
        w, f, nm, rs, k, res, _, _ = out
        return {
            "norm": nm.to_obj(),
            "norm_2h": f.norm(w, horizon=2 * self.HORIZON).to_obj(),
            "residuals": [r.to_obj() for r in rs],
            "ditkin": {"k": k, "residual": res.to_obj()},
        }

    def _residual(self, fam: Family, c: Fraction, k: int) -> tuple[Fraction, Fraction, Fraction]:
        """The scanned part of ||f - e_k f|| up to the horizon, and a bracket of its value."""
        H, c = self.HORIZON, abs(c)
        third = fam.at(k) * c * dyadic(k + 1)
        scanned = c * dyadic(k + 1) + c * staircase_variation(fam, k + 1, k + H + 1) + third
        lo, hi = dyadic_bracket(fam, k + 1)
        return scanned, c * dyadic(k + 1) + c * lo + third, c * dyadic(k + 1) + c * hi + third

    def check(self, inp: Input, doc: dict) -> list[str]:
        p = Problems()
        fam, c, H = inp.fam, abs(inp.c), self.HORIZON
        nm = {key: Fraction(v) for key, v in doc["norm"].items()}
        p.expect("interval.norm.horizon", nm["horizon"], H)
        p.expect("interval.norm.lo (own partial sum)", nm["lo"], c / 2 + c * staircase_variation(fam, 1, H))
        lo, hi = dyadic_bracket(fam, 1)
        true_lo, true_hi = c / 2 + c * lo, c / 2 + c * hi
        # the true norm lies in [true_lo, true_hi], an interval of width < 2^-200
        if not (nm["lo"] <= true_lo and nm["hi"] >= true_lo):
            p.append(f"interval.norm [{nm['lo']}, {nm['hi']}] misses c*||dyadic|| in [{true_lo}, {true_hi}]")
        n2 = {key: Fraction(v) for key, v in doc["norm_2h"].items()}
        if not (nm["lo"] <= n2["lo"] <= n2["hi"] <= nm["hi"]):
            p.append(f"interval.norm at 2H [{n2['lo']}, {n2['hi']}] not inside [{nm['lo']}, {nm['hi']}]")
        for k, r in zip(inp.ks, doc["residuals"]):
            r = {key: Fraction(v) for key, v in r.items()}
            scanned, t_lo, _ = self._residual(fam, c, k)
            p.expect(f"interval.residual[{k}].lo (own partial sum)", r["lo"], scanned)
            if not (r["lo"] <= t_lo <= r["hi"]):
                p.append(f"interval.residual[{k}] [{r['lo']}, {r['hi']}] misses the bracket from {t_lo}")
        k = doc["ditkin"]["k"]
        r = {key: Fraction(v) for key, v in doc["ditkin"]["residual"].items()}
        if r["hi"] > self.TOL:
            p.append(f"interval.ditkin_approximation residual hi {r['hi']} > tol {self.TOL}")
        scanned, t_lo, _ = self._residual(fam, c, k)
        p.expect("interval.ditkin_approximation.lo (own partial sum)", r["lo"], scanned)
        if not r["lo"] <= t_lo <= r["hi"]:
            p.append(f"interval.ditkin_approximation [{r['lo']}, {r['hi']}] misses the bracket from {t_lo}")
        return p


# ---------------------------------------------------------------------------


DEEP = 3000
BIG = "1" + "0" * 5000  # 10^5000, far past the 4300-digit int-to-str limit


class Cli:
    """One `python -m ditkin.cli` subprocess per operation, in a fixed rotation."""

    KINDS = (
        "classify",
        "norm",
        "residuals",
        "select_ai",
        "witness",
        "repro_paper",
        "repro_paper_weights",
        "bad_count",
        "bad_deep",
        "bad_big",
    )
    ROUND = len(KINDS)
    SELECT = 16

    def __init__(self, dk, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        src = os.path.dirname(os.path.dirname(os.path.abspath(dk.__file__)))
        self.cwd = os.path.dirname(src)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.argv0 = [sys.executable, "-m", "ditkin.cli"]
        self.max_rss_kb = 0
        self.deep_fam = Family(_pre(["2"], {"family": "constant", "value": "1"}))

    def _doc(self, kind: str, obj) -> str:
        path = os.path.join(self.workdir, kind + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
        return path

    def make(self, i: int) -> Input:
        kind = self.KINDS[i % self.ROUND]
        rng = random.Random(f"{self.seed}/cli/{i}")
        cls = CLASSES[(i // self.ROUND) % 3]
        inp = Input("cli." + kind.removesuffix("_weights"), kind=kind)
        if kind in ("classify", "select_ai", "bad_count"):
            # a bounded family admits any selection, so select-ai gets the other two
            obj = small_family(rng, CLASSES[1 + i // self.ROUND % 2] if kind == "select_ai" else cls)
            inp.fam = Family(obj)
            count = self.SELECT if kind == "select_ai" else 0
            args = [kind.replace("bad_count", "select_ai").replace("_", "-"), self._doc(kind, obj)]
            inp.argv = args + (["--count", str(count)] if kind != "classify" else [])
        elif kind in ("norm", "residuals"):
            obj = small_family(rng, cls)
            el, pre, tail = _element(rng, 60, tail="0" if kind == "residuals" else _q(rng, -9, 9))
            doc = {"weights": obj, "element": el}
            if kind == "residuals":
                doc["indices"] = inp.indices = sorted(rng.sample(range(1, 70), 3))
            inp.fam, inp.pre, inp.tail = Family(obj), pre, tail
            inp.argv = [kind, self._doc(kind, doc)]
        elif kind == "witness":
            obj = small_family(rng, cls)
            inp.x = rng.randint(1, 40)
            inp.points = sorted(rng.sample([n for n in range(1, 41) if n != inp.x], 3))
            doc = {"weights": obj, "point": inp.x, "excluded": {"points": inp.points, "with_infinity": False}}
            inp.fam = Family(obj)
            inp.argv = ["witness", self._doc(kind, doc)]
        elif kind == "repro_paper":
            inp.fam = Family(_inter([{"family": "linear", "offset": "0", "slope": "1/2"}, {"family": "constant", "value": "1"}]))
            inp.argv = ["repro-paper", "--json"]
        elif kind == "repro_paper_weights":
            # odd over odd, never 1: no jump, self term or norm matches the paper
            num, den = rng.choice([(3, 1), (5, 3), (7, 5), (9, 7), (3, 5), (5, 7), (7, 9), (9, 5)])
            obj = {"family": "constant", "value": f"{num}/{den}"}
            inp.fam = Family(obj)
            inp.argv = ["repro-paper", "--json", "--weights", self._doc(kind, obj)]
        elif kind == "bad_deep":
            text = '{"family": "prefix", "prefix": ["2"], "tail": ' * DEEP
            text += '{"family": "constant", "value": "1"}' + "}" * DEEP
            inp.argv = ["classify", self._doc(kind, text)]
        else:
            inp.argv = ["classify", self._doc(kind, {"family": "constant", "value": "1e5000"})]
        inp.known_fault = kind.startswith("bad_")
        return inp

    def warm_up(self) -> None:
        inp = self.make(0)
        problems = self.check(inp, self.observe(inp, self.op(inp)))
        if problems:
            raise RuntimeError(f"warm-up failed: {problems[0]}")

    def op(self, inp: Input):
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(
                self.argv0 + inp.argv, stdout=subprocess.PIPE, stderr=err, cwd=self.cwd, env=self.env
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return proc.returncode, out, err.read(), usage.ru_maxrss

    def counts(self, out) -> dict:
        self.max_rss_kb = max(self.max_rss_kb, out[3])
        return {"cli.stdout_bytes": len(out[1])}

    def observe(self, inp: Input, out) -> dict:
        code, stdout, stderr, _ = out
        return {"code": code, "stdout": stdout.decode("utf-8", "replace"), "stderr": stderr.decode("utf-8", "replace")}

    def check(self, inp: Input, doc: dict) -> list[str]:
        p = Problems()
        kind, code = inp.kind, doc["code"]
        if "Traceback" in doc["stderr"]:
            p.append(f"cli {kind}: traceback on stderr, exit {code}: {doc['stderr'].strip().splitlines()[-1]}")
            return p
        if kind.startswith("bad_"):
            # the rule: 2 and a one-line message for bad input, or a correct result
            lines = doc["stderr"].strip().splitlines()
            if code == 2 and len(lines) == 1 and not doc["stdout"]:
                return p
            if code == 0 and kind == "bad_deep":
                check_report(p, "cli bad_deep", json.loads(doc["stdout"]), self.deep_fam)
                return p
            if code == 0 and kind == "bad_big":
                c = json.loads(doc["stdout"])["classification"]
                p.expect("cli bad_big.sup", c["sup"], BIG)
                p.expect("cli bad_big.liminf", c["liminf"], BIG)
                return p
            p.append(f"cli {kind}: exit {code} with {len(lines)} stderr lines")
            return p
        want = 1 if kind == "repro_paper_weights" else 0
        p.expect(f"cli {kind} exit code", code, want)
        if code != want:
            return p
        obj = json.loads(doc["stdout"])
        fam = inp.fam
        if kind == "classify":
            check_report(p, "cli classify", obj, fam)
        elif kind == "norm":
            p.expect("cli norm", _norm_value(obj), Fraction(norm_scaled(inp.pre, inp.tail, fam), ELEMENT_SCALE * fam.D))
        elif kind == "residuals":
            p.expect("cli residuals.n_k", [row["n_k"] for row in obj], inp.indices)
            for row, k in zip(obj, inp.indices):
                f_next = Fraction(inp.pre[k] if k < len(inp.pre) else 0, ELEMENT_SCALE)
                f_self = Fraction(inp.pre[k - 1] if k <= len(inp.pre) else 0, ELEMENT_SCALE)
                got = (_norm_value(row["residual"]), Fraction(row["alpha_next"]), Fraction(row["alpha_self"]))
                want_row = (
                    Fraction(residual_scaled(inp.pre, fam, k), ELEMENT_SCALE * fam.D),
                    fam.at(k) * abs(f_next),
                    fam.at(k) * abs(f_self),
                )
                p.expect(f"cli residuals[{k}]", got, want_row)
        elif kind == "select_ai":
            check_selection(p, "cli select-ai", obj, fam, self.SELECT)
        elif kind == "witness":
            check_witness_at_point(p, "cli witness", obj, fam, inp.x, inp.points)
        else:
            check_repro(p, obj, fam)
        return p


def check_repro(p: Problems, obj: dict, fam: Family) -> None:
    """repro-paper --json against the paper's closed forms for f = dyadic staircase.

    The four checks claim: alpha_{2^k-1} |f(2^k) - f(2^k-1)| = 2^(-k-1) and
    alpha_{2^k} f(2^k) = 1/4 for k = 1..20, ||f - e_k f|| >= 1/4 at k = 2^m for
    m = 1..12, and ||f|| = 1.  The benchmark evaluates each quantity for the
    family itself and derives which items must be listed as failures, with
    what computed value.
    """
    checks = obj["checks"]
    p.expect("repro-paper check count", len(checks), 4)
    if len(checks) != 4:
        return
    for c, key in zip(checks, ("2^{-k-1}", "= 1/4", ">= 1/4", "exactly 1")):
        if key not in c["name"]:
            p.append(f"repro-paper check {c['name']!r} does not state {key!r}")
    jumps, selfs, residuals, norms = ([], [], [], [])
    for k in range(1, 21):
        j = (1 << k) - 1
        v = fam.at(j) * (dyadic(j) - dyadic(j + 1))
        if v != Fraction(1, 1 << (k + 1)):
            jumps.append({"at": f"k={k}", "expected": str(Fraction(1, 1 << (k + 1))), "computed": str(v)})
        v = fam.at(1 << k) * dyadic(1 << k)
        if v != Fraction(1, 4):
            selfs.append({"at": f"k={k}", "expected": "1/4", "computed": str(v)})
    quarter = Fraction(1, 4)
    for m in range(1, 13):
        k = 1 << m
        base = dyadic(k + 1) * (1 + fam.at(k))
        lo, hi = dyadic_bracket(fam, k + 1)
        if base + hi < quarter:
            residuals.append((m, base + lo, base + hi))
        elif base + lo < quarter:
            p.append(f"repro-paper residual at m={m}: bracket straddles 1/4")
    lo, hi = dyadic_bracket(fam, 1)
    n_lo, n_hi = Fraction(1, 2) + lo, Fraction(1, 2) + hi
    if not n_lo <= 1 <= n_hi:
        norms.append((n_lo, n_hi))
    p.expect("repro-paper jump-term failures", checks[0]["failures"], jumps)
    p.expect("repro-paper self-term failures", checks[1]["failures"], selfs)
    got = checks[2]["failures"]
    p.expect("repro-paper residual failures at", [f["at"] for f in got], [f"m={m}" for m, _, _ in residuals])
    for f, (m, lo, hi) in zip(got, residuals):
        if f["expected"] != ">= 1/4" or not lo <= Fraction(f["computed"]) <= hi:
            p.append(f"repro-paper residual at m={m}: {f} outside [{lo}, {hi}]")
    got = checks[3]["failures"]
    p.expect("repro-paper norm failures", len(got), len(norms))
    for f, (lo, hi) in zip(got, norms):
        if f["expected"] != "1" or not lo <= Fraction(f["computed"]) <= hi:
            p.append(f"repro-paper norm: {f} outside [{lo}, {hi}]")
    passes = [not jumps, not selfs, not residuals, not norms]
    p.expect("repro-paper pass flags", [c["pass"] for c in checks], passes)
    p.expect("repro-paper all_pass", obj["all_pass"], all(passes))


WORKLOADS = {"grammar": Grammar, "exact": Exact, "interval": Interval, "cli": Cli}
