"""Answer checks that do not rely on the program's own certificates.

Where a closed form exists the answer is checked against it:

  * tor: Z in degree 0, Z/p^r in odd degrees, 0 in positive even degrees;
  * rational: rank 1 in degree 0 and 0 above;
  * converge: MISMATCH with Z/p^r odd witnesses in integral mode, MATCH
    with none in rational mode;
  * compare: identity on Tor_0, multiplication by p^(k-1) and injective
    in odd degrees, zero in positive even degrees;
  * emss: the in-window survivors are 1 z ... z^(p-1);
  * socle of a monomial algebra prod F_p[x_i]/(x_i^a_i): soc^k is spanned
    by the monomials of degree > D - k with D = sum (a_i - 1), and
    k0 = e = D + 1;
  * betti of a tensor product of f truncated algebras: C(s + f - 1, f - 1);
  * nakayama: as many checks as asked and no violation;
  * reduce-k: F_p[y]/(y^rank), so dim = nilpotency exponent = rank;
  * group sylow: a subgroup of G of order the p-part of |G|, found by
    closing the given generators here;
  * group conjnil: every p-group is conjugation-nilpotent.

Everything else (chain-map square counts, EMSS page dimensions, the
complement and conjnil answers of groups that are not p-groups) is
compared with `transcript.json`, captured at the seed commit by
`capture.py`.

An over-limit input (`or_refusal` in its expectation) may instead be
refused with exit 2 and a reason on stderr.  A Weierstrass defect point
has no such flag: there exit 2 is a false internal error.

`check(case, code, out, err, transcript)` returns None for a correct
outcome and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math

ZERO = {"free": 0, "torsion": []}


def _tor_entry(s, r):
    if s == 0:
        return {"free": 1, "torsion": []}
    return {"free": 0, "torsion": [r]} if s % 2 else ZERO


def _p_part(n, p):
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def _perm(cycle_text, degree):
    perm = list(range(degree))
    for chunk in cycle_text.strip(")").split(")"):
        pts = [int(x) - 1 for x in chunk.strip("(").split(",") if x]
        for i, x in enumerate(pts):
            perm[x] = pts[(i + 1) % len(pts)]
    return tuple(perm)


def _closure(gens):
    degree = len(gens[0])
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        frontier = [
            y for x in frontier for g in gens
            for y in [tuple(g[x[i]] for i in range(degree))] if y not in seen
        ]
        seen.update(frontier)
    return seen


def _gens(text):
    degree = max(int(x) for x in text.replace("(", ",").replace(")", ",").replace(";", ",")
                 .split(",") if x)
    return [_perm(g, degree) for g in text.split(";")], degree


def _sylow(e, res):
    gens, degree = _gens(e["gens"])
    G = _closure(gens)
    if len(G) != e["order"] or res["group_order"] != e["order"]:
        return "group order"
    want = _p_part(e["order"], e["p"])
    if res["sylow_order"] != want:
        return "sylow order %s, want %d" % (res["sylow_order"], want)
    P = {_perm(x, degree) if x != "()" else tuple(range(degree)) for x in res["elements"]}
    if len(P) != want or not P <= G:
        return "sylow elements are not %d elements of G" % want
    if any(tuple(b[a[i]] for i in range(degree)) not in P for a in P for b in P):
        return "sylow elements are not closed under composition"
    return None


def _socle_dims(heights):
    D = sum(a - 1 for a in heights)
    degrees = [sum(m) for m in itertools.product(*[range(a) for a in heights])]
    return [sum(1 for d in degrees if d > D - k) for k in range(1, D + 2)]


def _answer(case, res, verdict, transcript):
    e = case.expect
    kind = e["kind"]
    recorded = transcript_entry(case, res, verdict)
    if recorded is not None and recorded != transcript.get(case.key):
        return "%s differs from the transcript's %s" % (recorded, transcript.get(case.key))
    if kind == "tor":
        if res["entries"] != [_tor_entry(s, e["r"]) for s in range(7)]:
            return "Tor differs from the closed form"
    elif kind == "rational":
        if res["ranks"] != [1, 0, 0, 0, 0, 0, 0]:
            return "rational Tor ranks %s" % res["ranks"]
    elif kind == "converge":
        odd = [{"s": s, "module": {"free": 0, "torsion": [e["r"]]}} for s in (1, 3, 5)]
        if e["rational"] and (verdict, res["witnesses"]) != ("MATCH", []):
            return "rational convergence should MATCH without witnesses"
        if not e["rational"] and (verdict, res["witnesses"]) != ("MISMATCH", odd):
            return "integral convergence should MISMATCH with Z/p^r witnesses"
    elif kind == "compare":
        mult = e["p"] ** (e["k"] - 1)
        entries = [{"s": 0, "kind": "identity", "multiplier": 1, "injective": True}] + [
            {"s": s, "kind": "times-p^(k-1)", "multiplier": mult, "injective": True}
            if s % 2 else {"s": s, "kind": "zero", "multiplier": 0, "injective": True}
            for s in range(1, 7)
        ]
        if (res["multiplier"], res["entries"], res["odd_injective"]) != (mult, entries, True):
            return "induced Tor map differs from multiplication by p^(k-1)"
    elif kind == "emss":
        zeta = ["1", "z"] + ["z^%d" % a for a in range(2, e["p"])]
        if verdict != "MATCH" or res["survivors"] != zeta:
            return "survivors %s are not the powers of zeta" % res["survivors"]
    elif kind == "socle":
        m = len(e["dims"])
        if (res["dims"], res["k0"], res["e"]) != (e["dims"], m, m):
            return "socle ladder of y^%d differs" % m
    elif kind == "socle-file":
        dims = _socle_dims(e["heights"])
        if (res["dims"], res["k0"], res["e"]) != (dims, len(dims), len(dims)):
            return "socle dims %s, want %s" % (res["dims"], dims)
    elif kind == "betti":
        if res["betti"] != e["betti"]:
            return "betti %s" % res["betti"]
    elif kind == "betti-file":
        f = len(e["heights"])
        if res["betti"] != [math.comb(s + f - 1, f - 1) for s in range(e["smax"] + 1)]:
            return "betti %s of a %d-fold tensor product" % (res["betti"], f)
    elif kind in ("nakayama", "nakayama-file"):
        if (res["checks"], res["violations"]) != (e["count"], 0):
            return "nakayama %s" % res
    elif kind == "reduce-k":
        rank = e["rank"]
        labels = ["1", "y"] + ["y^%d" % i for i in range(2, rank)]
        if (res["dim"], res["labels"], res["nilpotency_exponent"]) != (rank, labels, rank):
            return "reduction is not F_p[y]/(y^%d)" % rank
    elif kind == "group-sylow":
        return _sylow(e, res)
    elif kind == "group-complement":
        if res["expected_order"] != e["order"] // _p_part(e["order"], e["p"]):
            return "expected complement order"
    elif kind == "group-conjnil":
        if _p_part(e["order"], e["p"]) == e["order"] and verdict != "NILPOTENT":
            return "a p-group must be conjugation-nilpotent"
    else:
        raise ValueError("no check for %r" % kind)
    return None


def transcript_entry(case, res, verdict):
    """What `capture.py` records for a case whose answer has no closed form."""
    kind = case.expect["kind"]
    if kind == "compare":
        return [res["squares_checked"]]
    if kind == "emss":
        return [res["pages"], res["total_dim"]]
    if kind == "group-complement":
        return [verdict, res["candidate_order"], len(res["elements"])]
    if kind == "group-conjnil":
        return [verdict, res["chain_dims"]]
    return None


def check(case, code, out, err, transcript):
    e = case.expect
    if e["kind"] == "refusal":
        if code in e["codes"] and e["reason"] in err:
            return None
        return "expected refusal %s (%s), got exit %s: %s" % (
            e["codes"], e["reason"], code, err.strip()[:120])
    if code == 2 and e.get("or_refusal") and err.strip():
        return None
    if code != 0:
        return "exit %s: %s" % (code, err.strip()[:120])
    try:
        doc = json.loads(out)
        return _answer(case, doc["result"], doc["verdict"], transcript)
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable answer: %r" % exc
