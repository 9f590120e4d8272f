"""Command-line front end.

Every subcommand prints a deterministic report, either as a plain
text table or as canonical JSON ({tool, version, params, result,
verdict}, sorted keys).  Identical invocations produce byte-identical
output, which the golden tests rely on.

Exit codes: 0 for a completed computation (MATCH and MISMATCH are
both completed diagnostics), 2 for a precondition violation or a
failed computation (an out-of-memory allocation included), 3 for an
INCONCLUSIVE diagnostic, 64 for an unknown subcommand, 65 for a
malformed input file or generator string.

Model selection: height 1 uses the multiplicative law (exact integer
coefficients), height >= 2 the functional-equation law over Z_p.  The
series precision M is derived from (p, n, r, N) unless --M overrides
it.

Algebra input files (--algebra) are plain text: `labels:`,
`parities:`, `aug:` lines with whitespace-separated entries, and one
`mul: i j k value` line per nonzero structure constant (e_i * e_j has
coefficient `value` on e_k).  Lines starting with '#' are comments.
The first basis element is the unit.  Each of `labels:`, `parities:`
and `aug:` appears once, each `i j k` triple at most once, and every
parity is 0 or 1; any other file is refused with exit 65.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

import numpy as np

from . import __version__, artin, emss, groups, homalg
from .cochain import make_cochain_ring, minimum_series_precision, mod_m_reduction
from .coeff import ContextMismatch, NonUnitError
from .fgl import (
    PrecisionError,
    WeierstrassError,
    exact_quotient_by_y,
    make_honda_fgl,
    make_multiplicative_fgl,
    validated_series,
)

_COMPUTE_ERRORS = (
    ValueError,
    PrecisionError,
    WeierstrassError,
    ContextMismatch,
    NonUnitError,
    artin.AlgebraError,
    homalg.HomologyError,
    homalg.ChainMapError,
    emss.CutoffError,
    groups.GroupError,
)


class _UsageError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse that reports through exit codes instead of dying: 64
    for an unknown subcommand, 2 for any other usage error."""

    def error(self, message):
        unknown = message.startswith(("argument cmd:", "argument gcmd:"))
        raise _UsageError(64 if unknown else 2, message)


# ---------------------------------------------------------------------------
# shared plumbing


def _build_law(p, n, r, N, M=None):
    """Formal group law for the requested height, with enough series
    precision for exponent r work at p-adic precision N."""
    if M is None:
        M = minimum_series_precision(p, n, r, N, polynomial_pseries=(n == 1))
    if n == 1:
        return make_multiplicative_fgl(p, M=M)
    return make_honda_fgl(p, n, M=M, N=N)


def _descriptor_json(desc, p):
    exps = []
    for t in desc.torsion:
        e, x = 0, t
        while x % p == 0:
            x //= p
            e += 1
        if x != 1:
            raise homalg.HomologyError("torsion order %d is not a p-power" % t)
        exps.append(e)
    return {"free": desc.free, "torsion": exps}


def _series_prefix(series, length):
    coeffs = [int(c) for c in series.coeffs[:length]]
    if len(coeffs) < length:
        if not series.exact:
            raise PrecisionError("series too short for the requested window")
        coeffs += [0] * (length - len(coeffs))
    return coeffs


def _params_line(params):
    return "params: " + " ".join("%s=%s" % (k, v) for k, v in params.items())


def _emit(tool, params, result, verdict, lines, args):
    if args.format == "json":
        text = json.dumps(
            {
                "tool": tool,
                "version": __version__,
                "params": params,
                "result": result,
                "verdict": verdict,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
    else:
        head = ["tool: %s" % tool, "version: %s" % __version__, _params_line(params)]
        text = "\n".join(head + lines + ["verdict: %s" % verdict]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if verdict == "INCONCLUSIVE" else 0


def _load_algebra(args):
    """Algebra from --algebra file, or F_p[y]/(y^m) from --m."""
    artin.check_prime(args.p)  # a refusal (exit 2), before any file is read
    if getattr(args, "algebra", None):
        try:
            with open(args.algebra, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(65, "cannot read %s: %s" % (args.algebra, exc))
        try:
            return _parse_algebra_file(text, args.p)
        except (ValueError, artin.AlgebraError) as exc:
            raise _UsageError(65, "malformed algebra file: %s" % exc)
    return artin.truncated_polynomial_algebra(args.p, args.m)


def _parse_algebra_file(text, p):
    fields = {}  # labels, parities, aug
    muls = {}  # (i, j, k) -> value
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError("line without key: %r" % line)
        key, _, rest = line.partition(":")
        key = key.strip()
        toks = rest.split()
        if key in ("labels", "parities", "aug"):
            if key in fields:
                raise ValueError("repeated %s line" % key)
            fields[key] = toks if key == "labels" else [int(t) for t in toks]
            if key == "parities" and not set(fields[key]) <= {0, 1}:
                raise ValueError("parities must be 0 or 1")
        elif key == "mul":
            if len(toks) != 4:
                raise ValueError("mul needs 'i j k value': %r" % line)
            i, j, k, v = (int(t) for t in toks)
            if (i, j, k) in muls:
                raise ValueError("repeated mul triple: %r" % line)
            muls[i, j, k] = v
        else:
            raise ValueError("unknown key %r" % key)
    if len(fields) < 3:
        raise ValueError("file needs labels, parities and aug lines")
    dim = len(fields["labels"])
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j, k), v in muls.items():
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError("mul index out of range")
        table[i, j, k] = v % p
    return artin.validated_algebra(p, fields["labels"], fields["parities"], table, fields["aug"])


def _group_from_args(args):
    try:
        perms = groups.parse_cycles(args.gens)
        return groups.FiniteGroup(len(perms[0]), perms)
    except groups.GroupError as exc:
        raise _UsageError(65, "bad generator string: %s" % exc)


def _cycle_str(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) if out else "()"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pseries(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    series = F.p_series(args.r)
    rank = args.p ** (args.r * args.n)
    window = min(rank + 2, len(series.coeffs))
    prefix = _series_prefix(series, window)
    params = {
        "p": args.p, "n": args.n, "r": args.r, "N": args.N,
        "M": F.M, "model": "multiplicative" if args.n == 1 else "functional-equation",
    }
    pairs = [[d, c] for d, c in enumerate(prefix) if c]
    lines = ["coeff y^%d: %d" % (d, c) for d, c in pairs]
    lines.append("leading degree: %d" % rank)
    result = {"coeffs": pairs, "leading_degree": rank, "shown_through": window - 1}
    return "ramify pseries", params, result, "OK", lines


def _cmd_weierstrass(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    rank = ring.rank
    dist = ring.distinguished
    dist_coeffs = [int(c) for c in dist.coeffs]
    const = dist_coeffs[0]
    val, x = 0, const
    while x and x % args.p == 0:
        x //= args.p
        val += 1
    # distinguished * unit must reproduce q_r mod p^N through y^(rank+1)
    q = exact_quotient_by_y(F.p_series(args.r))
    q = validated_series(ring.context, q.coeffs, q.exact)
    prod = dist * ring.unit_series
    width = rank + 2
    ok = _series_prefix(prod, width) == _series_prefix(q, width)
    if not ok:
        raise WeierstrassError("re-multiplication failed to match the cofactor")
    params = {"p": args.p, "n": args.n, "r": args.r, "N": args.N, "M": F.M}
    lines = [
        "distinguished degree: %d" % (rank - 1),
        "distinguished coeffs: %s" % dist_coeffs,
        "constant term valuation: %d" % val,
        "remultiplication window: y^0..y^%d" % (width - 1),
        "remultiplication matches: True",
    ]
    result = {
        "distinguished": dist_coeffs,
        "degree": rank - 1,
        "constant_valuation": val,
        "remultiplication_matches": True,
        "window": width,
    }
    return "ramify weierstrass", params, result, "OK", lines


def _cmd_ring(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    aug_q = ring.augmentation(ring.q_elt)
    yq_zero = (ring.y_elt * ring.q_elt).is_zero
    params = {"p": args.p, "n": args.n, "r": args.r, "N": args.N, "M": F.M}
    lines = [
        "modulus: %d" % ring.modulus,
        "rank: %d" % ring.rank,
        "w coeffs: %s" % list(ring.w_coeffs),
        "q coeffs: %s" % list(ring.q_elt.coeffs),
        "aug(q): %d" % aug_q,
        "y*q = 0: %s" % yq_zero,
    ]
    result = {
        "modulus": ring.modulus,
        "rank": ring.rank,
        "w": list(ring.w_coeffs),
        "q": list(ring.q_elt.coeffs),
        "aug_q": aug_q,
        "yq_zero": yq_zero,
    }
    return "ramify ring", params, result, "OK", lines


def _cmd_reduce_k(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    alg = mod_m_reduction(ring)
    params = {"p": args.p, "n": args.n, "r": args.r, "N": args.N}
    lines = [
        "dim: %d" % alg.dim,
        "labels: %s" % " ".join(alg.labels),
        "nilpotency exponent: %d" % artin.nilpotency_exponent(alg),
    ]
    result = {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "nilpotency_exponent": artin.nilpotency_exponent(alg),
    }
    return "ramify reduce-k", params, result, "OK", lines


def _cmd_tor(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    table = homalg.tor_table(ring, args.smax)
    params = {"p": args.p, "n": args.n, "r": args.r, "N": args.N, "smax": args.smax}
    lines = ["Tor_%d = %s" % (s, table.entry(s)) for s in range(args.smax + 1)]
    result = {
        "entries": [_descriptor_json(table.entry(s), args.p) for s in range(args.smax + 1)]
    }
    return "ramify tor", params, result, "OK", lines


def _cmd_kunneth(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    page = homalg.kunneth_page(ring, args.smax)
    params = {"p": args.p, "n": args.n, "r": args.r, "N": args.N, "smax": args.smax}
    lines = ["E2[s=%d] = %s" % (s, page.entries[s]) for s in range(args.smax + 1)]
    for d in page.differentials:
        lines.append(
            "d^%d: %s -> %s: forced zero (%s)" % (d.index, d.source, d.target, d.reason)
        )
    lines.append("E_inf = E2: True")
    result = {
        "entries": [_descriptor_json(e, args.p) for e in page.entries],
        "differentials": [
            {
                "index": d.index,
                "source": list(d.source),
                "target": list(d.target),
                "forced_zero": d.forced_zero,
                "reason": d.reason,
            }
            for d in page.differentials
        ],
        "degenerates": True,
    }
    return "ramify kunneth", params, result, "OK", lines


def _cmd_compare(args):
    F = _build_law(args.p, args.n, args.k, args.N, args.M)
    cmap = homalg.comparison_chain_map(F, args.k, args.L, N=args.N, seed=args.seed)
    tmor = homalg.induced_tor_morphism(cmap.morphism, args.smax)
    params = {
        "p": args.p, "n": args.n, "k": args.k, "L": args.L,
        "N": args.N, "smax": args.smax, "seed": args.seed,
    }
    lines = [
        "squares checked: %d" % cmap.squares_checked,
        "multiplier: %d" % tmor.multiplier,
    ]
    for s, (kind, mult, inj) in enumerate(tmor.entries):
        lines.append("Tor_%d map: %s (x%d) injective=%s" % (s, kind, mult, inj))
    result = {
        "squares_checked": cmap.squares_checked,
        "multiplier": tmor.multiplier,
        "entries": [
            {"s": s, "kind": kind, "multiplier": mult, "injective": inj}
            for s, (kind, mult, inj) in enumerate(tmor.entries)
        ],
        "odd_injective": tmor.odd_injective,
    }
    return "ramify compare", params, result, "OK", lines


def _cmd_rational(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    ranks = homalg.rational_tor(ring, args.smax)
    params = {"p": args.p, "n": args.n, "r": args.r, "N": args.N, "smax": args.smax}
    lines = ["rank s=%d: %d" % (s, v) for s, v in enumerate(ranks)]
    result = {"ranks": list(ranks)}
    return "ramify rational", params, result, "OK", lines


def _cmd_converge(args):
    F = _build_law(args.p, args.n, args.r, args.N, args.M)
    ring = make_cochain_ring(F, args.r, N=args.N)
    rep = homalg.convergence_diagnostic(ring, args.smax, rational=args.rational)
    params = {
        "p": args.p, "n": args.n, "r": args.r, "N": args.N,
        "smax": args.smax, "mode": rep.mode,
    }
    lines = ["expected abutment: free rank %d, even degrees" % rep.expected.free]
    for s, desc in rep.odd_witnesses:
        lines.append("witness s=%d: %s" % (s, desc))
    lines.append("note: %s" % rep.notes)
    result = {
        "expected": _descriptor_json(rep.expected, args.p),
        "witnesses": [
            {"s": s, "module": _descriptor_json(d, args.p)} for s, d in rep.odd_witnesses
        ],
        "notes": rep.notes,
    }
    return "ramify converge", params, result, rep.verdict, lines


def _cmd_socle(args):
    alg = _load_algebra(args)
    series = artin.socle_series(artin.regular_module(alg))
    params = {"p": args.p, "algebra": args.algebra or ("y^%d-truncated" % args.m)}
    lines = [
        "algebra dim: %d" % alg.dim,
        "socle dims: %s" % " ".join(str(d) for d in series.dims),
        "k0: %d" % series.k0,
        "nilpotency exponent: %d" % series.e,
    ]
    result = {"dims": list(series.dims), "k0": series.k0, "e": series.e}
    return "ramify socle", params, result, "OK", lines


def _cmd_betti(args):
    alg = _load_algebra(args)
    betti = artin.minimal_free_resolution(alg, args.smax)
    params = {
        "p": args.p,
        "algebra": args.algebra or ("y^%d-truncated" % args.m),
        "smax": args.smax,
    }
    lines = ["b_%d = %d" % (s, b) for s, b in enumerate(betti)]
    zero_free = all(b > 0 for b in betti)
    lines.append("all positive: %s" % zero_free)
    result = {"betti": list(betti), "all_positive": zero_free}
    return "ramify betti", params, result, "OK", lines


def _cmd_nakayama(args):
    if args.count < 0:
        raise ValueError("count must be >= 0")
    alg = _load_algebra(args)
    free = artin.free_module(alg, 2)
    rng = random.Random(args.seed)
    checks = 0
    for _ in range(args.count):
        module = artin.random_spanned_module(free, rng)
        artin.nakayama_check(module)  # raises on a violation
        checks += 1
    params = {
        "p": args.p,
        "algebra": args.algebra or ("y^%d-truncated" % args.m),
        "count": args.count,
        "seed": args.seed,
    }
    lines = ["checks run: %d" % checks, "violations: 0"]
    result = {"checks": checks, "violations": 0}
    return "ramify nakayama", params, result, "OK", lines


def _cmd_emss(args):
    rep = emss.final_page_report(args.p, args.S)
    params = {"p": args.p, "S": args.S}
    lines = []
    if rep.verdict != "INCONCLUSIVE":
        for page in rep.pages:
            lines.append("page %d: dim %d" % (page.index, page.total_dimension))
            if page.record is not None:
                rec = page.record
                lines[-1] += " (after round %d, d^%d)" % (rec.round, rec.nominal_index)
        lines.append(
            "survivors in window (s <= %d): %s"
            % (rep.window, " ".join(str(m) for m in rep.survivors))
        )
        lines.append("total dim: %d" % rep.total_dim)
    lines.append("note: %s" % rep.notes)
    result = {
        "window": rep.window,
        "pages": [
            {"index": pg.index, "dim": pg.total_dimension} for pg in rep.pages
        ],
        "survivors": [str(m) for m in rep.survivors],
        "total_dim": rep.total_dim,
        "notes": rep.notes,
    }
    return "ramify emss", params, result, rep.verdict, lines


def _cmd_group(args):
    G = _group_from_args(args)
    if args.gcmd == "sylow":
        syl = groups.sylow_subgroup(G, args.p, seed=args.seed)
        params = {"p": args.p, "gens": args.gens, "seed": args.seed}
        lines = [
            "group order: %d" % G.order,
            "sylow order: %d" % syl.order,
            "elements: %s" % " ".join(_cycle_str(g) for g in syl.elements),
        ]
        result = {
            "group_order": G.order,
            "sylow_order": syl.order,
            "elements": [_cycle_str(g) for g in syl.elements],
        }
        return "ramify group sylow", params, result, "OK", lines
    if args.gcmd == "complement":
        rep = groups.has_normal_p_complement(G, args.p)
        params = {"p": args.p, "gens": args.gens}
        lines = [
            "group order: %d" % G.order,
            "candidate order: %d" % rep.candidate_order,
            "expected order: %d" % rep.expected_order,
            "elements: %s" % " ".join(_cycle_str(g) for g in rep.subgroup.elements),
        ]
        result = {
            "group_order": G.order,
            "candidate_order": rep.candidate_order,
            "expected_order": rep.expected_order,
            "elements": [_cycle_str(g) for g in rep.subgroup.elements],
        }
        verdict = "COMPLEMENT" if rep.exists else "NO COMPLEMENT"
        return "ramify group complement", params, result, verdict, lines
    rep = groups.conjugation_nilpotent(G, args.p)
    params = {"p": args.p, "gens": args.gens}
    lines = [
        "group order: %d" % G.order,
        "chain dims: %s" % " > ".join(str(d) for d in rep.chain_dims),
        "stable dim: %d" % rep.stable_dim,
    ]
    result = {
        "group_order": G.order,
        "chain_dims": list(rep.chain_dims),
        "stable_dim": rep.stable_dim,
    }
    verdict = "NILPOTENT" if rep.nilpotent else "NOT NILPOTENT"
    return "ramify group conjnil", params, result, verdict, lines


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, *names):
    if "p" in names:
        sp.add_argument("--p", type=int, default=2, help="prime")
    if "n" in names:
        sp.add_argument("--n", type=int, default=1, help="height")
    if "r" in names:
        sp.add_argument("--r", type=int, default=1, help="exponent r")
    if "N" in names:
        sp.add_argument("--N", type=int, default=8, help="p-adic precision")
    if "M" in names:
        sp.add_argument("--M", type=int, default=None, help="series precision override")
    if "smax" in names:
        sp.add_argument("--smax", type=int, default=6, help="top homological degree")
    if "seed" in names:
        sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--format", choices=["table", "json"], default="table")
    sp.add_argument("--out", default=None, help="write the report to this path")


def _add_algebra_flags(sp):
    sp.add_argument("--algebra", default=None, help="algebra description file")
    sp.add_argument("--m", type=int, default=4, help="truncation y^m = 0 when no file is given")


def build_parser():
    parser = _Parser(prog="ramify", description="exact computations behind a ramification story")
    sub = parser.add_subparsers(dest="cmd")

    sp = sub.add_parser("pseries", help="coefficients of the r-fold p-series")
    _add_common(sp, "p", "n", "r", "N", "M")
    sp.set_defaults(func=_cmd_pseries)

    sp = sub.add_parser("weierstrass", help="distinguished factor of the p-series cofactor")
    _add_common(sp, "p", "n", "r", "N", "M")
    sp.set_defaults(func=_cmd_weierstrass)

    sp = sub.add_parser("ring", help="the cyclic-group cochain ring")
    _add_common(sp, "p", "n", "r", "N", "M")
    sp.set_defaults(func=_cmd_ring)

    sp = sub.add_parser("reduce-k", help="mod-(p, ker aug) reduction to a truncated polynomial algebra")
    _add_common(sp, "p", "n", "r", "N", "M")
    sp.set_defaults(func=_cmd_reduce_k)

    sp = sub.add_parser("tor", help="Tor of the residue object, closed form certified")
    _add_common(sp, "p", "n", "r", "N", "M", "smax")
    sp.set_defaults(func=_cmd_tor)

    sp = sub.add_parser("kunneth", help="bigraded page with forced-zero differentials")
    _add_common(sp, "p", "n", "r", "N", "M", "smax")
    sp.set_defaults(func=_cmd_kunneth)

    sp = sub.add_parser("compare", help="chain map between the r=1 and r=k towers")
    _add_common(sp, "p", "n", "N", "M", "smax", "seed")
    sp.add_argument("--k", type=int, default=2, help="target tower exponent")
    sp.add_argument("--L", type=int, default=6, help="resolution length")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("rational", help="rational Tor ranks")
    _add_common(sp, "p", "n", "r", "N", "M", "smax")
    sp.set_defaults(func=_cmd_rational)

    sp = sub.add_parser("converge", help="abutment comparison diagnostic")
    _add_common(sp, "p", "n", "r", "N", "M", "smax")
    sp.add_argument("--rational", action="store_true", help="compare rational entries instead")
    sp.set_defaults(func=_cmd_converge)

    sp = sub.add_parser("socle", help="socle series of the regular module")
    _add_common(sp, "p")
    _add_algebra_flags(sp)
    sp.set_defaults(func=_cmd_socle)

    sp = sub.add_parser("betti", help="Betti numbers of the residue field")
    _add_common(sp, "p", "smax")
    _add_algebra_flags(sp)
    sp.set_defaults(func=_cmd_betti)

    sp = sub.add_parser("nakayama", help="randomized top-of-module checks")
    _add_common(sp, "p", "seed")
    _add_algebra_flags(sp)
    sp.add_argument("--count", type=int, default=50, help="number of random modules")
    sp.set_defaults(func=_cmd_nakayama)

    sp = sub.add_parser("emss", help="divided-power page mechanics at an odd prime")
    _add_common(sp, "p")
    sp.add_argument("--S", type=int, default=3, help="divided-power cutoff")
    sp.set_defaults(func=_cmd_emss)

    gp = sub.add_parser("group", help="p-nilpotence diagnostics for permutation groups")
    gsub = gp.add_subparsers(dest="gcmd")
    for name, help_text in [
        ("sylow", "grow a Sylow p-subgroup"),
        ("complement", "existence of a normal p-complement"),
        ("conjnil", "nilpotence of the conjugation action on F_p[G]"),
    ]:
        gsp = gsub.add_parser(name, help=help_text)
        gsp.add_argument("--gens", required=True, help="generators in cycle notation, ';'-separated")
        _add_common(gsp, "p", "seed")
        gsp.set_defaults(func=_cmd_group)

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser main uses, built once per process: parse_args leaves
    it unchanged, so every call parses as a fresh parser would."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc.message, file=sys.stderr)
        return exc.code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "cmd", None) is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return 2
    if args.cmd == "group" and getattr(args, "gcmd", None) is None:
        print("error: group needs one of sylow|complement|conjnil", file=sys.stderr)
        return 2
    try:
        tool, params, result, verdict, lines = args.func(args)
        return _emit(tool, params, result, verdict, lines, args)
    except _UsageError as exc:
        print("error: %s" % exc.message, file=sys.stderr)
        return exc.code
    except _COMPUTE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % (str(exc) or "allocation failed"), file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main(argv=None))


if __name__ == "__main__":
    main_entry()
