"""Command-line front end.

Every subcommand returns one record, (tool, params, verdict, rows),
and _emit renders it as a deterministic report: a plain text table or
canonical JSON ({tool, version, params, result, verdict}, sorted keys).
Identical invocations produce byte-identical output, which the golden
tests rely on.

Exit codes: 0 for a completed computation (MATCH and MISMATCH are
both completed diagnostics), 2 for a precondition violation, a failed
computation (an out-of-memory allocation included) or an --out path
that cannot be written, 3 for an INCONCLUSIVE diagnostic, 64 for an
unknown subcommand, 65 for a malformed input file or generator string.

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
from .cochain import MorphismError, make_cochain_ring, minimum_series_precision, mod_m_reduction
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
    MorphismError,
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


def _build_law(args, exponent="r"):
    """Formal group law for the requested height, with enough series
    precision for work at the exponent flag (--r, or --k for compare)
    at p-adic precision N.  The flags M is derived from are checked
    first, so a refusal names the flag at fault."""
    p, n, r, N = args.p, args.n, getattr(args, exponent), args.N
    if r < 0:
        raise ValueError("%s must be >= 0" % exponent)
    if N < 1:
        raise ValueError("N must be >= 1")
    M = args.M
    if M is None:
        M = minimum_series_precision(p, n, r, N, polynomial_pseries=(n == 1))
    if n == 1:
        return make_multiplicative_fgl(p, M=M)
    return make_honda_fgl(p, n, M=M, N=N)


def _tower(args):
    """The ring A_r of the r-th tower stage, on the law ring.fgl."""
    return make_cochain_ring(_build_law(args), args.r, N=args.N)


def _descriptor_json(desc, p):
    exps = []
    for t in desc.torsion:
        e = 0
        while t % p == 0:
            t //= p
            e += 1
        exps.append(e)
    return {"free": desc.free, "torsion": exps}


def _series_prefix(series, length):
    coeffs = [int(c) for c in series.coeffs[:length]]
    if len(coeffs) < length:
        if not series.exact:
            raise PrecisionError("series too short for the requested window")
        coeffs += [0] * (length - len(coeffs))
    return coeffs


def _params(args, *names, **computed):
    """The params of a report, in table order: the named flags, then the
    computed values."""
    return dict({name: getattr(args, name) for name in names}, **computed)


def _algebra_params(args, *names):
    """p, the --algebra file or the --m truncation, then the named flags."""
    algebra = args.algebra or "y^%d-truncated" % args.m
    return dict({"p": args.p, "algebra": algebra}, **_params(args, *names))


def _row(label, key, value, text=None):
    """A one-line row: `label: text` in the table, text defaulting to
    the value, and the value under key in the JSON result."""
    return ["%s: %s" % (label, value if text is None else text)], key, value


def _emit(record, args):
    """Render a record (tool, params, verdict, rows) as the table or as
    JSON.  A row (lines, key, value) shows as its lines in the table and
    as result[key] = value in JSON; a row with key None is table only,
    one with no lines JSON only."""
    tool, params, verdict, rows = record
    if args.format == "json":
        text = json.dumps(
            {
                "tool": tool,
                "version": __version__,
                "params": params,
                "result": {key: value for _, key, value in rows if key is not None},
                "verdict": verdict,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
    else:
        lines = [
            "tool: %s" % tool,
            "version: %s" % __version__,
            "params: " + " ".join("%s=%s" % item for item in params.items()),
        ]
        lines += [line for row_lines, _, _ in rows for line in row_lines]
        text = "\n".join(lines + ["verdict: %s" % verdict]) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(2, "cannot write %s: %s" % (args.out, exc))
    else:
        sys.stdout.write(text)
    return 3 if verdict == "INCONCLUSIVE" else 0


def _load_algebra(args):
    """Algebra from --algebra file, or F_p[y]/(y^m) from --m."""
    artin.check_prime(args.p)  # a refusal (exit 2), before any file is read
    if args.algebra:
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
    F = _build_law(args)
    series = F.p_series(args.r)
    rank = args.p ** (args.r * args.n)
    window = min(rank + 2, len(series.coeffs))
    pairs = [[d, c] for d, c in enumerate(_series_prefix(series, window)) if c]
    model = "multiplicative" if args.n == 1 else "functional-equation"
    return "ramify pseries", _params(args, "p", "n", "r", "N", M=F.M, model=model), "OK", [
        (["coeff y^%d: %d" % (d, c) for d, c in pairs], "coeffs", pairs),
        _row("leading degree", "leading_degree", rank),
        ([], "shown_through", window - 1),
    ]


def _cmd_weierstrass(args):
    ring = _tower(args)
    F, dist = ring.fgl, ring.distinguished
    dist_coeffs = [int(c) for c in dist.coeffs]
    val, x = 0, dist_coeffs[0]
    while x and x % args.p == 0:
        x //= args.p
        val += 1
    # distinguished * unit must reproduce q_r mod p^N through y^(rank+1)
    width = ring.rank + 2
    q = exact_quotient_by_y(F.p_series(args.r, width + 1))  # a prefix of the ring's
    q = validated_series(ring.context, q.coeffs, q.exact)
    if _series_prefix(dist * ring.unit_series, width) != _series_prefix(q, width):
        raise WeierstrassError("re-multiplication failed to match the cofactor")
    return "ramify weierstrass", _params(args, "p", "n", "r", "N", M=F.M), "OK", [
        _row("distinguished degree", "degree", ring.rank - 1),
        _row("distinguished coeffs", "distinguished", dist_coeffs),
        _row("constant term valuation", "constant_valuation", val),
        _row("remultiplication window", "window", width, "y^0..y^%d" % (width - 1)),
        _row("remultiplication matches", "remultiplication_matches", True),
    ]


def _cmd_ring(args):
    ring = _tower(args)
    return "ramify ring", _params(args, "p", "n", "r", "N", M=ring.fgl.M), "OK", [
        _row("modulus", "modulus", ring.modulus),
        _row("rank", "rank", ring.rank),
        _row("w coeffs", "w", list(ring.w_coeffs)),
        _row("q coeffs", "q", list(ring.q_elt.coeffs)),
        _row("aug(q)", "aug_q", ring.augmentation(ring.q_elt)),
        _row("y*q = 0", "yq_zero", (ring.y_elt * ring.q_elt).is_zero),
    ]


def _cmd_reduce_k(args):
    alg = mod_m_reduction(_tower(args))
    return "ramify reduce-k", _params(args, "p", "n", "r", "N"), "OK", [
        _row("dim", "dim", alg.dim),
        _row("labels", "labels", list(alg.labels), " ".join(alg.labels)),
        _row("nilpotency exponent", "nilpotency_exponent", artin.nilpotency_exponent(alg)),
    ]


def _cmd_tor(args):
    entries = homalg.tor_table(_tower(args), args.smax).entries
    return "ramify tor", _params(args, "p", "n", "r", "N", "smax"), "OK", [
        (["Tor_%d = %s" % (s, e) for s, e in enumerate(entries)], "entries",
         [_descriptor_json(e, args.p) for e in entries]),
    ]


def _cmd_kunneth(args):
    page = homalg.kunneth_page(_tower(args), args.smax)
    diffs = page.differentials
    return "ramify kunneth", _params(args, "p", "n", "r", "N", "smax"), "OK", [
        (["E2[s=%d] = %s" % (s, e) for s, e in enumerate(page.entries)], "entries",
         [_descriptor_json(e, args.p) for e in page.entries]),
        (["d^%d: %s -> %s: forced zero (%s)" % (d.index, d.source, d.target, d.reason)
          for d in diffs], "differentials",
         [{"index": d.index, "source": list(d.source), "target": list(d.target),
           "forced_zero": d.forced_zero, "reason": d.reason} for d in diffs]),
        _row("E_inf = E2", "degenerates", True),
    ]


def _cmd_compare(args):
    if args.smax < 0:  # before the law, both rings and the chain map
        raise ValueError("s_max must be >= 0")
    F = _build_law(args, "k")
    cmap = homalg.comparison_chain_map(F, args.k, args.L, N=args.N)
    tmor = homalg.induced_tor_morphism(cmap.morphism, args.smax)
    entries = list(enumerate(tmor.entries))
    params = _params(args, "p", "n", "k", "L", "N", "smax", "seed")
    return "ramify compare", params, "OK", [
        _row("squares checked", "squares_checked", cmap.squares_checked),
        _row("multiplier", "multiplier", tmor.multiplier),
        (["Tor_%d map: %s (x%d) injective=%s" % (s, kind, mult, inj)
          for s, (kind, mult, inj) in entries], "entries",
         [{"s": s, "kind": kind, "multiplier": mult, "injective": inj}
          for s, (kind, mult, inj) in entries]),
        ([], "odd_injective", tmor.odd_injective),
    ]


def _cmd_rational(args):
    ranks = list(homalg.rational_tor(_tower(args), args.smax))
    return "ramify rational", _params(args, "p", "n", "r", "N", "smax"), "OK", [
        (["rank s=%d: %d" % (s, v) for s, v in enumerate(ranks)], "ranks", ranks),
    ]


def _cmd_converge(args):
    rep = homalg.convergence_diagnostic(_tower(args), args.smax, rational=args.rational)
    params = _params(args, "p", "n", "r", "N", "smax", mode=rep.mode)
    return "ramify converge", params, rep.verdict, [
        (["expected abutment: free rank %d, even degrees" % rep.expected.free], "expected",
         _descriptor_json(rep.expected, args.p)),
        (["witness s=%d: %s" % (s, d) for s, d in rep.odd_witnesses], "witnesses",
         [{"s": s, "module": _descriptor_json(d, args.p)} for s, d in rep.odd_witnesses]),
        _row("note", "notes", rep.notes),
    ]


def _cmd_socle(args):
    alg = _load_algebra(args)
    series = artin.socle_series(artin.regular_module(alg))
    return "ramify socle", _algebra_params(args), "OK", [
        _row("algebra dim", None, alg.dim),
        _row("socle dims", "dims", list(series.dims), " ".join(map(str, series.dims))),
        _row("k0", "k0", series.k0),
        _row("nilpotency exponent", "e", series.e),
    ]


def _cmd_betti(args):
    betti = list(artin.minimal_free_resolution(_load_algebra(args), args.smax))
    return "ramify betti", _algebra_params(args, "smax"), "OK", [
        (["b_%d = %d" % (s, b) for s, b in enumerate(betti)], "betti", betti),
        _row("all positive", "all_positive", all(b > 0 for b in betti)),
    ]


def _cmd_nakayama(args):
    if args.count < 0:
        raise ValueError("count must be >= 0")
    free = artin.free_module(_load_algebra(args), 2)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        artin.nakayama_check(artin.random_spanned_module(free, rng))  # raises on a violation
    return "ramify nakayama", _algebra_params(args, "count", "seed"), "OK", [
        _row("checks run", "checks", args.count),
        _row("violations", "violations", 0),
    ]


def _cmd_emss(args):
    rep = emss.final_page_report(args.p, args.S)
    pages = []
    for page in rep.pages:
        pages.append("page %d: dim %d" % (page.index, page.total_dimension))
        if page.record is not None:
            rec = page.record
            pages[-1] += " (after round %d, d^%d)" % (rec.round, rec.nominal_index)
    survivors = [str(m) for m in rep.survivors]
    rows = [
        (pages, "pages", [{"index": pg.index, "dim": pg.total_dimension} for pg in rep.pages]),
        _row("survivors in window (s <= %d)" % rep.window, "survivors", survivors,
             " ".join(survivors)),
        ([], "window", rep.window),
        _row("total dim", "total_dim", rep.total_dim),
    ]
    if rep.verdict == "INCONCLUSIVE":  # the table shows only the note
        rows = [([], key, value) for _, key, value in rows]
    return "ramify emss", _params(args, "p", "S"), rep.verdict, rows + [
        _row("note", "notes", rep.notes),
    ]


def _cmd_group(args):
    G = _group_from_args(args)
    order = _row("group order", "group_order", G.order)
    if args.gcmd == "sylow":
        syl = groups.sylow_subgroup(G, args.p, seed=args.seed)
        cycles = [_cycle_str(g) for g in syl.elements]
        return "ramify group sylow", _params(args, "p", "gens", "seed"), "OK", [
            order,
            _row("sylow order", "sylow_order", syl.order),
            _row("elements", "elements", cycles, " ".join(cycles)),
        ]
    if args.gcmd == "complement":
        rep = groups.has_normal_p_complement(G, args.p)
        cycles = [_cycle_str(g) for g in rep.subgroup.elements]
        verdict = "COMPLEMENT" if rep.exists else "NO COMPLEMENT"
        return "ramify group complement", _params(args, "p", "gens"), verdict, [
            order,
            _row("candidate order", "candidate_order", rep.candidate_order),
            _row("expected order", "expected_order", rep.expected_order),
            _row("elements", "elements", cycles, " ".join(cycles)),
        ]
    rep = groups.conjugation_nilpotent(G, args.p)
    verdict = "NILPOTENT" if rep.nilpotent else "NOT NILPOTENT"
    return "ramify group conjnil", _params(args, "p", "gens"), verdict, [
        order,
        _row("chain dims", "chain_dims", list(rep.chain_dims),
             " > ".join(map(str, rep.chain_dims))),
        _row("stable dim", "stable_dim", rep.stable_dim),
    ]


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
    _add_common(sp, "p", "n", "N", "M", "smax")
    sp.add_argument("--seed", type=int, default=0, help="echoed in params; changes no work")
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
        return _emit(args.func(args), args)
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
