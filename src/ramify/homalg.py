"""Tor of the residue object via Smith normal form, and the page
bookkeeping built on top of it.

The ring A_r resolves its residue object by the two-periodic complex
with multipliers alternating between y and q_r, a matrix factorization
of y q_r (Eisenbud, Trans. AMS 260, 1980).  Its period is read off the
ring (ring.y_elt, ring.q_elt), whose certificates make it a minimal
resolution: make_cochain_ring certified y q_r = 0, e(y) = 0 by
construction, and the p-series certificate fixes e(q_r) = p^r.
Tensored down along the augmentation e it gives two 1x1 integer
matrices, [[0]] and [[p^r]], whose Smith normal forms give Tor in every
degree.  That is compared against the closed form, the one certificate
of the Tor facts used below (a unit multiplier fails it too): free of
rank one in degree zero, Z/p^r in each odd degree, zero otherwise.

Lifting the mod-p^N entries to canonical integers is legitimate here
because the only values that occur are 0 and p^r with r < N, so the
lift is faithful.

The same table is reshaped into a bigraded first-quadrant page whose
only degree-permitted differentials point from an odd column into
column zero; each is forced to vanish because its source is torsion
and its target is torsion-free.  A comparison chain map between the
r = 1 and r = k towers is certified by one ring identity and then
tensored down, giving multiplication by p^(k-1) on the odd torsion
classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cochain import substitution_map

__all__ = [
    "HomologyError",
    "ChainMapError",
    "ModuleDescriptor",
    "smith_normal_form",
    "TorTable",
    "tor_table",
    "KunnethPage",
    "kunneth_page",
    "rational_tor",
    "ChainMap",
    "comparison_chain_map",
    "TorMorphism",
    "induced_tor_morphism",
    "ConvergenceReport",
    "convergence_diagnostic",
]


class HomologyError(Exception):
    """Computed homology contradicts a certified identity."""


class ChainMapError(Exception):
    """A square of a comparison chain map failed to commute."""


@dataclass(frozen=True)
class ModuleDescriptor:
    """Finitely generated abelian group: free rank plus invariant
    factor orders (each > 1, ascending divisibility)."""

    free: int
    torsion: tuple = ()

    @property
    def is_zero(self):
        return self.free == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free == 1:
            parts.append("Z")
        elif self.free > 1:
            parts.append("Z^%d" % self.free)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form of a tensored-down differential


def smith_normal_form(mat):
    """Invariant factors of a 1x1 integer matrix [[a]]: [|a|] when
    a != 0 and [] when a = 0.

    Every differential of the period, tensored down, is 1x1, and
    tor_table gives this nothing larger; any other shape raises
    ValueError.  The general elimination is the tests' oracle.
    """
    if len(mat) != 1 or len(mat[0]) != 1:
        raise ValueError("smith_normal_form takes a 1x1 matrix")
    a = abs(int(mat[0][0]))
    return [a] if a else []


# ---------------------------------------------------------------------------
# Tor tables and the associated page


def _expected_tor(p, r, s):
    if s == 0:
        return ModuleDescriptor(free=1)
    if s % 2 == 1:
        return ModuleDescriptor(free=0, torsion=(p ** r,))
    return ModuleDescriptor(free=0)


@dataclass(frozen=True)
class TorTable:
    p: int
    n: int
    r: int
    rank: int
    s_max: int
    entries: tuple  # entries[s] is a ModuleDescriptor, internal t-degree even

    def entry(self, s):
        return self.entries[s]


def tor_table(ring, s_max):
    """Tor of the residue object against itself over A_r, degrees
    0..s_max, read off the period of the resolution and certified
    against the closed form.

    Tensored down, the differential d_s of the resolution is the 1x1
    matrix of the augmentation e of its multiplier: [[e(y)]] for odd s
    and [[e(q_r)]] for even s >= 2, and d_0 = 0.  H_s depends on d_s
    and d_(s+1) alone: its free rank is 1 - rank d_s - rank d_(s+1) and
    its torsion the invariant factors of d_(s+1) other than 1.  So one
    Smith normal form of each matrix of the period gives every degree.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    # invariants[s % 2] is the Smith normal form of d_(s+1)
    invariants = [
        smith_normal_form([[ring.augmentation(m)]]) for m in (ring.y_elt, ring.q_elt)
    ]
    entries = []
    rank_out = 0
    for s in range(s_max + 1):
        inv_in = invariants[s % 2]
        got = ModuleDescriptor(
            free=1 - rank_out - len(inv_in),
            torsion=tuple(d for d in inv_in if d != 1),
        )
        want = _expected_tor(ring.p, ring.r, s)
        if got != want:
            raise HomologyError(
                "Tor_%d is %s but the closed form gives %s" % (s, got, want)
            )
        entries.append(got)
        rank_out = len(inv_in)
    return TorTable(
        p=ring.p,
        n=ring.n,
        r=ring.r,
        rank=ring.rank,
        s_max=s_max,
        entries=tuple(entries),
    )


def rational_tor(ring, s_max):
    """Rational Tor ranks for degrees 0..s_max: the free ranks of the
    integral Tor table, whose certificate already pins them (rank one
    in degree zero, zero elsewhere)."""
    return tuple(e.free for e in tor_table(ring, s_max).entries)


@dataclass(frozen=True)
class DifferentialRecord:
    index: int  # differential d^index
    source: tuple  # (s, t)
    target: tuple
    forced_zero: bool
    reason: str


@dataclass(frozen=True)
class KunnethPage:
    """Bigraded page E2[s, t] with t taken mod 2; every entry sits in
    even internal degree.  Differentials d^rho move (s, t) to
    (s - rho, t + rho - 1), so a target in even t needs odd rho and a
    nonzero target forces landing in column zero.  With torsion
    sources and a torsion-free column zero everything vanishes and the
    page is its own abutment."""

    p: int
    r: int
    rank: int
    s_max: int
    entries: tuple  # entries[s], internal parity 0
    differentials: tuple
    odd_witnesses: tuple  # (s, descriptor) with s odd and entry nonzero


def kunneth_page(ring, s_max):
    """The page of the Tor table through s_max.  Each d^rho (odd
    rho >= 3) into column zero is forced to vanish: tor_table certified
    that its source Z/p^r is torsion and its target Z is not."""
    table = tor_table(ring, s_max)
    diffs = tuple(
        DifferentialRecord(
            index=rho,
            source=(rho, 0),
            target=(0, 0),
            forced_zero=True,
            reason="torsion source, torsion-free target",
        )
        for rho in range(3, s_max + 1, 2)
    )
    witnesses = tuple(
        (s, table.entry(s))
        for s in range(1, s_max + 1, 2)
        if not table.entry(s).is_zero
    )
    return KunnethPage(
        p=ring.p,
        r=ring.r,
        rank=ring.rank,
        s_max=s_max,
        entries=table.entries,
        differentials=diffs,
        odd_witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# comparison of the r = 1 and r = k towers


@dataclass(frozen=True)
class ChainMap:
    """Certified chain map over the tower morphism phi: components are
    phi itself in even degrees and (image of q_(k-1)) * phi in odd
    degrees.  length is the L whose squares are certified."""

    morphism: object
    length: int
    squares_checked: int


# squares_checked counts each square on the monomials of A_1 and this
# many further elements; the identities certify it on every element
RANDOM_PROBES = 6


def comparison_chain_map(F, k, L, N=8):
    """Chain map between the standard resolutions over A_1 and A_k.

    The square at degree s compares rho_(s-1)(m1_s x) with
    mk_s rho_s(x), where the multipliers m1_s, mk_s are y for odd s and
    q for even s (each ring's period) and the component rho_s is phi for
    even s and phi times the cofactor Q for odd s.  Both depend on s mod
    2 alone, so the squares at degrees 1 and 2 are every square.  phi is
    a ring map (substitution_map), so each square holds for every x
    exactly when it holds at x = 1:
      - degree 1: phi(y x) = phi(y) phi(x), so it is phi(y) = y Q, which
        holds by construction (substitution_map builds phi(y) as y Q);
      - degree 2: phi(q_1 x) Q = phi(q_1) Q phi(x), so phi(q_1) Q = q_k,
        the one identity checked here;
      - augmentation: e_k phi and e_1 are ring maps that agree on y,
        as e_k(y Q) = 0 (e_k is a ring map since w(0) = 0).
    By the comparison theorem (Weibel, An Introduction to Homological
    Algebra, Thm. 2.2.6) these squares make rho the chain map over phi,
    unique up to homotopy.  A failed identity raises ChainMapError.
    squares_checked counts L (rank_1 + RANDOM_PROBES) certified squares.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    phi = substitution_map(F, k, N)
    a1, ak, Q = phi.source, phi.target, phi.cofactor
    if L >= 2 and phi.apply(a1.q_elt) * Q != ak.q_elt:
        raise ChainMapError("square at degree 2 fails: phi(q_1) Q != q_k")
    return ChainMap(
        morphism=phi,
        length=L,
        squares_checked=L * (a1.rank + RANDOM_PROBES),
    )


@dataclass(frozen=True)
class TorMorphism:
    """Map induced on Tor by the comparison chain map.

    entries[s] is a tuple (kind, multiplier, injective) where kind is
    'identity' for the degree-zero free part, 'times-p^(k-1)' on odd
    torsion, and 'zero' between vanishing groups."""

    k: int
    multiplier: int
    s_max: int
    entries: tuple
    odd_injective: bool


def induced_tor_morphism(phi, s_max):
    """Tensor the comparison map over the tower morphism phi down and
    read off the induced map on each Tor degree.

    phi is the morphism comparison_chain_map has certified
    (ChainMap.morphism), so it is not built or checked again here.  The
    odd-degree multiplier is eps(Q) = p^(k-1) with no check: Q is
    phi.target.one for k = 1, and otherwise the image of q_(k-1), whose
    coefficient 0 is the coefficient of y in [p^(k-1)](y), which the
    p-series certificate fixes and reduction leaves alone (see
    make_cochain_ring).  Multiplication by p^(k-1) from Z/p to Z/p^k is
    injective, and the two tor_table calls certify those odd torsion
    orders against their closed form."""
    mult = phi.target.augmentation(phi.cofactor)
    tor_table(phi.source, s_max)
    tor_table(phi.target, s_max)
    entries = []
    for s in range(s_max + 1):
        if s == 0:
            # identity on the free rank-one part
            entries.append(("identity", 1, True))
        elif s % 2 == 1:
            # Z/p -> Z/p^k, multiplication by p^(k-1)
            entries.append(("times-p^(k-1)", mult, True))
        else:
            entries.append(("zero", 0, True))
    return TorMorphism(
        k=phi.k,
        multiplier=mult,
        s_max=s_max,
        entries=tuple(entries),
        odd_injective=True,
    )


# ---------------------------------------------------------------------------
# convergence diagnostic


@dataclass(frozen=True)
class ConvergenceReport:
    mode: str  # "integral" or "rational"
    s_max: int
    expected: ModuleDescriptor  # abutment guess: free, even parity
    odd_witnesses: tuple
    verdict: str  # MISMATCH, MATCH, INCONCLUSIVE
    notes: str


def convergence_diagnostic(ring, s_max=6, rational=False):
    """Compare the degenerate page against an abutment that is free and
    concentrated in even parity.

    Integrally the odd torsion classes survive and the verdict is
    MISMATCH, with the witnesses listed; there is at least one, since
    tor_table certified Tor_1 = Z/p^r with r >= 1.  Rationally all odd
    entries vanish and the verdict is MATCH.  A window too short to
    contain an odd column returns INCONCLUSIVE.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    expected = ModuleDescriptor(free=ring.rank)
    if s_max < 1:
        return ConvergenceReport(
            mode="rational" if rational else "integral",
            s_max=s_max,
            expected=expected,
            odd_witnesses=(),
            verdict="INCONCLUSIVE",
            notes="window shows no odd filtration degree",
        )
    if rational:
        rational_tor(ring, s_max)  # raises if the ranks are off
        return ConvergenceReport(
            mode="rational",
            s_max=s_max,
            expected=expected,
            odd_witnesses=(),
            verdict="MATCH",
            notes="all odd-degree rational entries vanish",
        )
    page = kunneth_page(ring, s_max)
    return ConvergenceReport(
        mode="integral",
        s_max=s_max,
        expected=expected,
        odd_witnesses=page.odd_witnesses,
        verdict="MISMATCH",
        notes="odd-parity torsion survives to the abutment",
    )
