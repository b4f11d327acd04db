"""Torsion separation in outer automorphism groups of nilpotent groups.

A characteristic finite index subgroup P of a group N separates torsion
when the induced homomorphism Out(N) -> Out(N/P) kills no finite order
class.  For free abelian groups the third power subgroup works, by
Minkowski's classical congruence theorem.  For higher nilpotency class
this module runs an inductive construction over the upper central
series:

  * a "good enough" subgroup P0 takes care of every finite order outer
    class that stays visible in the centre or in the central quotient,
  * the remaining classes (the elusive ones) are enumerated exactly
    inside an integral module of homomorphisms into the centre, and
  * a descending chain of characteristic subgroups below P0 is walked
    until every elusive class survives in the finite quotient.

All decisions are exact integer computations, and every certificate
carries enough data to be re-verified from scratch.
"""

import json
import math

from .zmod import (
    AdaptedQuotient,
    HomModule,
    IntMatrix,
    Submodule,
    coset_representatives,
    isolator,
)
from .nilgroup import (
    GroupMap,
    PcPresentation,
    QuotientMap,
    Subgroup,
    center,
    identity_map,
    intersect_finite_index,
    is_inner,
    simultaneous_conjugator,
    upper_central_series,
    verbal_power_subgroup,
)


class BudgetExhausted(Exception):
    """A bounded search ran out of budget; carries partial progress."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# the module Hom*(N, Z(N)) of central maps vanishing on the centre


class HomStarSpace:
    """Ambient data for homomorphisms f: N -> Z(N) with Z(N) <= ker f.

    Such a map kills commutators (the target is abelian) and the centre,
    so it factors through the quotient of the abelianization by the
    image of the centre.  The space holds that covering module, the
    centre written as an abelian module, and Hom between the two, with
    exact coordinate transfers in both directions.
    """

    def __init__(self, p: PcPresentation):
        self.p = p
        series = upper_central_series(p)
        self.nu1 = series[1]
        self.nu2 = series[2] if len(series) > 2 else series[-1]
        rows = p.abelian_relation_rows() + [tuple(g) for g in self.nu1.gens]
        self.cover = AdaptedQuotient(p.n, rows)
        pres, to_sub, from_sub = self.nu1.presentation()
        self._c_to = to_sub
        self._c_from = from_sub
        self._cq = pres.abelianization()
        self.center_module = self._cq.module
        self.hom = HomModule(self.cover.module, self.center_module)
        self.central_quotient = QuotientMap(p, self.nu1, check_normal=False)

    def center_coords(self, x):
        """Coordinates of a central element in the centre's module."""
        return self._cq.coords(self._c_to(x))

    def center_element(self, coords):
        """The central group element with the given module coordinates."""
        return self._c_from(self._cq.lift(coords))

    def zero(self) -> "HomStar":
        return HomStar(self, self.hom.module.identity())

    def _assemble(self, crows) -> "HomStar":
        cmod = self.center_module
        mat = []
        for i in range(self.cover.module.rank):
            unit = tuple(1 if t == i else 0 for t in range(self.cover.module.rank))
            v = self.cover.lift(unit)
            row = [0] * cmod.rank
            for k, vk in enumerate(v):
                if vk:
                    row = [a + vk * b for a, b in zip(row, crows[k])]
            mat.append(cmod.normal_form(tuple(row)))
        coords = self.hom.coords(tuple(mat))
        # factorization check: reading the generator images back through
        # the covering module must reproduce them exactly
        for k in range(self.p.n):
            got = self.hom.apply(coords, self.cover.coords(self.p.gen(k)))
            if got != cmod.normal_form(crows[k]):
                raise ValueError("images do not factor through the covering module")
        return HomStar(self, coords)

    def phi(self, xi) -> "HomStar":
        """The map x -> [x, xi], for xi in the second centre term."""
        p = self.p
        xi = p.normal_form(xi)
        if not self.nu2.contains(xi):
            raise ValueError("phi needs an element of the second upper central term")
        crows = [
            self.center_coords(p.commutator(p.gen(k), xi)) for k in range(p.n)
        ]
        return self._assemble(crows)


def hom_star_space(p: PcPresentation) -> HomStarSpace:
    """The space of p, built once and kept on p itself, so that it is
    freed with p."""
    if p._hom_star_space is None:
        p._hom_star_space = HomStarSpace(p)
    return p._hom_star_space


class HomStar:
    """A homomorphism N -> Z(N) that vanishes on Z(N), stored by its
    coordinates in the homomorphism module of its space."""

    def __init__(self, space: HomStarSpace, coords):
        self.space = space
        self.parent = space.p
        self.coords = space.hom.module.normal_form(coords)

    def __repr__(self):
        return f"HomStar{self.coords}"

    def __eq__(self, other):
        return (
            isinstance(other, HomStar)
            and self.space is other.space
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def multiply(self, other: "HomStar") -> "HomStar":
        if self.space is not other.space:
            raise ValueError("operands live in different spaces")
        return HomStar(self.space, self.space.hom.module.multiply(self.coords, other.coords))

    def invert(self) -> "HomStar":
        return HomStar(self.space, self.space.hom.module.invert(self.coords))

    def power(self, k: int) -> "HomStar":
        return HomStar(self.space, self.space.hom.module.power(self.coords, k))

    def matrix(self):
        """Rows are images of the covering module generators, written in
        centre module coordinates."""
        return self.space.hom.matrix(self.coords)

    def evaluate(self, x):
        """Value at a group element, as a central group element."""
        a = self.space.cover.coords(self.parent.normal_form(x))
        return self.space.center_element(self.space.hom.apply(self.coords, a))


def psi(f: HomStar) -> GroupMap:
    """The automorphism x -> x f(x); psi(f) o psi(g) = psi(g + f)."""
    space = f.space
    p = space.p
    images = [
        p.multiply(p.gen(k), f.evaluate(p.gen(k))) for k in range(p.n)
    ]
    g = GroupMap(p, p, images, check=True)
    if not g.is_automorphism():
        raise ValueError("x -> x f(x) failed the automorphism check")
    return g


# ---------------------------------------------------------------------------
# outer automorphism classes and their two natural images


class OuterAutoClass:
    """Outer automorphism class of a pc group, held by a verified
    representative; two classes are equal when a composed with the
    inverse of b is inner."""

    def __init__(self, representative: GroupMap, check=True, coset=None,
                 outer_order=None, power_conjugator=None):
        if representative.domain is not representative.codomain:
            raise ValueError("representative must be an endomorphism")
        if check and not representative.is_automorphism():
            raise ValueError("representative is not an automorphism")
        self.representative = representative
        self.group = representative.domain
        self.coset = coset
        self.power_conjugator = power_conjugator
        self._outer_order = outer_order

    def __repr__(self):
        return f"OuterAutoClass(images={self.representative.images})"

    def is_trivial(self) -> bool:
        return is_inner(self.representative) is not None

    def same_class(self, other: "OuterAutoClass") -> bool:
        if self.group is not other.group:
            raise ValueError("classes live in different groups")
        q = self.representative.compose(other.representative.inverse())
        return is_inner(q) is not None

    def __eq__(self, other):
        return isinstance(other, OuterAutoClass) and self.same_class(other)

    __hash__ = None

    def outer_order(self, cap=64):
        """Smallest d >= 1 with the d-th power inner, None if not found
        within the cap."""
        if self._outer_order is not None:
            return self._outer_order
        power = identity_map(self.group)
        for d in range(1, cap + 1):
            power = self.representative.compose(power)
            if is_inner(power) is not None:
                self._outer_order = d
                return d
        return None


def restriction_r(a: OuterAutoClass) -> IntMatrix:
    """Matrix of the restriction of the class to the centre, rows being
    the images of the centre module generators.  Conjugation fixes the
    centre pointwise, so this depends only on the outer class."""
    space = hom_star_space(a.group)
    rank = space.center_module.rank
    rows = []
    for i in range(rank):
        unit = tuple(1 if t == i else 0 for t in range(rank))
        g = space.center_element(unit)
        rows.append(space.center_coords(a.representative.apply(g)))
    return IntMatrix(rows, cols=rank)


def projection_p(a: OuterAutoClass) -> OuterAutoClass:
    """The induced class on the quotient by the centre."""
    space = hom_star_space(a.group)
    qm = space.central_quotient
    images = [
        qm.project(a.representative.apply(qm.lift(qm.target.gen(k))))
        for k in range(qm.target.n)
    ]
    rep = GroupMap(qm.target, qm.target, images, check=True)
    return OuterAutoClass(rep, check=True)


# ---------------------------------------------------------------------------
# elusive classes: finite order outer classes invisible to both images


def elusive_elements(p: PcPresentation):
    """The complete list of outer classes that restrict trivially to the
    centre, project trivially to the central quotient, and have finite
    outer order.

    They are exactly the images under psi of the nonzero cosets of
    S = phi(second centre term) inside its isolator, so the enumeration
    walks those cosets, discards anything inner, and deduplicates the
    rest.  Every returned class is verified: non-inner, finite outer
    order with an inner power conjugator in the second centre term, and
    trivial on both natural images.
    """
    classes, _ = _elusive_with_audit(p)
    return classes


def _elusive_with_audit(p: PcPresentation):
    space = hom_star_space(p)
    mod = space.hom.module
    audit = {"cosets": 0, "collapsed_to_inner": 0, "collapsed_pairwise": 0}
    if mod.rank == 0:
        return [], audit
    s_sub = Submodule(mod, [space.phi(g).coords for g in space.nu2.gens])
    s_hat = isolator(s_sub)
    reps = coset_representatives(s_sub, s_hat)
    audit["cosets"] = len(reps)
    classes = []
    for rep in reps:
        if not any(rep):
            continue
        f = HomStar(space, rep)
        beta = psi(f)
        if is_inner(beta) is not None:
            audit["collapsed_to_inner"] += 1
            continue
        d = 1
        while not s_sub.contains(mod.power(rep, d)):
            d += 1
            if d > len(reps):
                raise RuntimeError("coset order exceeds the coset count")
        conj = is_inner(psi(f.power(d)))
        if conj is None:
            raise RuntimeError("a finite power of an elusive class is not inner")
        if not space.nu2.contains(conj):
            raise RuntimeError("power conjugator outside the second centre term")
        cls = OuterAutoClass(
            beta, check=True, coset=rep, outer_order=d, power_conjugator=conj
        )
        if restriction_r(cls) != IntMatrix.identity(space.center_module.rank):
            raise RuntimeError("elusive class moves the centre")
        if not projection_p(cls).representative.is_identity():
            raise RuntimeError("elusive class moves the central quotient")
        if any(seen.same_class(cls) for seen in classes):
            audit["collapsed_pairwise"] += 1
            continue
        classes.append(cls)
    return classes, audit


def elusive_records(classes):
    """The JSON record of each elusive class, as the elusive and
    separate-torsion reports carry it."""
    return [
        {
            "coset": list(c.coset),
            "outer_order": c.outer_order(),
            "representative_images": [list(v) for v in c.representative.images],
            "power_conjugator": list(c.power_conjugator),
        }
        for c in classes
    ]


# ---------------------------------------------------------------------------
# good enough subgroups


def good_enough_subgroup(qm: QuotientMap, h0: Subgroup, k0: Subgroup,
                         kmax=64, cap=10**6) -> Subgroup:
    """A characteristic finite index subgroup P0 of p = qm.source with P0
    meet h contained in h0 and with image of P0 in p/h contained in k0,
    h = qm.kernel.

    h must be characteristic in p with h0 of finite index in h; k0 is a
    finite index subgroup of qm.target.  The search scans the power
    subgroups p^k (characteristic for free) for increasing k and returns
    the first one passing both containment checks, each verified exactly:
    the image check by membership of generators, the intersection check
    by computing p^k meet h through Schreier generators.
    """
    p, h = qm.source, qm.kernel
    if h0.parent is not p:
        raise ValueError("h0 must be a subgroup of the source of qm")
    if k0.parent is not qm.target:
        raise ValueError("k0 must be a subgroup of the target of qm")
    if not h.contains_subgroup(h0):
        raise ValueError("h0 must be contained in h")
    for k in range(1, kmax + 1):
        v = verbal_power_subgroup(p, k, cap=cap)
        if not all(k0.contains(qm.project(g)) for g in v.gens):
            continue
        meet = intersect_finite_index(v, h, cap=cap)
        if not h0.contains_subgroup(meet):
            continue
        return v
    raise BudgetExhausted(
        f"no power subgroup with exponent <= {kmax} satisfies both containments"
    )


# ---------------------------------------------------------------------------
# survival of an outer class in a finite quotient


class SurvivalCheck:
    """Outcome of testing one outer class in one finite quotient; truthy
    exactly when the induced automorphism is non-inner there."""

    def __init__(self, survived, quotient_order, induced_images, conjugator):
        self.survived = survived
        self.quotient_order = quotient_order
        self.induced_images = induced_images
        self.conjugator = conjugator

    def __bool__(self):
        return self.survived

    def as_dict(self):
        return {
            "survived": self.survived,
            "quotient_order": self.quotient_order,
            "induced_images": [list(v) for v in self.induced_images],
            "inner_conjugator": None if self.conjugator is None else list(self.conjugator),
            "conjugators_checked": self.quotient_order,
        }


def survives(a: OuterAutoClass, qmap: QuotientMap, cap=10**6) -> SurvivalCheck:
    """Whether the class stays non-inner in the quotient Q = qmap.target.

    qmap.kernel must be of finite index and preserved by the
    representative (re-checked on generators).  The generators and their
    images under the representative are projected into Q's own pc
    presentation, and ``simultaneous_conjugator`` decides whether one
    element of Q conjugates the first tuple onto the second.  The
    projected generators generate Q, so the conjugators form one coset
    Z(Q) g; the logged one is its lexicographically least normal form,
    ``center(Q).reduce(g)``, the first one a scan over Q in order would
    meet.  |Q| is the product of the relative orders, so no element of Q
    is enumerated (IndexInfinite or CapExceeded as for a quotient
    table)."""
    p = a.group
    if qmap.source is not p:
        raise ValueError("quotient source mismatch")
    rep = a.representative
    p0 = qmap.kernel
    for g in p0.gens:
        if not p0.contains(rep.apply(g)):
            raise ValueError("subgroup is not preserved by the representative")
    order = qmap.order(cap)
    q = qmap.target
    gen_imgs = [qmap.project(p.gen(k)) for k in range(p.n)]
    induced = [qmap.project(rep.apply(p.gen(k))) for k in range(p.n)]
    conj = simultaneous_conjugator(q, gen_imgs, induced)
    if conj is not None:
        conj = qmap.lift(center(q).reduce(conj))
    return SurvivalCheck(conj is None, order, [qmap.lift(x) for x in induced], conj)


# ---------------------------------------------------------------------------
# the congruence certificate and the main search


class CongruenceCertificate:
    """A characteristic finite index subgroup together with the evidence
    that its congruence separates torsion in the outer automorphism
    group: the chain of subgroups tried, the elusive classes, and a
    survival log that can be replayed."""

    def __init__(self, group, subgroup, base_case, chain, elusive_data,
                 survival_log, complete=True):
        self.group = group
        self.subgroup = subgroup
        self.base_case = base_case
        self.chain = chain
        self.elusive_data = elusive_data
        self.survival_log = survival_log
        self.complete = complete

    def __repr__(self):
        return (
            f"CongruenceCertificate(index={self.subgroup.index_in_parent()}, "
            f"base_case={self.base_case}, elusive={len(self.elusive_data)}, "
            f"complete={self.complete})"
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "base_case": self.base_case,
                "complete": self.complete,
                "subgroup_generators": [list(g) for g in self.subgroup.gens],
                "subgroup_index": self.subgroup.index_in_parent(),
                "chain": self.chain,
                "elusive_classes": self.elusive_data,
                "survival_log": self.survival_log,
            },
            indent=2,
            sort_keys=True,
        )

    def verify(self) -> bool:
        """Re-run the logged checks; True on success, RuntimeError on
        any mismatch."""
        p = self.group
        sub = self.subgroup
        if not self.complete:
            raise RuntimeError("certificate is marked incomplete")
        sub.index_in_parent()
        if self.chain and sub != Subgroup(p, [tuple(g) for g in self.chain[-1]["generators"]]):
            raise RuntimeError("certificate subgroup is not the last subgroup of its chain")
        if not sub.is_normal():
            raise RuntimeError("certificate subgroup is not normal")
        if self.base_case:
            if sub != verbal_power_subgroup(p, 3):
                raise RuntimeError("base case subgroup is not the third powers")
            return True
        final = self.survival_log[-1]["classes"] if self.survival_log else []
        if len(final) != len(self.elusive_data):
            raise RuntimeError("final survival level does not list every elusive class")
        qmap = QuotientMap(p, sub, check_normal=False) if final else None
        for entry, logged in zip(self.elusive_data, final):
            images = [tuple(v) for v in entry["representative_images"]]
            cls = OuterAutoClass(GroupMap(p, p, images, check=True), check=True)
            if cls.is_trivial():
                raise RuntimeError("logged elusive class is inner")
            check = survives(cls, qmap)
            if not check.survived:
                raise RuntimeError("logged elusive class dies in the final quotient")
            if logged != dict(check.as_dict(), coset=entry["coset"]):
                raise RuntimeError("final survival level does not recompute")
        if self.survival_log:
            if sub.index_in_parent() != self.survival_log[-1]["quotient_order"]:
                raise RuntimeError("final quotient order disagrees with the log")
        return True


def separate_torsion(p: PcPresentation, max_levels=8, kmax=64,
                     cap=10**6) -> CongruenceCertificate:
    """A characteristic finite index subgroup whose congruence separates
    the torsion of the outer automorphism group, with certificate.

    Abelian groups return the third power subgroup (for free abelian
    groups Minkowski's theorem makes the mod 3 congruence kernel torsion
    free).  Otherwise the construction recurses on the centre and the
    central quotient, builds a good enough subgroup P0 from the two
    recursive answers, enumerates the elusive classes, and intersects P0
    with power subgroups of exponent 3 * lcm(1..j) for j = 1, 2, ...
    until every elusive class survives.  The budget is max_levels chain
    steps; exhaustion raises BudgetExhausted carrying the partial
    certificate."""
    if p.is_abelian():
        sub = verbal_power_subgroup(p, 3, cap=cap)
        chain = [
            {
                "name": "third powers",
                "exponent": 3,
                "generators": [list(g) for g in sub.gens],
                "index": sub.index_in_parent(),
            }
        ]
        return CongruenceCertificate(p, sub, True, chain, [], [])
    space = hom_star_space(p)
    nu1 = space.nu1
    cpres, _cto, cfrom = nu1.presentation()
    ccert = separate_torsion(cpres, max_levels=max_levels, kmax=kmax, cap=cap)
    n0 = Subgroup(p, [cfrom(g) for g in ccert.subgroup.gens])
    qm = space.central_quotient
    qcert = separate_torsion(qm.target, max_levels=max_levels, kmax=kmax, cap=cap)
    p0 = good_enough_subgroup(qm, n0, qcert.subgroup, kmax=kmax, cap=cap)
    chain = [
        {
            "name": "good enough",
            "exponent": None,
            "generators": [list(g) for g in p0.gens],
            "index": p0.index_in_parent(),
        }
    ]
    classes = _elusive_with_audit(p)[0]
    elusive_data = elusive_records(classes)
    survival_log = []
    current = p0
    if classes:
        done = False
        for level in range(max_levels + 1):
            if level == 0:
                cand, expo = p0, 1
            else:
                expo = 3 * math.lcm(*range(1, level + 1))
                cand = intersect_finite_index(
                    p0, verbal_power_subgroup(p, expo, cap=cap), cap=cap
                )
                chain.append(
                    {
                        "name": f"level {level}",
                        "exponent": expo,
                        "generators": [list(g) for g in cand.gens],
                        "index": cand.index_in_parent(),
                    }
                )
            qmap = QuotientMap(p, cand)
            outcomes = [survives(c, qmap, cap=cap) for c in classes]
            survival_log.append(
                {
                    "level": level,
                    "exponent": expo,
                    "quotient_order": outcomes[0].quotient_order,
                    "classes": [
                        dict(o.as_dict(), coset=list(c.coset))
                        for c, o in zip(classes, outcomes)
                    ],
                }
            )
            if all(outcomes):
                current = cand
                done = True
                break
        if not done:
            partial = CongruenceCertificate(
                p, cand, False, chain, elusive_data, survival_log, complete=False
            )
            raise BudgetExhausted(
                f"not every elusive class survived within {max_levels} chain levels",
                partial,
            )
    return CongruenceCertificate(
        p, current, False, chain, elusive_data, survival_log
    )
