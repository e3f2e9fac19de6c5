"""Inductive valuations on K[x]: depth-zero valuations and augmentations.

A valuation is an immutable chain of stages.  Stage 0 is a depth-zero
valuation w_(a,gamma) acting through (x-a)-expansions; each later stage
[mu; phi, gamma] acts through phi-expansions of the previous stage.  The
chain keeps MacLane-Vaquie shape: key degrees strictly increase, so a key
phi' of degree deg(mu), which is one with mu(phi') = gamma, collapses
onto the previous stage with mu's residual data.

Each stage carries exact graded-ring data:

* its relative ramification index e (of gamma over the previous group),
* its residue field kappa, a tower of finite extensions of Kv built from
  the irreducible residual polynomial chosen at each augmentation,
* a reduction map sending f to its residual polynomial H together with a
  monomial normalization (i0, w0), so that the initial form of f is
  s^i0 * U(w0) * H(y), where s is the initial form of the key, U is the
  canonical family of graded units built from the base field's
  multiplicative section and lower keys, and y = s^e * U(-e*gamma).

Because the canonical unit family is only multiplicative at the base,
products of units at higher stages pick up explicit correction scalars
("twists", powers of the residual generators); these are computed
recursively and are what keeps reduction multiplicative, hence residual
factorizations meaningful.

A fact an exploration step already holds is seeded, not recomputed:
``key_from_residual`` enters mu(key) = w0, the grade of its homogeneous
lift, in the stage's evaluation memo, and ``seed_expansion`` takes the
key-expansion of g that the engine built for the Newton polygon (the
engine also reads nu(g) at each child off that polygon's hull edges).  An
input of lower degree than the key is valued without a memo entry: by
the previous stage, or at depth zero, where it is a constant, by the
field's ``valuate``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import fpoly
from .errors import (ImperfectResidueUnsupported, InvariantViolated, NonMonicBase,
                     NotAKeyPolynomial, ValueNotIncreased, ZeroInput)
from .ffield import ExtField, Field, is_irreducible
from .fields import ValuedField
from .poly import Poly, phi_expansion
from .values import INFINITY, Q, Value, ValueGroup, is_inf, value_str, vadd, vmul


class GradedForm(NamedTuple):
    """Normalized initial form: s^i0 * U(w0) * H(y), of grade ``value``."""

    H: Optional[tuple]  # residual polynomial over kappa; None when value = oo
    i0: int
    w0: Optional[Q]
    value: Value


class InductiveValuation:
    __slots__ = ("K", "prev", "phi", "gamma", "center", "m", "e_rel",
                 "prev_group", "group", "kappa", "rbar", "fdeg", "zgen",
                 "depth", "_twist_cache", "_eval_cache", "_exp_cache")

    # -- construction ---------------------------------------------------------

    def __init__(self):
        raise TypeError("use depth_zero() or augment()")

    @staticmethod
    def _new(K: ValuedField, prev: Optional["InductiveValuation"], phi: Poly,
             gamma: Value) -> "InductiveValuation":
        """The stage [prev; phi, gamma], or a depth-zero stage when prev is
        None, with its previous group, value group and relative
        ramification index; the caller sets the center and residue data."""
        node = object.__new__(InductiveValuation)
        node._twist_cache = {}
        node._eval_cache = {}
        node._exp_cache = {}
        node.K = K
        node.prev = prev
        node.center = None
        node.phi = phi
        node.gamma = gamma
        node.m = phi.degree
        node.depth = 0 if prev is None else prev.depth + 1
        node.prev_group = K.value_group if prev is None else prev.group
        if is_inf(gamma):
            node.e_rel = 1
            node.group = node.prev_group
        else:
            node.e_rel = node.prev_group.ram_index(gamma)
            # gamma in the previous group (e = 1) leaves it as it is
            node.group = (node.prev_group if node.e_rel == 1
                          else node.prev_group.join([gamma]))
        return node

    @staticmethod
    def depth_zero(K: ValuedField, center, gamma: Value) -> "InductiveValuation":
        """The valuation min_k { v(a_k) + k*gamma } on (x-center)-expansions.

        gamma = INFINITY is allowed only as the terminal valuation of a
        degree-one extension (the chain then has support x - center).
        """
        node = InductiveValuation._new(K, None, Poly(K, (K.neg(center), K.one())), gamma)
        node.center = center
        node.kappa = K.residue_field
        node.rbar = None
        node.fdeg = 1
        node.zgen = None
        return node

    def augment(self, phi: Poly, gamma: Value, *, _rbar=None) -> "InductiveValuation":
        """The ordinary augmentation [self; phi, gamma].

        phi must be a key polynomial for self and gamma must exceed
        self(phi).  A monic phi of degree m = deg(self) is self.phi + a with
        deg a < m, so self(phi) = min(self(a), gamma): it is a key exactly
        when self(phi) = gamma, and the new stage [prev; phi, gamma] keeps
        self's residual data, since phi ~ self.phi over prev.  A key of
        higher degree passes MacLane's criterion (``_certify_key``).
        """
        K = self.K
        if self.is_terminal():
            raise NotAKeyPolynomial("cannot augment past an infinite value")
        if not phi.is_monic() or phi.degree < 1:
            raise NotAKeyPolynomial("key polynomials are monic of degree >= 1")
        if phi.degree % self.m != 0:
            raise NotAKeyPolynomial(
                f"deg {phi.degree} is not a multiple of deg(mu) = {self.m}")
        cur = self.evaluate(phi)
        if is_inf(cur) or (not is_inf(gamma) and gamma <= cur):
            raise ValueNotIncreased(
                f"gamma = {value_str(gamma)} must exceed mu(phi) = {value_str(cur)}")
        if phi.degree == self.m:
            if cur != self.gamma:
                raise NotAKeyPolynomial(
                    f"mu(phi) = {value_str(cur)} is not gamma = {value_str(self.gamma)}")
            if self.prev is None:
                return InductiveValuation.depth_zero(K, K.neg(phi[0]), gamma)
            node = InductiveValuation._new(K, self.prev, phi, gamma)
            node.rbar, node.fdeg = self.rbar, self.fdeg
            node.kappa, node.zgen = self.kappa, self.zgen
            return node
        node = InductiveValuation._new(K, self, phi, gamma)
        node.rbar = tuple(_rbar if _rbar is not None else self._certify_key(phi))
        node.fdeg = fpoly.deg(node.rbar)
        if node.fdeg > 1:
            node.kappa = ExtField(self.kappa, node.rbar, varname=f"z{node.depth}")
            node.zgen = node.kappa.gen()
        else:
            node.kappa = self.kappa
            node.zgen = self.kappa.neg(node.rbar[0])
        if node.kappa.is_zero(node.zgen):
            raise InvariantViolated("residual generator must be a unit")
        return node

    def _minimal_residual(self, phi: Poly, gr: GradedForm) -> tuple:
        """monic(H) of a key candidate whose graded reduction is ``gr``,
        after the minimality checks; its irreducibility is the caller's."""
        if is_inf(gr.value):
            raise NotAKeyPolynomial("candidate lies in the support")
        ntop = phi.degree // self.m
        H = gr.H
        if gr.i0 != 0 or fpoly.deg(H) * self.e_rel != ntop or \
                self.kappa.is_zero(H[0]):
            # min not attained at both ends of the expansion: either
            # equivalence-divisible by the current key or not minimal
            raise NotAKeyPolynomial("candidate is not nu-minimal for this valuation")
        return fpoly.monic(self.kappa, H)

    def _certify_key(self, phi: Poly) -> tuple:
        """Residual polynomial of a key candidate over self, after checks."""
        rbar = self._minimal_residual(phi, self.graded_reduction(phi))
        if fpoly.deg(rbar) == 1:
            return rbar
        if self.kappa.order is None:
            raise ImperfectResidueUnsupported(
                "residual factorization over an imperfect residue field")
        if not is_irreducible(self.kappa, rbar):
            raise NotAKeyPolynomial("residual polynomial is reducible")
        return rbar

    # -- chain structure -------------------------------------------------------

    def stages(self) -> List["InductiveValuation"]:
        out = []
        node = self
        while node is not None:
            out.append(node)
            node = node.prev
        out.reverse()
        return out

    @property
    def degree(self) -> int:
        """deg(mu): the degree of its key polynomial."""
        return self.m

    def is_terminal(self) -> bool:
        return is_inf(self.gamma)

    # -- evaluation -------------------------------------------------------------

    def expansion(self, f: Poly) -> List[Poly]:
        """Coefficients of the phi-expansion of f (constants at depth zero)."""
        if self.prev is None and f.degree == 0:
            return [f]
        hit = self._exp_cache.get(f.coeffs)
        if hit is not None:
            return hit
        if self.prev is None:
            out = [Poly.const(self.K, c) for c in f.taylor_coeffs(self.center)]
        else:
            out = list(phi_expansion(f, self.phi))
        self.seed_expansion(f, out)
        return out

    def seed_expansion(self, f: Poly, coeffs: List[Poly]) -> None:
        """Memoize the phi-expansion of f."""
        self._exp_cache[f.coeffs] = coeffs

    def _coeff_value(self, c: Poly) -> Value:
        if self.prev is None:
            return self.K.valuate(c[0]) if not c.is_zero() else INFINITY
        return self.prev.evaluate(c)

    def evaluate(self, f: Poly) -> Value:
        if f.is_zero():
            return INFINITY
        prev = self.prev
        if f.degree < self.m:
            # the phi-expansion of f is [f]; at depth zero f is a constant
            return prev.evaluate(f) if prev is not None else self.K.valuate(f[0])
        key = f.coeffs
        hit = self._eval_cache.get(key)
        if hit is not None:
            return hit
        if prev is not None and is_inf(self.gamma):
            # every term f_k phi^k with k >= 1 has value oo
            r = f.mod(self.phi)
            out = INFINITY if r.is_zero() else prev.evaluate(r)
        else:
            out = _expansion_min(self.expansion(f), self._coeff_value, self.gamma)
        self._eval_cache[key] = out
        return out

    __call__ = evaluate

    # -- graded units and twists -------------------------------------------------
    #
    # U_self(w), w in prev_group, is the canonical graded unit: at depth
    # zero it is the initial form of the base field's multiplicative
    # section; above, U_self(w) = s_prev^i * U_prev(w') for the unique
    # split w = i*gamma_prev + w' with 0 <= i < e_prev.  _twist(w, v)
    # returns the kappa-scalar U(w)U(v)/U(w+v).

    def _split(self, w: Q) -> Tuple[int, Q]:
        """w = i*gamma + w' with i in [0, e_rel) and w' in prev_group."""
        for i in range(self.e_rel):
            wp = w - vmul(i, self.gamma)
            if self.prev_group.contains(wp):
                return i, wp
        raise ArithmeticError(f"{w} not in the value group of the stage")

    def _embed(self, x):
        """kappa_prev -> kappa."""
        if self.fdeg > 1:
            return self.kappa.embed(x)
        return x

    def _twist(self, w: Q, v: Q):
        if self.prev is None:
            return self.kappa.one()
        key = (w, v) if w <= v else (v, w)
        hit = self._twist_cache.get(key)
        if hit is not None:
            return hit
        rho = self.prev
        iw, wp = rho._split(w)
        iv, vp = rho._split(v)
        is_, sp = rho._split(w + v)
        delta, rem = divmod(iw + iv - is_, rho.e_rel)
        if rem != 0 or delta not in (0, 1):
            raise InvariantViolated(f"twist carry {delta} (remainder {rem}) is not 0 or 1")
        tau = self._embed(rho._twist(wp, vp))
        if delta == 1:
            e_gamma = vmul(rho.e_rel, rho.gamma)
            kap = self.kappa
            tau = kap.mul(tau, self.zgen)
            tau = kap.mul(tau, kap.inv(self._embed(rho._twist(-e_gamma, e_gamma))))
            tau = kap.mul(tau, self._embed(rho._twist(e_gamma, wp + vp)))
        self._twist_cache[key] = tau
        return tau

    def _ymul(self, mpow: int):
        """Scalar relating s^(e*m) to y^m * U(m*e*gamma) in the reduction.

        It is 1 at depth zero, where every twist is 1, and callers skip it.
        """
        kap = self.kappa
        if mpow == 0:
            return kap.one()
        e_gamma = vmul(self.e_rel, self.gamma)
        neg = -e_gamma
        tau = kap.one()
        for j in range(1, mpow):
            tau = kap.mul(tau, self._twist(vmul(j, neg), neg))
        return kap.mul(tau, self._twist(vmul(mpow, neg), vmul(mpow, e_gamma)))

    # -- reduction and lifting ------------------------------------------------------

    def _coef(self, c: Poly):
        """(b, w) with in(c) = b * U(w), for 0 != c of degree < m."""
        if self.prev is None:
            # U(w) is the initial form of the canonical unit p^w or t^w
            return self.K.initial(c[0])
        gr = self.prev.graded_reduction(c)
        kap = self.kappa
        b = kap.zero()
        for h in reversed(gr.H):
            b = kap.add(kap.mul(b, self.zgen), self._embed(h))
        return b, gr.value

    def _uncoef(self, b, w: Q) -> Poly:
        """A polynomial of degree < m whose _coef is (b, w), above depth zero."""
        if self.fdeg > 1:
            coeffs = list(b)
        else:
            coeffs = [b]
        i1, w1 = self.prev._split(w)
        return self.prev._lift_homog(coeffs, i1, w1)

    def graded_reduction(self, f: Poly) -> GradedForm:
        """Normalized initial form of f at this stage."""
        kap = self.kappa
        if f.is_zero():
            return GradedForm(None, 0, None, INFINITY)
        if is_inf(self.gamma):
            c = f.mod(self.phi)
            if c.is_zero():
                return GradedForm(None, 0, None, INFINITY)
            b, w = self._coef(c)
            return GradedForm((b,) if not kap.is_zero(b) else (), 0, w, w)
        cc = self.expansion(f)
        data = []
        best: Optional[Value] = None
        for k, c in enumerate(cc):
            if c.is_zero():
                continue
            b, w = self._coef(c)
            grade = vadd(w, vmul(k, self.gamma)) if k else w
            data.append((k, b, w, grade))
            if best is None or grade < best:
                best = grade
        effective = [(k, b, w) for k, b, w, grade in data if grade == best]
        i0 = effective[0][0] % self.e_rel
        w0 = best - vmul(i0, self.gamma)
        H: Dict[int, object] = {}
        for k, b, w in effective:
            if (k - i0) % self.e_rel != 0:
                raise InvariantViolated(f"exponent {k} is not {i0} mod e = {self.e_rel}")
            mpow = (k - i0) // self.e_rel
            if self.prev is not None:  # twists and _ymul are 1 at depth zero
                b = kap.div(kap.mul(b, self._twist(w, vmul(mpow * self.e_rel, self.gamma))),
                            self._ymul(mpow))
            H[mpow] = b
        coeffs = [kap.zero()] * (max(H) + 1)
        for mpow, b in H.items():
            coeffs[mpow] = b
        return GradedForm(fpoly.norm(kap, coeffs), i0, w0, best)

    def _lift_homog(self, H: Sequence, i0: int, w0: Q) -> Poly:
        """Inverse of graded_reduction on homogeneous data."""
        K, kap = self.K, self.kappa
        if self.prev is None:
            # every twist is 1: lift(h) * U(w0 - k*gamma) is the coefficient
            # of (x - center)^k, k = i0 + mpow*e, and one Taylor shift by
            # -center gives the coefficients in x
            cc = [K.zero()] * (i0 + (len(H) - 1) * self.e_rel + 1)
            for mpow, h in enumerate(H):
                if not kap.is_zero(h):
                    k = i0 + mpow * self.e_rel
                    cc[k] = K.mul(K.lift(h), K.canonical_unit(w0 - vmul(k - i0, self.gamma)))
            return Poly(K, fpoly.taylor_shift(K, cc, K.neg(self.center)))
        out = Poly(K, ())
        for mpow, h in enumerate(H):
            if kap.is_zero(h):
                continue
            shift = vmul(mpow * self.e_rel, self.gamma)
            w_m = w0 - shift
            h = kap.div(kap.mul(h, self._ymul(mpow)), self._twist(w_m, shift))
            out = out + self._uncoef(h, w_m) * (self.phi ** (i0 + mpow * self.e_rel))
        return out

    def key_from_residual(self, rbar: tuple) -> Poly:
        """Monic key polynomial of degree e*deg(rbar)*m lifting the monic
        irreducible residual polynomial rbar.

        A linear rbar = y + r0 at a depth-zero stage with e = 1 lifts to
        x - a + lift(r0)*U(gamma), a the center: the homogeneous lift of
        ``_lift_homog`` with its unit coefficient U(0) = 1 at (x - a),
        built without a Taylor shift.  Every key has its value w0, the
        grade of its lift, entered in the evaluation memo."""
        if is_inf(self.gamma):
            raise NotAKeyPolynomial("no new keys above an infinite value")
        kap = self.kappa
        fR = fpoly.deg(rbar)
        w0 = vmul(fR * self.e_rel, self.gamma)
        if self.prev is None and fR == 1 and self.e_rel == 1:
            K = self.K
            c0 = K.neg(self.center)
            if not kap.is_zero(rbar[0]):
                c0 = K.add(K.mul(K.lift(rbar[0]), K.canonical_unit(w0)), c0)
            Q_ = Poly(K, (c0, K.one()))
        elif self.prev is None:  # _ymul is 1 at depth zero
            Q_ = self._lift_homog(rbar, 0, w0)
        else:
            lam = kap.inv(self._ymul(fR))
            Q_ = self._lift_homog([kap.mul(lam, c) for c in rbar], 0, w0)
        if Q_.degree != fR * self.e_rel * self.m or not Q_.is_monic():
            raise InvariantViolated(
                f"lifted key {Q_.to_str()} is not monic of degree {fR * self.e_rel * self.m}")
        # every term of the homogeneous lift has grade w0, so mu(Q_) = w0
        self._eval_cache[Q_.coeffs] = w0
        return Q_

    # -- residual data, public invariants ------------------------------------------

    def residual_polynomial(self, f: Poly) -> Tuple[Field, tuple]:
        """(kappa, residual polynomial of f over kappa)."""
        gr = self.graded_reduction(f)
        if is_inf(gr.value):
            raise ZeroInput("element lies in the support")
        return self.kappa, gr.H

    def residual_field(self) -> Tuple[Field, int]:
        """(kappa, [kappa : Kv])."""
        return self.kappa, self.inertia_degree()

    def value_group(self) -> ValueGroup:
        return self.group

    def ram_indices(self) -> List[int]:
        return [st.e_rel for st in self.stages() if not is_inf(st.gamma)]

    def inertia_indices(self) -> List[int]:
        return [st.fdeg for st in self.stages() if st.depth > 0]

    def ramification_index(self) -> int:
        """(group : vK), the product of the relative indices e_rel."""
        return self.group.index_over(self.K.value_group)

    def inertia_degree(self) -> int:
        out = 1
        for f in self.inertia_indices():
            out *= f
        return out

    # -- key polynomial tests ----------------------------------------------------

    def is_key(self, f: Poly, *, _gr: Optional[GradedForm] = None) -> bool:
        """MacLane's effective key test for this valuation: mu(f) = gamma
        for deg f = deg(mu) (see ``augment``).  Above it, a caller that
        holds f's graded reduction and has already proved its residual
        polynomial irreducible (the engine, from its step's factorization)
        passes it as ``_gr``: only the minimality checks then run.  At
        deg(mu), ``_gr.value`` is mu(f)."""
        if not f.is_monic() or f.degree < 1 or f.degree % self.m:
            return False
        if is_inf(self.gamma):
            return False
        if f.degree == self.m:
            return (self.evaluate(f) if _gr is None else _gr.value) == self.gamma
        try:
            if _gr is None:
                self._certify_key(f)
            else:
                self._minimal_residual(f, _gr)
        except NotAKeyPolynomial:
            return False
        return True

    def equiv(self, f: Poly, g: Poly) -> bool:
        """nu-equivalence: in(f) = in(g), i.e. nu(f-g) > nu(f) = nu(g)."""
        if f.is_zero() or g.is_zero():
            raise ZeroInput("equivalence is defined for nonzero polynomials")
        if f == g:
            return True
        vf, vg = self.evaluate(f), self.evaluate(g)
        if vf != vg:
            return False
        return self.evaluate(f - g) > vf


def truncation_eval(nu: Callable[[Poly], Value], q: Poly, f: Poly) -> Value:
    """nu_q(f) = min_k nu(f_k q^k) over the q-expansion of f.

    ``nu`` is any valuation oracle on polynomials (an InductiveValuation,
    an induced-valuation closure from the engine, ...).
    """
    if q.degree < 1:
        raise ZeroInput("truncation base must be nonconstant")
    if not q.is_monic():
        raise NonMonicBase("truncation base must be monic")
    if f.is_zero():
        return INFINITY
    vq = nu(q)
    if is_inf(vq):
        # every term f_k q^k with k >= 1 has value oo
        r = f.mod(q)
        return INFINITY if r.is_zero() else nu(r)
    return _expansion_min(phi_expansion(f, q), nu, vq)


def _expansion_min(cc: Sequence[Poly], value_of: Callable[[Poly], Value],
                   gamma: Value) -> Value:
    """min_k value_of(c_k) + k*gamma over the nonzero c_k (oo if none)."""
    best: Optional[Value] = None
    for k, c in enumerate(cc):
        if c.is_zero():
            continue
        v = value_of(c)
        if k:
            v = vadd(v, vmul(k, gamma))
        if best is None or v < best:
            best = v
    return INFINITY if best is None else best
