"""Security-class inference for straight-line source programs.

Every source temporary gets an expression over input leaves, and a class
(the backend's copies, spills and reloads inherit them through
`model.elab_types`):

  Random  -- uniformly distributed for every fixed secret/public assignment
  Public  -- distribution independent of the secrets
  Secret  -- everything we cannot prove to be one of the above

Two rule sets coexist:

* the extended classifier (`Classifier.classify`) applies the cancellation-
  aware support plus the structural PUB/NEST/DISTR rules; it is used for
  per-temp typing, and NEST/DISTR act as rewrite-then-reclassify steps with
  a fixed depth bound;
* the base rules (`Classifier.xor_base`) use plain syntactic support with
  only the uniform-random and no-secret rules. They judge the xor of two
  temps' expressions, one verdict per pair in the pair sets fed to the
  secure backend, and are deliberately more conservative on xors of
  equal-valued temporaries.

The work is linear in the expression DAG. Each node gets one `Facts`
record, built once from its children's: the support, unique-random and
mask sets under both rule sets and the random and secret leaves, as int bit
sets over leaf ids. Every rule reads bit operations on records. Plain
support does not cancel, so a base verdict is read from the two operands'
records and no xor node is built. A class is memoized per (node, rewrite
depth), so the rewrites never classify one operand twice at one depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .ir import Literal, Program, SecurityClass

REWRITE_DEPTH = 3

@dataclass(frozen=True)
class Var:
    """Input leaf. Carries its own security class so exprs are self-contained."""

    id: int
    cls: SecurityClass

    def __str__(self) -> str:
        return f"t{self.id}"


@dataclass(frozen=True)
class Const:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Expr"

    def __str__(self) -> str:
        return f"{self.op}({self.child})"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Expr = Var | Const | Unary | Binary


class Facts(NamedTuple):
    """What the rules read of one expression node, as int bit sets over `Var.id`.

    `supp`/`unq`/`dom` follow the extended rules (xor cancellation), the
    `base_` fields the base rules (plain syntactic support, so `base_supp`
    holds every input leaf of the node). `rand` and `sec` are the Random and
    Secret input leaves.
    """

    xor_only: bool
    supp: int
    unq: int
    dom: int
    base_supp: int
    base_unq: int
    base_dom: int
    rand: int
    sec: int


_CONST_FACTS = Facts(True, 0, 0, 0, 0, 0, 0, 0, 0)


def _ids(bits: int) -> frozenset[int]:
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


class Classifier:
    """One `Facts` record per expression node, and a (node, depth) class memo.

    Expressions form a shared DAG. Each node's record is built once, bottom
    up from its children's records, and every rule reads bit operations on
    records. `classify(e, depth)` depends only on e and depth, so it is
    computed once per pair, also inside the NEST/DISTR rewrites: the front
    end does work linear in the nodes, rewrite-built ones included. Both
    caches are keyed by object identity; a node is pinned when its record is
    inserted, so a recycled address can never alias a dead node.
    """

    def __init__(self) -> None:
        self._pin: dict[int, Expr] = {}
        self._facts: dict[int, Facts] = {}
        self._cls: dict[tuple[int, int], SecurityClass] = {}

    def facts(self, e: Expr) -> Facts:
        """The record of e, built on first use."""
        k = id(e)
        f = self._facts.get(k)
        if f is None:
            f = self._facts[k] = self._build(e)
            self._pin[k] = e
        return f

    def _build(self, e: Expr) -> Facts:
        if isinstance(e, Var):
            bit = 1 << e.id
            rand = bit if e.cls is SecurityClass.RANDOM else 0
            sec = bit if e.cls is SecurityClass.SECRET else 0
            return Facts(True, bit, rand, rand, bit, rand, rand, rand, sec)
        if isinstance(e, Const):
            return _CONST_FACTS
        if isinstance(e, Unary):
            return self.facts(e.child)
        a, b = self.facts(e.left), self.facts(e.right)
        xor = e.op == "xor"
        xor_only = xor and a.xor_only and b.xor_only
        if xor_only:
            # symmetric difference: shared leaves cancel pairwise
            supp = a.supp ^ b.supp
        elif (
            xor
            and isinstance(e.right, Binary)
            and e.right.op == "xor"
            and e.right.left == e.left
        ):
            # nested cancellation: a ^ (a ^ b) keeps only b
            supp = self.facts(e.right.right).supp
        else:
            supp = a.supp | b.supp
        # unique randoms: shared support removed; masks: xor:ed in, used once
        unq = (a.unq | b.unq) & ~(a.supp & b.supp)
        base_unq = (a.base_unq | b.base_unq) & ~(a.base_supp & b.base_supp)
        return Facts(
            xor_only,
            supp,
            unq,
            (a.dom | b.dom) & unq if xor else 0,
            a.base_supp | b.base_supp,
            base_unq,
            (a.base_dom | b.base_dom) & base_unq if xor else 0,
            a.rand | b.rand,
            a.sec | b.sec,
        )

    # -- auxiliary functions, as sets --------------------------------------

    def xor_only(self, e: Expr) -> bool:
        """True iff every binary node in e is an exclusive or."""
        return self.facts(e).xor_only

    def leaves(self, e: Expr, cls: SecurityClass) -> frozenset[int]:
        """Ids of the input leaves of class `cls` anywhere in e."""
        f = self.facts(e)
        if cls is SecurityClass.RANDOM:
            return _ids(f.rand)
        if cls is SecurityClass.SECRET:
            return _ids(f.sec)
        return _ids(f.base_supp & ~(f.rand | f.sec))

    def supp(self, e: Expr, cancel: bool = True) -> frozenset[int]:
        """Input leaves feeding e; with `cancel`, after xor cancellation."""
        f = self.facts(e)
        return _ids(f.supp if cancel else f.base_supp)

    def unq(self, e: Expr, cancel: bool = True) -> frozenset[int]:
        """Random leaves appearing exactly once (shared support removed)."""
        f = self.facts(e)
        return _ids(f.unq if cancel else f.base_unq)

    def dom(self, e: Expr, cancel: bool = True) -> frozenset[int]:
        """Random leaves that still mask e (xor:ed in, used once)."""
        f = self.facts(e)
        return _ids(f.dom if cancel else f.base_dom)

    def xor_base(self, a: Expr, b: Expr) -> SecurityClass:
        """Base rules on a ^ b: uniform-random, else public without secret leaves.

        Plain support does not cancel, so the xor's masks follow from the
        operands' records and no node is built for the pair: they are
        (dom a | dom b) & unq(a ^ b), where unq(a ^ b) is (unq a | unq b)
        minus the shared support, and dom lies within unq.
        """
        fa, fb = self.facts(a), self.facts(b)
        if (fa.base_dom | fb.base_dom) & ~(fa.base_supp & fb.base_supp):
            return SecurityClass.RANDOM
        if fa.sec | fb.sec:
            return SecurityClass.SECRET
        return SecurityClass.PUBLIC

    # -- extended classification -------------------------------------------

    def classify(self, e: Expr, depth: int = 0) -> SecurityClass:
        key = (id(e), depth)
        r = self._cls.get(key)
        if r is None:
            # _classify reads the record of e first, which pins e
            r = self._cls[key] = self._classify(e, depth)
        return r

    def _classify(self, e: Expr, depth: int) -> SecurityClass:
        R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET
        f = self.facts(e)
        if f.dom:  # RAND
            return R
        if not (f.supp & f.sec):  # PUB1 (dom is empty here)
            return P
        if not isinstance(e, Binary):
            return S
        a, b = e.left, e.right
        fa, fb = self.facts(a), self.facts(b)
        ca, cb = self.classify(a, depth), self.classify(b, depth)
        # PUB2: both public, disjoint support
        if ca is P and cb is P and not (fa.supp & fb.supp):
            return P
        if e.op not in ("xor", "gf_mul"):
            # PUB3: both random, one mask outside the other's support
            if ca is R and cb is R and (fa.dom & ~fb.supp or fb.dom & ~fa.supp):
                return P
            # PUB7: public/random with disjoint support
            for fx, cx, fy, cy in ((fa, ca, fb, cb), (fb, cb, fa, ca)):
                if cx is P and cy is R and not (fx.supp & fy.supp):
                    return P
        if e.op == "gf_mul":
            # PUB4: both random, masks not identical
            if ca is R and cb is R and fa.dom != fb.dom:
                return P
            # PUB6: random times public with a surviving mask
            for fx, cx, fy, cy in ((fa, ca, fb, cb), (fb, cb, fa, ca)):
                if cx is R and cy is P and fx.dom & ~fy.supp:
                    return P
        # PUB5: random operand whose mask/support mirror the other side
        for fx, cx, fy in ((fa, ca, fb), (fb, cb, fa)):
            if (
                cx is R
                and not (fx.dom & ~fy.supp)
                and fx.dom == fy.dom
                and fx.supp == fy.supp
            ):
                return P
        if e.op == "xor":
            # PUB9: both public, no shared random leaf
            if ca is P and cb is P and not (fa.supp & fb.supp & (fa.rand | fb.rand)):
                return P
            # PUB8: one side is the product of the other with a third factor
            # that shares no leaf with it; (y * o) ^ y = y * (o ^ 1)
            for x, y, fy, cy in ((a, b, fb, cb), (b, a, fa, ca)):
                if isinstance(x, Binary) and x.op == "gf_mul":
                    other = None
                    if x.left == y:
                        other = x.right
                    elif x.right == y:
                        other = x.left
                    if (
                        other is not None
                        and cy is not S
                        and not (self.facts(other).supp & fy.supp)
                        and self.classify(other, depth) is not S
                    ):
                        return P
            if depth < REWRITE_DEPTH:
                res = self._rewrite_rules(e, a, b, depth)
                if res is not None:
                    return res
        return S

    def _rewrite_rules(self, e: Binary, a: Expr, b: Expr, depth: int) -> SecurityClass | None:
        # NEST1: y ^ (y ^ t2)  ->  t2
        for x, y in ((a, b), (b, a)):
            if isinstance(x, Binary) and x.op == "xor":
                if x.left == y:
                    return self.classify(x.right, depth + 1)
                if x.right == y:
                    return self.classify(x.left, depth + 1)
        # NEST2: y ^ (y | t2)  ->  ~y & t2
        for x, y in ((a, b), (b, a)):
            if isinstance(x, Binary) and x.op == "or":
                for t2 in self._partner(x, y):
                    return self.classify(Binary("and", Unary("not", y), t2), depth + 1)
        # NEST3: y ^ (y & t2)  ->  y & ~t2
        for x, y in ((a, b), (b, a)):
            if isinstance(x, Binary) and x.op == "and":
                for t2 in self._partner(x, y):
                    return self.classify(Binary("and", y, Unary("not", t2)), depth + 1)
        # DISTR0-3: (t0*t1) ^ (t?*t?) with a shared factor -> factored form
        if isinstance(a, Binary) and isinstance(b, Binary) and a.op == b.op == "gf_mul":
            t0, t1 = a.left, a.right
            if b.left == t0:  # (t0*t1) ^ (t0*t2)
                return self.classify(
                    Binary("gf_mul", t0, Binary("xor", t1, b.right)), depth + 1
                )
            if b.right == t0:  # (t0*t1) ^ (t2*t0)
                return self.classify(
                    Binary("gf_mul", t0, Binary("xor", t1, b.left)), depth + 1
                )
            if b.left == t1:  # (t0*t1) ^ (t1*t2)
                return self.classify(
                    Binary("gf_mul", t1, Binary("xor", t0, b.right)), depth + 1
                )
            if b.right == t1:  # (t0*t1) ^ (t2*t1)
                return self.classify(
                    Binary("gf_mul", t1, Binary("xor", t0, b.left)), depth + 1
                )
        return None

    @staticmethod
    def _partner(x: Binary, y: Expr):
        if x.left == y:
            yield x.right
        elif x.right == y:
            yield x.left


@dataclass
class TypeEnv:
    """Total map from temp id to class and expression."""

    classes: dict[int, SecurityClass]
    exprs: dict[int, Expr]
    classifier: Classifier

    def cls(self, t: int) -> SecurityClass:
        return self.classes[t]

    def expr(self, t: int) -> Expr:
        return self.exprs[t]


def build_exprs(p: Program) -> dict[int, Expr]:
    """Forward-substitute every temp of a source program to an expression.

    A load takes the expression last stored at the same address key (literal
    value, or address temp), defaulting to the constant initial memory
    content.
    """
    exprs: dict[int, Expr] = {}
    for t, cls in p.inputs:
        exprs[t.id] = Var(t.id, cls)
    memory: dict[object, Expr] = {}

    def operand_expr(u) -> Expr:
        if isinstance(u, Literal):
            return Const(u.value)
        return exprs[u.id]

    def addr_key(u) -> object:
        if isinstance(u, Literal):
            return ("lit", u.value)
        return ("tmp", u.id)

    for op in p.body:
        if op.opcode == "store":
            memory[addr_key(op.uses[0])] = operand_expr(op.uses[1])
        elif op.opcode == "load":
            exprs[op.defs.id] = memory.get(addr_key(op.uses[0]), Const(0))
        elif op.opcode == "not":
            exprs[op.defs.id] = Unary("not", operand_expr(op.uses[0]))
        else:
            exprs[op.defs.id] = Binary(
                op.opcode, operand_expr(op.uses[0]), operand_expr(op.uses[1])
            )
    return exprs


def infer_types(p: Program) -> TypeEnv:
    """Classify every temp of a source program."""
    cl = Classifier()
    exprs = build_exprs(p)
    classes = {t: cl.classify(e) for t, e in exprs.items()}
    return TypeEnv(classes, exprs, cl)

