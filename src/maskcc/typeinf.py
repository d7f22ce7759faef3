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
  equal-valued temporaries. Plain support does not cancel, so each verdict
  is read from the two operands' cached support, unique-random and mask
  sets, and no xor node is built.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class Classifier:
    """Caches supp/unq/dom per expression object (exprs form a shared DAG).

    Each auxiliary function has a `cancel` flag: True selects the extended
    rules (xor-cancellation in supp), False the base rules (plain syntactic
    support). Caches are keyed by object identity; cached expressions are
    pinned so a recycled address can never alias a dead node.
    """

    def __init__(self) -> None:
        self._pin: dict[int, Expr] = {}
        self._supp: dict[tuple[int, bool], frozenset[int]] = {}
        self._unq: dict[tuple[int, bool], frozenset[int]] = {}
        self._dom: dict[tuple[int, bool], frozenset[int]] = {}
        self._xoronly: dict[int, bool] = {}
        self._leaves: dict[tuple[int, SecurityClass], frozenset[int]] = {}
        self._cls: dict[int, SecurityClass] = {}

    def _key(self, e: Expr) -> int:
        k = id(e)
        self._pin[k] = e
        return k

    # -- auxiliary functions -----------------------------------------------

    def xor_only(self, e: Expr) -> bool:
        """True iff every binary node in e is an exclusive or."""
        key = self._key(e)
        if key not in self._xoronly:
            if isinstance(e, (Var, Const)):
                r = True
            elif isinstance(e, Unary):
                r = self.xor_only(e.child)
            else:
                r = e.op == "xor" and self.xor_only(e.left) and self.xor_only(e.right)
            self._xoronly[key] = r
        return self._xoronly[key]

    def leaves(self, e: Expr, cls: SecurityClass) -> frozenset[int]:
        """Ids of the input leaves of class `cls` anywhere in e."""
        key = (self._key(e), cls)
        r = self._leaves.get(key)
        if r is None:
            if isinstance(e, Var):
                r = frozenset([e.id]) if e.cls is cls else frozenset()
            elif isinstance(e, Const):
                r = frozenset()
            elif isinstance(e, Unary):
                r = self.leaves(e.child, cls)
            else:
                r = self.leaves(e.left, cls) | self.leaves(e.right, cls)
            self._leaves[key] = r
        return r

    def supp(self, e: Expr, cancel: bool = True) -> frozenset[int]:
        """Input leaves feeding e; with `cancel`, after xor cancellation."""
        key = (self._key(e), cancel)
        r = self._supp.get(key)
        if r is not None:
            return r
        if isinstance(e, Var):
            r = frozenset([e.id])
        elif isinstance(e, Const):
            r = frozenset()
        elif isinstance(e, Unary):
            r = self.supp(e.child, cancel)
        elif cancel and e.op == "xor" and self.xor_only(e):
            # symmetric difference: shared leaves cancel pairwise
            r = self.supp(e.left) ^ self.supp(e.right)
        elif (
            cancel
            and e.op == "xor"
            and isinstance(e.right, Binary)
            and e.right.op == "xor"
            and e.right.left == e.left
        ):
            # nested cancellation: a ^ (a ^ b) keeps only b
            r = self.supp(e.right.right)
        else:
            r = self.supp(e.left, cancel) | self.supp(e.right, cancel)
        self._supp[key] = r
        return r

    def unq(self, e: Expr, cancel: bool = True) -> frozenset[int]:
        """Random leaves appearing exactly once (shared support removed)."""
        key = (self._key(e), cancel)
        r = self._unq.get(key)
        if r is not None:
            return r
        if isinstance(e, (Var, Const)):
            r = self.leaves(e, SecurityClass.RANDOM)
        elif isinstance(e, Unary):
            r = self.unq(e.child, cancel)
        else:
            r = (self.unq(e.left, cancel) | self.unq(e.right, cancel)) - (
                self.supp(e.left, cancel) & self.supp(e.right, cancel)
            )
        self._unq[key] = r
        return r

    def dom(self, e: Expr, cancel: bool = True) -> frozenset[int]:
        """Random leaves that still mask e (xor:ed in, used once)."""
        key = (self._key(e), cancel)
        r = self._dom.get(key)
        if r is not None:
            return r
        if isinstance(e, (Var, Const)):
            r = self.leaves(e, SecurityClass.RANDOM)
        elif isinstance(e, Unary):
            r = self.dom(e.child, cancel)
        elif e.op == "xor":
            r = (self.dom(e.left, cancel) | self.dom(e.right, cancel)) & self.unq(
                e, cancel
            )
        else:
            r = frozenset()
        self._dom[key] = r
        return r

    def xor_base(self, a: Expr, b: Expr) -> SecurityClass:
        """Base rules on a ^ b: uniform-random, else public without secret leaves.

        Plain support does not cancel, so the xor's masks follow from the
        operands' cached sets and no node is built for the pair: they are
        (dom a | dom b) & unq(a ^ b), where unq(a ^ b) is (unq a | unq b)
        minus the shared support, and dom lies within unq.
        """
        shared = self.supp(a, False) & self.supp(b, False)
        if (self.dom(a, False) | self.dom(b, False)) - shared:
            return SecurityClass.RANDOM
        S = SecurityClass.SECRET
        if not (self.leaves(a, S) or self.leaves(b, S)):
            return SecurityClass.PUBLIC
        return S

    # -- extended classification -------------------------------------------

    def classify(self, e: Expr, depth: int = 0) -> SecurityClass:
        key = self._key(e)
        if depth == 0 and key in self._cls:
            return self._cls[key]
        r = self._classify(e, depth)
        if depth == 0:
            self._cls[key] = r
        return r

    def _classify(self, e: Expr, depth: int) -> SecurityClass:
        R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET
        if self.dom(e):  # RAND
            return R
        if not (self.supp(e) & self.leaves(e, S)):  # PUB1 (dom is empty here)
            return P
        if not isinstance(e, Binary):
            return S
        a, b = e.left, e.right
        ca, cb = self.classify(a, depth), self.classify(b, depth)
        # PUB2: both public, disjoint support
        if ca is P and cb is P and not (self.supp(a) & self.supp(b)):
            return P
        if e.op not in ("xor", "gf_mul"):
            # PUB3: both random, one mask outside the other's support
            if ca is R and cb is R and (
                self.dom(a) - self.supp(b) or self.dom(b) - self.supp(a)
            ):
                return P
            # PUB7: public/random with disjoint support
            for x, cx, y, cy in ((a, ca, b, cb), (b, cb, a, ca)):
                if cx is P and cy is R and not (self.supp(x) & self.supp(y)):
                    return P
        if e.op == "gf_mul":
            # PUB4: both random, masks not identical
            if ca is R and cb is R and (
                self.dom(a) - self.dom(b) or self.dom(b) - self.dom(a)
            ):
                return P
            # PUB6: random times public with a surviving mask
            for x, cx, y, cy in ((a, ca, b, cb), (b, cb, a, ca)):
                if cx is R and cy is P and (self.dom(x) - self.supp(y)):
                    return P
        # PUB5: random operand whose mask/support mirror the other side
        for x, cx, y in ((a, ca, b), (b, cb, a)):
            if (
                cx is R
                and not (self.dom(x) - self.supp(y))
                and self.dom(x) == self.dom(y)
                and self.supp(x) == self.supp(y)
            ):
                return P
        if e.op == "xor":
            # PUB9: both public, no shared random leaf
            if ca is P and cb is P:
                rand_ids = self.leaves(a, R) | self.leaves(b, R)
                if not (self.supp(a) & self.supp(b) & rand_ids):
                    return P
            # PUB8: one side is the product of the other with a third factor
            # that shares no leaf with it; (y * o) ^ y = y * (o ^ 1)
            for x, y, cy in ((a, b, cb), (b, a, ca)):
                if isinstance(x, Binary) and x.op == "gf_mul":
                    other = None
                    if x.left == y:
                        other = x.right
                    elif x.right == y:
                        other = x.left
                    if (
                        other is not None
                        and cy is not S
                        and not (self.supp(other) & self.supp(y))
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

