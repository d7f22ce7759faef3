"""The four pair sets that parameterize the secure backend constraints.

All pair classification runs the base (conservative) inference on the xor of
the two expressions. Copies share expressions, so pairs are really relations
between value classes; the visible sets are the expansion over the temps an
analysis report shows, and the class-level relations drive the constraint
expansion over every register-allocatable member (including spill reloads).

Membership rules, over register temps:

* rpairs: both members Random/Public, their xor classifies Secret. Unordered,
  no self pairs.
* spairs: keyed by Secret temps that an instruction writes (input temps are
  live on entry, never written, and nothing can precede them, so they are
  not keys); the hider set holds Random non-input temps whose xor with the
  key stays Random.
* mmpairs / mspairs: the same relations over the data temps of potential
  memory operations (source loads/stores plus every optional copy, which a
  solution may turn into a spill).

Secret *input* temps get a separate guard relation: any temp whose xor with
the input classifies Secret must never immediately overwrite it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .ir import SecurityClass
from .model import ElabProgram
from .typeinf import Binary, TypeEnv

R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET


@dataclass(frozen=True)
class SecuritySets:
    rpairs: frozenset[tuple[int, int]]  # unordered visible temp pairs (lo, hi)
    spairs: dict[int, tuple[int, ...]]  # secret temp -> hider temps
    mmpairs: frozenset[tuple[int, int]]  # unordered memory candidate op pairs
    mspairs: dict[int, tuple[int, ...]]  # secret-data op -> hider ops
    tm: dict[int, int]  # memory candidate op -> data temp
    # class-level relations driving model expansion
    class_rpairs: frozenset[tuple[int, int]]
    class_spairs: dict[int, tuple[int, ...]]
    class_mmpairs: frozenset[tuple[int, int]]
    class_mspairs: dict[int, tuple[int, ...]]
    sec_input_bad: dict[int, tuple[int, ...]]

    def is_empty(self) -> bool:
        return not (self.rpairs or self.spairs or self.mmpairs or self.mspairs)


def xor_class(env: TypeEnv, t1: int, t2: int) -> SecurityClass:
    """Class of the register transition between two temps (base rules).

    A temp against itself is the zero word: Public.
    """
    return P if t1 == t2 else _xor_base(env, t1, t2)


def _xor_base(env: TypeEnv, t1: int, t2: int) -> SecurityClass:
    """Base class of the xor of two temps' expressions.

    With t1 == t2 this is the xor of two distinct equal-valued temps (a value
    and its copy), which the base rules judge conservatively.
    """
    return env.classifier.classify_base(Binary("xor", env.expr(t1), env.expr(t2)))


def _class_pairs(env: TypeEnv, reps: list[int]) -> frozenset[tuple[int, int]]:
    """Random/Public class pairs whose xor is Secret; (r, r) for equal values."""
    rp = [r for r in reps if env.cls(r) in (R, P)]
    return frozenset(
        (ra, rb)
        for ra, rb in combinations_with_replacement(rp, 2)
        if _xor_base(env, ra, rb) is S
    )


def _class_hiders(env: TypeEnv, reps: list[int]) -> dict[int, tuple[int, ...]]:
    """Secret class -> the Random classes whose xor with it stays Random."""
    rand = [r for r in reps if env.cls(r) is R]
    return {
        ra: tuple(rb for rb in rand if _xor_base(env, rb, ra) is R)
        for ra in reps
        if env.cls(ra) is S
    }


def compute_sets(prog: ElabProgram, env: TypeEnv) -> SecuritySets:
    """All security relations for an elaborated program.

    The class-level relations are computed once; the visible sets expand
    them over the temps (and memory candidate ops) of each class. Members
    of one class share one expression object, so they share every verdict.
    """
    visible = [
        t
        for t in prog.visible_temps()
        if t not in prog.out_temps and prog.temps[t].kind == "reg"
    ]
    inputs = {t.id for t, _ in prog.inputs}
    memops = sorted(prog.mem_candidates)
    tm = {o: prog.tm[o] for o in prog.mem_candidates}
    rep = {t: prog.temps[t].rep for t in prog.temps}
    reps = sorted({rep[t] for t in visible})
    mem_reps = sorted({rep[tm[o]] for o in memops})

    class_rpairs = _class_pairs(env, reps)
    class_spairs = _class_hiders(env, reps)
    class_mmpairs = _class_pairs(env, mem_reps)
    class_mspairs = _class_hiders(env, mem_reps)
    sec_input_bad = {
        t: tuple(rb for rb in reps if _xor_base(env, rb, t) is S)
        for t in sorted(inputs)
        if env.cls(t) is S
    }

    def class_pair(a: int, b: int) -> tuple[int, int]:
        return (rep[a], rep[b]) if rep[a] <= rep[b] else (rep[b], rep[a])

    # input temps are live on entry and never written: no spairs keys or hiders
    written = [t for t in visible if t not in inputs]
    hider_classes = {k: set(hs) for k, hs in class_spairs.items()}
    mem_hider_classes = {k: set(hs) for k, hs in class_mspairs.items()}
    return SecuritySets(
        rpairs=frozenset(
            (t1, t2)
            for t1, t2 in combinations(visible, 2)
            if class_pair(t1, t2) in class_rpairs
        ),
        spairs={
            ts: tuple(t for t in written if rep[t] in hider_classes[rep[ts]])
            for ts in written
            if rep[ts] in hider_classes
        },
        # two operations storing one temp put the same word on the bus
        mmpairs=frozenset(
            (o1, o2)
            for o1, o2 in combinations(memops, 2)
            if tm[o1] != tm[o2] and class_pair(tm[o1], tm[o2]) in class_mmpairs
        ),
        mspairs={
            o: tuple(o2 for o2 in memops if rep[tm[o2]] in mem_hider_classes[rep[tm[o]]])
            for o in memops
            if rep[tm[o]] in mem_hider_classes
        },
        tm=tm,
        class_rpairs=class_rpairs,
        class_spairs=class_spairs,
        class_mmpairs=class_mmpairs,
        class_mspairs=class_mspairs,
        sec_input_bad=sec_input_bad,
    )


def sets_to_dict(sets: SecuritySets) -> dict:
    return {
        "rpairs": [[f"t{a}", f"t{b}"] for a, b in sorted(sets.rpairs)],
        "spairs": {
            f"t{k}": [f"t{h}" for h in hs] for k, hs in sorted(sets.spairs.items())
        },
        "mmpairs": [[f"o{a}", f"o{b}"] for a, b in sorted(sets.mmpairs)],
        "mspairs": {
            f"o{k}": [f"o{h}" for h in hs] for k, hs in sorted(sets.mspairs.items())
        },
        "tm": {f"o{o}": f"t{t}" for o, t in sorted(sets.tm.items())},
    }
