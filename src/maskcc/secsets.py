"""The four pair sets that parameterize the secure backend constraints.

Every pair verdict is the base (conservative) classification of the xor of
the two expressions, read from the operands' fact records
(`Classifier.xor_base`). Copies share expressions, so pairs are really
relations between value classes, decided once per class pair here. One
expansion, `model.expand_security`, turns them into member relations: over
the visible temps and memory candidates for the analysis report, and over
every register temp (spill reloads included) and memory op for the model.

Membership rules, over register temps:

* rpairs: both members Random/Public, their xor classifies Secret. Unordered,
  no self pairs.
* spairs: keyed by Secret temps that an instruction writes (input temps are
  live on entry, never written, and nothing can precede them, so they are
  not keys); the hider set holds Random non-input temps whose xor with the
  key stays Random.
* mmpairs / mspairs: the rpairs and spairs verdicts over the words that
  memory operations put on the bus, that is over their data temps (source
  loads/stores plus every optional copy, which a solution may turn into a
  spill). Those temps are visible register temps, so their classes are
  among the classes judged for registers, and `model.expand_security`
  reads the memory relations from `class_rpairs` and `class_spairs`.

In every relation two members holding one temp never pair: a temp against
itself is the zero word (see `xor_class`).

Secret *input* temps get a separate guard relation: any temp whose xor with
the input classifies Secret must never immediately overwrite it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement

from .ir import SecurityClass
from .model import ElabProgram, expand_security
from .typeinf import TypeEnv

R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET


@dataclass(frozen=True)
class SecuritySets:
    tm: dict[int, int]  # memory candidate op -> data temp
    # class-level relations, expanded by `model.expand_security` over register
    # temps (rpairs, spairs, sec_input) and memory ops (mmpairs, mspairs)
    class_rpairs: frozenset[tuple[int, int]]
    class_spairs: dict[int, tuple[int, ...]]
    sec_input_bad: dict[int, tuple[int, ...]]
    # the expansion over the visible temps and memory candidates
    rpairs: frozenset[tuple[int, int]] = frozenset()  # unordered temp pairs (lo, hi)
    spairs: dict[int, tuple[int, ...]] = field(default_factory=dict)  # key -> hiders
    mmpairs: frozenset[tuple[int, int]] = frozenset()  # unordered op pairs (lo, hi)
    mspairs: dict[int, tuple[int, ...]] = field(default_factory=dict)  # op -> hiders

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
    return env.classifier.xor_base(env.expr(t1), env.expr(t2))


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

    The class-level relations are computed once; `model.expand_security`
    expands them over the visible register temps and the memory candidate
    ops, as it does over the whole model for the solver.
    """
    visible = [t for t in prog.visible_temps()
               if t not in prog.out_temps and prog.temps[t].kind == "reg"]
    tm = {o: prog.tm[o] for o in prog.mem_candidates}
    reps = sorted({prog.temps[t].rep for t in visible})
    relations = SecuritySets(
        tm=tm,
        class_rpairs=_class_pairs(env, reps),
        class_spairs=_class_hiders(env, reps),
        sec_input_bad={
            t.id: tuple(rb for rb in reps if _xor_base(env, rb, t.id) is S)
            for t, _cls in prog.inputs
            if env.cls(t.id) is S
        },
    )
    tables = expand_security(prog, relations, visible, prog.mem_candidates)
    return replace(
        relations,
        rpairs=frozenset(tables.rpairs),
        spairs={k: tuple(sorted(tables.spairs[k])) for k in sorted(tables.spairs)},
        mmpairs=tables.mmpairs,
        mspairs={k: tuple(sorted(tables.mspairs[k])) for k in sorted(tables.mspairs)},
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
