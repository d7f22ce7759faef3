"""Security-set computation, fixed against the worked running example."""

from pathlib import Path

import pytest

from conftest import FIXTURE_SOURCES, fixture_program
from maskcc import typeinf
from maskcc.cli import front_end
from maskcc.ir import SecurityClass, parse_program
from maskcc.model import elab_types, elaborate
from maskcc.secsets import compute_sets, xor_class
from maskcc.target import PRESETS
from test_cli import chain_source

KERNELS = Path(__file__).resolve().parents[1] / "kernels"

R, P, S = SecurityClass.RANDOM, SecurityClass.PUBLIC, SecurityClass.SECRET

GOLDEN_RPAIRS = frozenset(
    {
        (1, 6), (1, 7), (1, 8), (1, 9),
        (4, 6), (4, 7), (4, 8), (4, 9),
        (6, 7), (6, 8), (6, 9),
        (7, 8), (7, 9),
        (8, 9),
    }
)


@pytest.fixture(scope="module")
def xor_env():
    elab = elaborate(fixture_program("xor_p0"), "full")
    return elab, elab_types(elab)


def test_xor_class_examples(xor_env):
    _, env = xor_env
    # t1 = mask, t6 = mask^key, t2/t5 = key
    assert xor_class(env, 1, 6) is S  # cancels to the key
    assert xor_class(env, 2, 6) is R  # cancels to the mask
    assert xor_class(env, 6, 6) is P  # a temp against itself is zero


def test_rpairs_running_example(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    assert sets.rpairs == GOLDEN_RPAIRS
    assert len(sets.rpairs) == 14


def test_spairs_running_example(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    assert sets.spairs == {5: (4, 6, 7, 8, 9)}


def test_mmpairs_running_example(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    assert sets.mmpairs == frozenset({(3, 6), (3, 8), (6, 8)})


def test_mspairs_running_example(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    assert sets.mspairs == {4: (3, 6, 8)}
    assert sets.tm[4] == 5 and sets.tm[3] == 4


def test_all_public_program_has_empty_sets():
    elab = elaborate(fixture_program("allpub"), "full")
    sets = compute_sets(elab, elab_types(elab))
    assert sets.is_empty()


def _sets_of(src: str):
    elab = elaborate(parse_program(src), "none")
    return elab, compute_sets(elab, elab_types(elab))


def test_two_independent_randoms_not_rpaired():
    src = "func f width 4\nin t0:random t1:random\nt2 = xor t0, t1\nout t2\n"
    elab, sets = _sets_of(src)
    assert [t for t in elab.visible_temps() if t not in elab.out_temps] == [0, 1, 2]
    assert sets.rpairs == frozenset()


def test_spairs_key_with_single_hider():
    # a secret-typed derived temp with exactly one deriveable hider
    src = "func f width 4\nin t0:secret t1:random\nt2 = not t0\nt3 = xor t2, t1\nout t3\n"
    elab, sets = _sets_of(src)
    assert {t.id for t, _ in elab.inputs} == {0, 1}
    assert sets.spairs == {2: (3,)}


def test_no_secret_temps_no_spairs():
    src = "func f width 4\nin t0:random t1:random\nt2 = xor t0, t1\nout t2\n"
    _, sets = _sets_of(src)
    assert sets.spairs == {}


def test_two_stores_of_one_temp_not_mmpaired():
    # the same word twice on the bus is no transition, though the value's
    # class pairs with itself (two distinct equal-valued temps)
    src = (
        "func f width 4\nin t0:secret t1:random\nt2 = xor t0, t1\n"
        "store 0, t2\nstore 1, t2\nt3 = load 0\nout t3\n"
    )
    elab, sets = _sets_of(src)
    assert sets.tm[3] == sets.tm[4] == 2
    assert (2, 2) in sets.class_rpairs
    assert sets.mmpairs == frozenset({(3, 5), (4, 5)})


# a loaded word stored again: ops 4 and 5 both move t3
RELOAD_STORE = (
    "func f width 8\nin t0:secret t1:random\nt2 = xor t0, t1\n"
    "store 0, t2\nt3 = load 0\nstore 1, t3\nout t3\n"
)


@pytest.mark.parametrize("target", ["thumb-like", "mips-like"])
def test_model_and_report_memory_pairs_agree(target):
    """Under copy budget none the model's memory ops are exactly the report's
    memory candidates, so the two expansions give the same memory pairs."""
    programs = [fixture_program(name) for name in sorted(FIXTURE_SOURCES)]
    programs += [parse_program(path.read_text()) for path in sorted(KERNELS.glob("*.ir"))]
    programs.append(parse_program(RELOAD_STORE))
    for prog in programs:
        _, sets, secure = front_end(prog, PRESETS[target], "none")
        assert secure.security.mmpairs == sets.mmpairs, prog.name
        assert secure.security.mspairs == {
            o: frozenset(hs) for o, hs in sets.mspairs.items()
        }, prog.name
    assert sets.tm[4] == sets.tm[5] == 3
    assert sets.mmpairs == frozenset({(3, 4), (3, 5)})


def test_no_memory_candidates_no_memory_sets():
    src = "func f width 4\nin t0:random t1:secret\nt2 = xor t0, t1\nout t2\n"
    elab = elaborate(parse_program(src), "none")
    env = elab_types(elab)
    sets = compute_sets(elab, env)
    assert sets.mmpairs == frozenset() and sets.mspairs == {}


def test_rpairs_members_never_secret(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    for a, b in sets.rpairs:
        assert env.cls(a) in (R, P)
        assert env.cls(b) in (R, P)


def test_spairs_keys_secret_and_hiders_random(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    for key, hiders in sets.spairs.items():
        assert env.cls(key) is S
        for h in hiders:
            assert env.cls(h) is R
            assert xor_class(env, h, key) is R


def test_pairs_stored_unordered(xor_env):
    elab, env = xor_env
    sets = compute_sets(elab, env)
    for a, b in sets.rpairs:
        assert a < b
    for a, b in sets.mmpairs:
        assert a < b


def test_memory_membership_tracks_register_membership(xor_env):
    """A copy's memory-pair role mirrors its value's register-pair role."""
    elab, env = xor_env
    sets = compute_sets(elab, env)
    rep = {t: elab.temps[t].rep for t in elab.temps}
    reg_class_pairs = {
        tuple(sorted((rep[a], rep[b]))) for a, b in sets.rpairs
    }
    for o1, o2 in sets.mmpairs:
        d1, d2 = sets.tm[o1], sets.tm[o2]
        assert tuple(sorted((rep[d1], rep[d2]))) in reg_class_pairs


def test_sets_across_fixtures_consistent():
    for name in FIXTURE_SOURCES:
        elab = elaborate(fixture_program(name), "full")
        env = elab_types(elab)
        sets = compute_sets(elab, env)
        inputs = {t.id for t, _ in elab.inputs}
        for key in sets.spairs:
            assert key not in inputs
        for key, hiders in sets.mspairs.items():
            assert env.cls(sets.tm[key]) is S
            for h in hiders:
                assert env.cls(sets.tm[h]) is R


@pytest.mark.parametrize("name", sorted(FIXTURE_SOURCES))
def test_no_rpair_joins_two_input_classes(name):
    """Distinct input leaves xor to Random or Public, never Secret.

    So two preassigned input temps never form an rpair, and no constraint
    on inputs sharing an argument register is needed.
    """
    elab = elaborate(fixture_program(name), "full")
    sets = compute_sets(elab, elab_types(elab))
    inputs = {t.id for t, _ in elab.inputs}
    assert not [p for p in sets.class_rpairs if set(p) <= inputs]


def test_compute_sets_builds_no_xor_nodes(monkeypatch):
    # pair verdicts read the operands' cached sets; building one node per
    # pair made the front end quadratic in allocations and pinned memory
    elab = elaborate(parse_program(chain_source(60)), "full")
    env = elab_types(elab)
    built = []
    real_init = typeinf.Binary.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(typeinf.Binary, "__init__", counting_init)
    sets = compute_sets(elab, env)
    assert sets.rpairs and sets.spairs
    assert built == []
