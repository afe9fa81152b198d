"""Core data model: masks, valuations, instances, serialization."""

import json
import random
import re

import pytest

from groupfair import (
    AgentPartition,
    Allocation,
    Instance,
    UnsupportedValuationError,
    Valuation,
    allocation_violations,
    instance_from_json,
    instance_to_json,
    validate,
)
from groupfair.model import (
    bits_of,
    dumps_indented,
    full_mask,
    instance_from_dict,
    instance_to_dict,
    iter_bits,
    mask_of,
)


def test_mask_helpers():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    assert mask_of([0, 2, 5]) == 0b100101
    assert bits_of(0b100101) == (0, 2, 5)
    assert bits_of(0) == ()


def test_additive_value_is_a_sum():
    v = Valuation.additive([4, 0, 7, 1])
    assert v.m == 4
    assert v.value(0) == 0
    assert v.value(0b1111) == 12
    assert v.value(0b0101) == 11
    with pytest.raises(ValueError):
        v.value(1 << 4)
    with pytest.raises(ValueError):
        v.value(-1)


def test_binary_desired_mask():
    v = Valuation.binary([1, 0, 1])
    assert v.desired_mask == 0b101
    assert v.value(0b110) == 1
    w = Valuation.binary_from_desired(5, [4, 1])
    assert w.desired_mask == 0b10010
    with pytest.raises(UnsupportedValuationError):
        Valuation.additive([1, 2]).desired_mask


def test_table_lookup_and_missing_entry():
    v = Valuation.table_of(2, {0: 0, 1: 3, 2: 3, 3: 5})
    assert v.table == (0, 3, 3, 5)
    assert v.value(0b11) == 5
    assert not v.is_additive_like()
    # a table missing a mask cannot be built, so no lookup can miss
    with pytest.raises(ValueError, match="misses subset mask 1"):
        Valuation.table_of(2, {0: 0})


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Valuation("fancy", 2, values=(1, 2))


def test_with_zero_good_additive():
    v = Valuation.additive([3, 1]).with_zero_good()
    assert v.m == 3
    assert v.value(0b100) == 0
    assert v.value(0b111) == 4


def test_with_zero_good_table_keeps_values():
    t = Valuation.table_of(2, {0: 0, 1: 2, 2: 2, 3: 3})
    v = t.with_zero_good()
    assert v.m == 3
    for mask in range(4):
        assert v.value(mask) == t.value(mask)
        assert v.value(mask | 0b100) == t.value(mask)


def test_undesire_and_restrict():
    # Valuation.undesire and Valuation.restrict are gone; an agent that stops
    # desiring a good is built with binary_from_desired, and the original is
    # left as it was
    v = Valuation.binary([1, 1, 0])
    u = Valuation.binary_from_desired(v.m, bits_of(v.desired_mask & ~0b001))
    assert u.desired_mask == 0b010
    assert v.desired_mask == 0b011
    assert not hasattr(v, "undesire") and not hasattr(v, "restrict")


def test_instance_accessors():
    agents = [Valuation.binary([1, 0]), Valuation.binary([0, 1]), Valuation.binary([1, 1])]
    fixed = Instance.fixed(2, agents, [[0, 2], [1]])
    assert fixed.n == 3 and fixed.k == 2 and fixed.is_fixed
    # the group of each agent is stored once; group_of is gone
    assert fixed.assignment == (0, 1, 0)
    assert not hasattr(fixed, "group_of")
    var = Instance.variable(2, agents, [2, 1])
    assert var.k == 2 and not var.is_fixed and var.assignment is None


def test_allocation_and_partition_shapes():
    alloc = Allocation.of([[0, 2], [1]])
    assert alloc.k == 2
    assert alloc.sizes() == (2, 1)
    assert alloc.goods_lists() == ((0, 2), (1,))

    part = AgentPartition.from_groups([[1], [0, 2]])
    assert part.assignment == (1, 0, 1)
    assert part.sizes() == (1, 2)
    assert part.members(1) == (0, 2)
    assert part.groups_lists() == ((1,), (0, 2))
    with pytest.raises(ValueError):
        AgentPartition.from_groups([[0], [0]])


@pytest.mark.parametrize(
    "groups, message",
    [
        # the instance's wording, with n the total length of the lists
        ([[0], [0]], "group 1: agent 0 appears in more than one group"),
        ([[0, 1], [1]], "group 1: agent 1 appears in more than one group"),
        ([[0], [2]], "group 1: unknown agent id 2"),
        ([[-1], [0]], "group 0: unknown agent id -1"),
    ],
)
def test_from_groups_names_the_flaw(groups, message):
    # it used to say only "groups must partition agents 0..n-1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AgentPartition.from_groups(groups)
    assert AgentPartition.from_groups([[], [1, 0], iter([2])]).assignment == (1, 1, 2)


def test_validate_flags_bad_data():
    # a negative or out-of-range binary value is flagged where the valuation
    # is built, and the loader names the agent, so validate never sees one;
    # a wrong vector length cannot be built either
    # (test_shape_errors_raise_on_construction)
    with pytest.raises(ValueError, match="^negative value -2 for good 1$"):
        Valuation.additive([1, -2])
    with pytest.raises(ValueError, match=r"^binary value 2 for good 1 outside \{0,1\}$"):
        Valuation.binary([0, 2])
    doc = _doc([{"kind": "binary", "values": [1, 2]}, {"kind": "additive", "values": [-1, 0]}],
               {"fixed": [[0], [1]]}, m=2)
    # only the first flaw is named, as for structural flaws
    with pytest.raises(ValueError, match=r"^agent 0: binary value 2 for good 1 outside \{0,1\}$"):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Valuation.binary([0, 2]), r"binary value 2 for good 1 outside \{0,1\}"),
        (lambda: Valuation.binary([True, False]), "value of good 0 is not an integer"),
        (lambda: Valuation.additive([1, -2]), "negative value -2 for good 1"),
        (lambda: Valuation.additive([0.5, 1]), "value of good 0 is not an integer"),
        (lambda: Valuation.additive([3, 1.0]), "value of good 1 is not an integer"),
        # it used to drop the ids outside 0..m-1 and return (1, 0, 0)
        (lambda: Valuation.binary_from_desired(3, [5]), r"desired goods \[5\] outside 0\.\.2"),
        (lambda: Valuation.binary_from_desired(3, [0, 5, -1]), r"desired goods \[-1, 5\] outside 0\.\.2"),
        # is_fair judged agent 1 against the last bundle, or raised IndexError
        (lambda: AgentPartition((1, -1), 2), r"agent 1: group -1 outside 0\.\.1"),
        (lambda: AgentPartition((0, 5), 2), r"agent 1: group 5 outside 0\.\.1"),
        # a float index passed and is_fair then failed with TypeError
        (lambda: AgentPartition((0, 1.0), 2), r"agent 1: group 1\.0 outside 0\.\.1"),
        (lambda: AgentPartition.from_groups([[True], [0]]), "group 0: unknown agent id True"),
        (lambda: Instance.fixed(0, [Valuation.binary([])] * 2, [[0], [1.0]]),
         r"group 1: unknown agent id 1\.0"),
        # the repeat was merged away; a negative id failed with "negative shift count"
        (lambda: Allocation.of([[0, 0, 1], []]), "good 0 is listed twice"),
        (lambda: Allocation.of([[0, 1], [2, 1]]), "good 1 is listed twice"),
        (lambda: Allocation.of([[-1], [0]]), "good -1 is not a good id"),
        (lambda: Allocation.of([[0], [1.0]]), r"good 1\.0 is not a good id"),
        # the cap comes before the shape, so no 2^m count is built for a huge m
        (lambda: Valuation("table", 25, table=()), "table over 25 goods exceeds the cap of 24"),
        (lambda: Valuation("table", 10**9, table=()), "table over 1000000000 goods exceeds the cap of 24"),
    ],
)
def test_invalid_values_cannot_be_built(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def _reference_vector_violations(agent, kind, values):
    # validate's per-good loop from before vector values were checked at
    # construction, kept as the reference: same messages, same order
    out = []
    for g, val in enumerate(values):
        if not isinstance(val, int) or isinstance(val, bool):
            out.append(f"agent {agent}: value of good {g} is not an integer")
        elif val < 0:
            out.append(f"agent {agent}: negative value {val} for good {g}")
        elif kind == "binary" and val not in (0, 1):
            out.append(f"agent {agent}: binary value {val} for good {g} outside {{0,1}}")
    return out


@pytest.mark.parametrize("kind", ["binary", "additive"])
def test_vector_checks_match_reference(kind):
    rng = random.Random(f"vector-{kind}")
    odd = [-2, -1, 2, 3, True, False, 0.0, 1.0, 0.5]
    raised = 0
    for _ in range(2000):
        m = rng.randrange(0, 7)
        values = tuple(
            rng.choice(odd) if rng.random() < 0.15 else rng.randrange(2 if kind == "binary" else 4)
            for _ in range(m)
        )
        expect = _reference_vector_violations(0, kind, values)
        if not expect:
            assert Valuation(kind, m, values=values).values == values
            continue
        with pytest.raises(ValueError) as err:
            Valuation(kind, m, values=values)
        assert f"agent 0: {err.value}" == expect[0]
        raised += 1
    assert 400 < raised < 1600


def test_validate_table_monotonicity():
    good = Instance.fixed(2, [Valuation.table_of(2, {0: 0, 1: 1, 2: 2, 3: 2})], [[0]])
    assert validate(good) == []
    drop = Instance.fixed(2, [Valuation.table_of(2, {0: 0, 1: 5, 2: 2, 3: 2})], [[0]])
    assert any("monotonicity" in s for s in validate(drop))
    unnorm = Instance.fixed(2, [Valuation.table_of(2, {0: 1, 1: 1, 2: 1, 3: 1})], [[0]])
    assert any("normalization" in s for s in validate(unnorm))
    # a table with holes cannot be built (test_shape_errors_raise_on_construction)


def _reference_table_violations(agent, v, m):
    # the per-mask table checks, kept as the reference for validate's
    # quick pass: same messages, same order
    size = 1 << m
    out = []
    if v.table[0] != 0:
        out.append(f"agent {agent}: normalization violated, empty bundle worth {v.table[0]}")
    for mask in range(size):
        val = v.table[mask]
        if not isinstance(val, int) or isinstance(val, bool):
            out.append(f"agent {agent}: table value at mask {mask} is not an integer")
            continue
        if val < 0:
            out.append(f"agent {agent}: negative table value {val} at mask {mask}")
        for g in iter_bits(mask):
            below = v.table[mask & ~(1 << g)]
            if below > val:
                out.append(
                    f"agent {agent}: monotonicity violated at subset {set(bits_of(mask))}"
                    f" after dropping good {g} ({below} > {val})"
                )
    return out


def _random_table(rng, m, flaw):
    size = 1 << m
    table = {0: 0}
    for mask in range(1, size):  # monotone: at least every one-good-smaller subset
        table[mask] = max(table[mask & ~(1 << g)] for g in iter_bits(mask)) + rng.randrange(3)
    spot = rng.randrange(size)
    if flaw == "non-monotone":
        table = {mask: rng.randrange(5) if mask else 0 for mask in range(size)}
    elif flaw == "negative":
        table[spot] = -rng.randrange(1, 4)
    elif flaw == "bool":
        table[spot] = rng.random() < 0.5
    elif flaw == "float":
        table[spot] = table[spot] + 0.5
    elif flaw == "missing":
        del table[spot]
    elif flaw == "out-of-range":
        table[rng.choice([size, size + 3, -1])] = 1
    elif flaw == "non-normalised":
        table = {mask: val + 1 for mask, val in table.items()}
    elif flaw == "dip":  # one subset worth less than a one-good-smaller one
        if spot:
            table[spot] = max(0, table[spot] - rng.randrange(1, 4))
    return table


SHAPE_FLAWS = {"missing": "misses subset mask", "out-of-range": "out-of-range subset mask"}


@pytest.mark.parametrize(
    "flaw",
    [
        "monotone",
        "non-monotone",
        "negative",
        "bool",
        "float",
        "missing",
        "out-of-range",
        "non-normalised",
        "dip",
    ],
)
def test_table_violations_match_reference(flaw):
    rng = random.Random(f"validate-{flaw}")
    reports = 0
    for _ in range(60):
        m = rng.randrange(0, 7)
        table = _random_table(rng, m, flaw)
        if flaw in SHAPE_FLAWS:
            # a shape flaw is reported by construction, naming the mask
            with pytest.raises(ValueError, match=SHAPE_FLAWS[flaw]):
                Valuation.table_of(m, table)
            reports += 1
            continue
        v = Valuation.table_of(m, table)
        expect = _reference_table_violations(0, v, m)
        assert validate(Instance.fixed(m, [v], [[0]])) == expect
        reports += bool(expect)
    if flaw == "monotone":
        assert reports == 0
    elif flaw != "dip":
        assert reports >= 30


def test_validate_groups():
    # the groups are checked when the instance is built; validate judges
    # the values only
    agents = [Valuation.binary([1]), Valuation.binary([1])]
    with pytest.raises(ValueError, match="group 1: agent 1 appears in more than one group"):
        Instance.fixed(1, agents, [[0, 1], [1]])
    with pytest.raises(ValueError, match=r"agents \[1\] belong to no group"):
        Instance.fixed(1, agents, [[0], []])
    with pytest.raises(ValueError, match=r"group sizes \[1\] sum to 1, instance has 2 agents"):
        Instance.variable(1, agents, [1])
    assert validate(Instance.variable(1, agents, [1, 1])) == []


_A3 = {"id": 0, "kind": "additive", "values": [1, 2, 3]}


def _doc(agents, groups, m=3):
    return {"m": m, "agents": [dict(a, id=i) for i, a in enumerate(agents)], "groups": groups}


# Malformed structures that once reached the entry points: find_fair
# certified "exhausted-none" for sizes no partition has, preprocess
# answered for an agent in two groups, an agent in no group or a
# valuation over other goods leaked KeyError or IndexError, and an
# instance with no groups ended search in ZeroDivisionError.
MALFORMED = [
    (_doc([_A3, _A3], {"variable": [2, 1]}), r"group sizes \[2, 1\] sum to 3, instance has 2 agents"),
    (_doc([_A3, _A3], {"variable": [-1, 3]}), "negative group size"),
    (_doc([_A3, _A3], {"fixed": [[0, 1], [1]]}), "group 1: agent 1 appears in more than one group"),
    (_doc([_A3, _A3, _A3], {"fixed": [[0], [1]]}), r"agents \[2\] belong to no group"),
    (_doc([_A3, _A3], {"fixed": [[0], [2]]}), "group 1: unknown agent id 2"),
    (_doc([_A3, _A3], {"fixed": [[0], [-1]]}), "group 1: unknown agent id -1"),
    (_doc([], {"fixed": []}, m=1), "instance has no groups"),
    (_doc([], {"variable": []}, m=1), "instance has no groups"),
]


@pytest.mark.parametrize("doc,message", MALFORMED)
def test_malformed_structure_raises_on_construction(doc, message):
    agents = [Valuation.additive(a["values"]) for a in doc["agents"]]
    groups = doc["groups"]
    build = Instance.fixed if "fixed" in groups else Instance.variable
    with pytest.raises(ValueError, match=message):
        build(doc["m"], agents, groups.get("fixed", groups.get("variable")))
    with pytest.raises(ValueError, match=message):
        instance_from_dict(doc)
    with pytest.raises(ValueError, match=message):
        instance_from_json(json.dumps(doc))


def test_goods_count_raises_on_construction():
    # a 3-good valuation in a 4-good instance once leaked IndexError from preprocess
    agents = [Valuation.binary([1, 1, 0]), Valuation.binary([1, 1, 0, 1])]
    with pytest.raises(ValueError, match="agent 0: valuation covers 3 goods, instance has 4"):
        Instance.fixed(4, agents, [[0], [1]])
    with pytest.raises(ValueError, match="negative good count -1"):
        Instance.fixed(-1, [], [])
    # the loader builds each valuation over the document's m, so a short
    # vector is caught there first
    with pytest.raises(ValueError, match="agent 0: binary valuation over 4 goods"):
        instance_from_dict(_doc([{"kind": "binary", "values": [1, 1, 0]}], {"fixed": [[0]]}, m=4))


def test_allocation_violations():
    assert allocation_violations(3, Allocation.of([[0, 1], [2]])) == []
    assert allocation_violations(3, Allocation.of([[0], [2]]))  # hole
    assert allocation_violations(3, Allocation((0b11, 0b110)))  # overlap
    assert allocation_violations(1, Allocation((0b10,)))  # out of range


def test_json_round_trip():
    inst = Instance.fixed(
        3,
        [
            Valuation.additive([1, 2, 3]),
            Valuation.binary([0, 1, 1]),
            Valuation.table_of(3, {m: m.bit_count() for m in range(8)}),
        ],
        [[0, 1], [2]],
    )
    back = instance_from_json(instance_to_json(inst))
    assert instance_to_dict(back) == instance_to_dict(inst)
    assert back.groups == inst.groups
    assert [v.kind for v in back.agents] == ["additive", "binary", "table"]


def test_indented_writer_matches_json_dumps():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randrange(0, 5)
        n = rng.randrange(1, 4)
        agents = []
        for _ in range(n):
            kind = rng.choice(["additive", "binary", "table"])
            if kind == "table":
                table = {x: rng.randrange(0, 12) for x in range(1 << m)}
                agents.append(Valuation.table_of(m, table))
            else:
                values = tuple(rng.randrange(0, 2) for _ in range(m))
                agents.append(Valuation(kind, m, values=values))
        if rng.random() < 0.5:
            inst = Instance.variable(m, agents, [n, 0])
        else:
            inst = Instance.fixed(m, agents, [list(range(n)), []])
        for indent in (None, 0, 1, 2, 4):
            expect = json.dumps(instance_to_dict(inst), indent=indent)
            assert instance_to_json(inst, indent) == expect
    # a key holding the item separator must not be split at it
    doc = {"a, b": 1, "c": [1, 2], "d": {"e, f": 3, "g": []}, "h": {}, "i": [[True, None, 0.5]]}
    doc["j"] = (1, (2, "x"))
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


def test_json_fractions_scale_per_agent():
    doc = {
        "m": 2,
        "agents": [
            {"id": 0, "kind": "additive", "values": ["1/2", 0.25]},
            {"id": 1, "kind": "additive", "values": [1, 2]},
        ],
        "groups": {"variable": [1, 1]},
    }
    inst = instance_from_dict(doc)
    # 1/2 and 1/4 scale by lcm 4; the second agent is untouched
    assert inst.agents[0].values == (2, 1)
    assert inst.agents[1].values == (1, 2)


def _table_doc(table, m=1):
    return {"m": m, "agents": [{"id": 0, "kind": "table", "table": table}], "groups": {"fixed": [[0]]}}


_OK = _table_doc({"0": 0, "1": 1})


@pytest.mark.parametrize(
    "doc,hint",
    [
        ({}, "m"),
        ({"m": 1, "agents": [{"id": 0, "kind": "additive", "values": [1]}]}, "groups"),
        ({"m": 1, "agents": [{"kind": "additive", "values": [1]}], "groups": {"fixed": [[0]]}}, "id"),
        (
            {
                "m": 1,
                "agents": [
                    {"id": 0, "kind": "additive", "values": [1]},
                    {"id": 2, "kind": "additive", "values": [1]},
                ],
                "groups": {"fixed": [[0], [1]]},
            },
            "dense",
        ),
        ({"m": 1, "agents": [{"id": 0, "kind": "additive", "values": [1]}], "groups": {}}, "fixed"),
        ({"m": 1, "agents": [{"id": 0, "kind": "wat", "values": [1]}], "groups": {"fixed": [[0]]}}, "kind"),
        # "01" would land on mask 1 and overwrite "1" without a word
        (_table_doc({"0": 0, "1": 5, "01": 1}), "agent 0: table key '01'"),
        (_table_doc({"0": 0, "1_1": 1}), "'1_1'"),
        (_table_doc({"0": 0, " 3": 1}), "' 3'"),
        (_table_doc({"0": 0, "+1": 1}), "'+1'"),
        (_table_doc({"0": 0, "x": 1}), "'x'"),
        (_table_doc({"0": 0, "1": "1/0"}), "divides by zero"),
        (_table_doc({"0": 0, "1": True}), "boolean"),
        (_OK | {"agents": [{"id": 0, "kind": "binary", "values": [True]}]}, "boolean"),
        # structural integers must be plain JSON integers: int() would read 2.9 as 2, true as 1
        (_OK | {"m": 1.0}, "'m' must be an integer, got 1.0"),
        (_OK | {"m": True}, "'m' must be an integer, got True"),
        (_OK | {"m": "1"}, "'m' must be an integer, got '1'"),
        (_OK | {"agents": [{**_OK["agents"][0], "id": 0.7}]}, "agent id must be an integer, got 0.7"),
        (_OK | {"agents": [{**_OK["agents"][0], "id": False}]}, "agent id must be an integer"),
        (_OK | {"groups": {"fixed": [[True]]}}, "group member must be an integer, got True"),
        (_OK | {"groups": {"fixed": [[0.0]]}}, "group member must be an integer, got 0.0"),
        (_OK | {"groups": {"fixed": [0]}}, "group members must be given as an array, got 0"),
        (_OK | {"groups": {"fixed": 0}}, "'fixed' groups must be an array"),
        (_OK | {"groups": {"variable": [1.5]}}, "group size must be an integer, got 1.5"),
        (_OK | {"groups": {"variable": [True]}}, "group size must be an integer, got True"),
        (_OK | {"groups": {"variable": "1"}}, "group sizes must be given as an array"),
    ],
)
def test_bad_documents_raise(doc, hint):
    with pytest.raises(ValueError) as err:
        instance_from_dict(doc)
    assert hint in str(err.value)


def test_bad_json_text():
    with pytest.raises(ValueError):
        instance_from_json("{not json")
    with pytest.raises(ValueError):
        instance_from_json("[1, 2]")


def test_round_trip_fuzz():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(0, 5)
        n = rng.randrange(1, 5)
        agents = []
        for _ in range(n):
            if rng.random() < 0.5:
                agents.append(Valuation.additive([rng.randrange(0, 9) for _ in range(m)]))
            else:
                agents.append(Valuation.binary([rng.randrange(0, 2) for _ in range(m)]))
        inst = Instance.variable(m, agents, [n])
        back = instance_from_json(instance_to_json(inst, indent=None))
        assert back == inst


def test_valuations_and_instances_hash():
    table = Valuation.table_of(2, {0: 0, 1: 1, 2: 1, 3: 2})
    assert type(table.table) is tuple and len(table.table) == 4
    assert hash(table) == hash(Valuation.table_of(2, {3: 2, 2: 1, 1: 1, 0: 0}))

    def build(top):
        agents = [
            Valuation.table_of(2, {0: 0, 1: 1, 2: 1, 3: top}),
            Valuation.binary([1, 0]),
            Valuation.additive([2, 3]),
        ]
        return Instance.fixed(2, agents, [[0, 1], [2]])

    a, b = build(2), build(2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, instance_from_json(instance_to_json(a)), build(3)}) == 2


def test_table_keys_in_any_order():
    rng = random.Random(5)
    for m in range(6):
        values = {mask: rng.randrange(0, 9) for mask in range(1 << m)}
        order = list(values)
        rng.shuffle(order)
        expect = tuple(values[mask] for mask in range(1 << m))
        assert Valuation.table_of(m, {mask: values[mask] for mask in order}).table == expect
        doc = _table_doc({str(mask): values[mask] for mask in order}, m)
        assert instance_from_dict(doc).agents[0].table == expect
        assert instance_from_json(json.dumps(doc)).agents[0].table == expect


@pytest.mark.parametrize(
    "doc,message",
    [
        (_table_doc({"0": 0, "1": True}), "agent 0: boolean is not a utility value"),
        (_table_doc({"0": 0, "1": "1/0"}), "agent 0: utility value '1/0' divides by zero"),
        (_table_doc({"0": 0, "01": 1}), "agent 0: table key '01' is not a canonical decimal mask"),
        (_table_doc({"0": 0, "1": 1, "2": 1}, 2), "agent 0: table over 2 goods misses subset mask 3"),
        (_table_doc({"0": 0, "1": 1, "2": 1}, 1), "agent 0: table over 1 goods has out-of-range subset mask 2"),
        (_table_doc({"0": 0}, 10**9), "agent 0: table over 1000000000 goods misses subset mask 1"),
        (_table_doc({"0": 0}, -1), "agent 0: negative good count -1"),
    ],
)
def test_canonical_order_tables_raise_as_any_order(doc, message):
    """Keys "0", "1", ... in mask order take the loader's short way; each of
    these documents keeps the message the per-key reading gives."""
    for load in (instance_from_dict, lambda d: instance_from_json(json.dumps(d))):
        with pytest.raises(ValueError) as err:
            load(doc)
        assert str(err.value) == message


def test_canonical_order_tables_load_as_any_order():
    # fractions scale to the same grid whichever order the keys come in
    values = {"0": 0, "1": "1/2", "2": 0.25, "3": "3/4"}
    canonical = _table_doc(values, 2)
    shuffled = _table_doc({key: values[key] for key in ("3", "1", "0", "2")}, 2)
    assert instance_from_dict(canonical) == instance_from_dict(shuffled)
    assert instance_from_dict(canonical).agents[0].table == (0, 2, 1, 3)
    # a repeated key is refused before any table is read
    text = '{"m": 1, "agents": [{"id": 0, "kind": "table", "table": {"0": 0, "0": 0, "1": 1}}]}'
    with pytest.raises(ValueError) as err:
        instance_from_json(text)
    assert str(err.value) == "repeated JSON object key '0'"
    # tables of one document share the key list, whatever order each uses
    doc = {
        "m": 2,
        "agents": [
            {"id": 0, "kind": "table", "table": {"0": 0, "1": 1, "2": 2, "3": 3}},
            {"id": 1, "kind": "additive", "values": [1, 2]},
            {"id": 2, "kind": "table", "table": {"3": 5, "2": 4, "1": 0, "0": 0}},
            {"id": 3, "kind": "table", "table": {"0": 0, "1": 6, "2": 7, "3": 8}},
        ],
        "groups": {"fixed": [[0, 1], [2, 3]]},
    }
    inst = instance_from_dict(doc)
    assert [v.table for v in inst.agents if v.kind == "table"] == [(0, 1, 2, 3), (0, 0, 4, 5), (0, 6, 7, 8)]
    assert instance_from_json(instance_to_json(inst)) == inst


def test_table_writer_matches_json_dumps():
    rng = random.Random(12)
    for m in (0, 1, 12):
        tables = [
            Valuation("table", m, table=tuple(rng.randrange(0, 10**rng.randrange(1, 12)) for _ in range(1 << m)))
            for _ in range(2)
        ]
        mixed = tables + [Valuation.additive(range(m)), Valuation.binary([1] * m)]
        for agents in (tables, mixed):
            inst = Instance.fixed(m, agents, [list(range(len(agents))), []])
            for indent in (2, 4):
                assert instance_to_json(inst, indent) == json.dumps(instance_to_dict(inst), indent=indent)
    # entries that are not plain ints are written as json.dumps writes them
    odd = Valuation("table", 2, table=(0, True, 0.5, None))
    inst = Instance.fixed(2, [odd, Valuation.table_of(2, {0: 0, 1: 1, 2: 1, 3: 2})], [[0], [1]])
    assert instance_to_json(inst) == json.dumps(instance_to_dict(inst), indent=2)


@pytest.mark.parametrize(
    "build,hint",
    [
        # holes: masks 1 and 2 absent
        (lambda: Valuation.table_of(2, {0: 0, 3: 1}), "table over 2 goods misses subset mask 1"),
        (lambda: Valuation.table_of(1, {0: 0, 1: 1, 2: 1}), "out-of-range subset mask 2"),
        (lambda: Valuation.table_of(1, {0: 0, 1: 1, -1: 1}), "out-of-range subset mask -1"),
        (lambda: Valuation("table", 2, table=(0, 1, 1)), "needs a tuple of 4 table entries, got 3"),
        (lambda: Valuation("table", 1, table={0: 0, 1: 1}), "got a dict"),
        (lambda: Valuation("additive", 3, values=(1, 2)), "needs a tuple of 3 values, got 2"),
        (lambda: Valuation("binary", 1, values=(1, 0)), "needs a tuple of 1 values, got 2"),
        (lambda: Valuation("additive", 2, values=[1, 2]), "got a list"),
        (lambda: Valuation("additive", 2), "got a NoneType"),
        (lambda: Valuation("additive", -1, values=()), "negative good count -1"),
    ],
)
def test_shape_errors_raise_on_construction(build, hint):
    with pytest.raises(ValueError) as err:
        build()
    assert hint in str(err.value)


@pytest.mark.parametrize(
    "agent,hint",
    [
        ({"kind": "table", "table": {"0": 0, "3": 1}}, "agent 0: table over 2 goods misses subset mask 1"),
        ({"kind": "table", "table": {"2": 1, "0": 0, "1": 1, "3": 1, "4": 1}}, "out-of-range subset mask 4"),
        ({"kind": "table", "table": {"0": 0, "1": 1, "2": 1, "3": 1, "-1": 1}}, "out-of-range subset mask -1"),
        ({"kind": "additive", "values": [1]}, "agent 0: additive valuation over 2 goods needs a tuple of 2 values, got 1"),
        ({"kind": "binary", "values": [1, 0, 1]}, "got 3"),
    ],
)
def test_shape_errors_raise_on_load(agent, hint):
    doc = {"m": 2, "agents": [{"id": 0, **agent}], "groups": {"fixed": [[0]]}}
    for load in (instance_from_dict, lambda d: instance_from_json(json.dumps(d))):
        with pytest.raises(ValueError) as err:
            load(doc)
        assert hint in str(err.value)


def test_repeated_json_keys_raise():
    # plain json.loads keeps the last "1" and the table would load as {0: 0, 1: 1}
    text = json.dumps(_table_doc({"0": 0, "1": 5})).replace('"1": 5', '"1": 5, "1": 1')
    with pytest.raises(ValueError, match="repeated JSON object key '1'"):
        instance_from_json(text)
    with pytest.raises(ValueError, match="repeated JSON object key 'm'"):
        instance_from_json('{"m": 1, "m": 2, "agents": [], "groups": {"fixed": []}}')
    assert instance_from_json(text.replace(', "1": 1', "")).agents[0].table == (0, 5)
