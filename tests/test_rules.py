import json
import re

import numpy as np
import pytest

from pimshort.factor import _local_weights
from pimshort.rules import (
    ALPHA_MAX,
    FAMILY_NAMES,
    RuleError,
    UnknownRuleError,
    build_rule,
    builtin_rules,
    load_custom_rule,
)
from pimshort.sieve import _kernel_tables
from pimshort.verify import _partitions_pentagonal

from oracles import exponent_divisor_counts, partitions_dp

# Reference sequences for the two series-built families (first 13 and 15
# values respectively), frozen as golden data.
PLANE_SEQUENCE = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479)
SEMISIMPLE_SEQUENCE = (1, 1, 2, 3, 6, 8, 13, 18, 29, 40, 58, 79, 115, 154, 213)


def _g(name: str, alpha: int) -> int:
    return build_rule(name).values[alpha]


def test_partition_examples():
    assert _g("abelian", 0) == 1
    assert _g("abelian", 2) == 2  # {2, 1+1}
    assert _g("abelian", 5) == 7


def test_partition_recurrence_matches_dp_oracle():
    abelian = list(build_rule("abelian").values)
    assert abelian == partitions_dp(ALPHA_MAX)
    assert abelian == _partitions_pentagonal(ALPHA_MAX)
    # Frozen from OEIS A000041, computed by no code here.
    assert (abelian[10], abelian[50], abelian[64]) == (42, 204_226, 1_741_630)


def test_plane_partition_golden_values():
    assert build_rule("plane").values[:13] == PLANE_SEQUENCE


def test_semisimple_golden_values():
    assert build_rule("semisimple").values[:15] == SEMISIMPLE_SEQUENCE


def test_semisimple_small_enumeration():
    # multisets of pairs (q, m) with sum q*m^2 = 2: {(2,1)}, {(1,1),(1,1)}
    assert _g("semisimple", 2) == 2
    assert _g("semisimple", 0) == 1
    assert _g("semisimple", 4) == 6
    assert _g("semisimple", 6) == 13


def test_divisor_count_values():
    assert _g("expdiv", 4) == 3
    assert _g("expdiv", 1) == 1
    assert _g("expdiv", 12) == 6
    assert _g("unitary-expdiv", 4) == 2
    assert _g("unitary-expdiv", 1) == 1
    assert _g("unitary-expdiv", 12) == 4


def test_exponent_divisor_tables_match_brute_force():
    expdiv = build_rule("expdiv").values
    unitary = build_rule("unitary-expdiv").values
    for alpha in range(1, ALPHA_MAX + 1):
        assert (expdiv[alpha], unitary[alpha]) == exponent_divisor_counts(alpha), alpha


def test_power_divisor_count():
    assert _g("powerdiv-r:2", 0) == 1
    assert _g("powerdiv-r:2", 5) == 3
    assert _g("powerdiv-r:3", 6) == 3


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_invariants(name):
    rule = build_rule(name)
    assert rule.r == 2
    assert rule.alpha_max >= ALPHA_MAX
    assert rule.values[0] == 1
    assert rule.values[1] == 1
    assert all(v >= 2 for v in rule.values[rule.r :])


def test_builtin_rules_are_the_five_families():
    assert tuple(r.name for r in builtin_rules()) == FAMILY_NAMES


def test_build_rule_known_values():
    abelian = build_rule("abelian")
    assert abelian.values[:6] == (1, 1, 2, 3, 5, 7)
    powerdiv3 = build_rule("powerdiv-r:3")
    assert powerdiv3.r == 3
    assert powerdiv3.values[:7] == (1, 1, 1, 2, 2, 2, 3)


def test_build_rule_unknown_name():
    with pytest.raises(UnknownRuleError, match="unknown rule 'nope'.*abelian.*powerdiv-r:R.*json"):
        build_rule("nope")
    with pytest.raises(UnknownRuleError, match="unknown rule 'powerdiv-r:x'"):
        build_rule("powerdiv-r:x")
    # Only the plain ASCII decimal spelling of R names a rule: int() would
    # read each of these as 3 (or 30, or -1).
    for suffix in ("3_0", "+3", " 3", "03", "3 ", "\u0663", "-1", "", "00", "2.0", "0x3"):
        name = f"powerdiv-r:{suffix}"
        with pytest.raises(UnknownRuleError, match=re.escape(f"unknown rule {name!r}")):
            build_rule(name)
    for r in ("0", "1", str(ALPHA_MAX + 1), "100", "9" * 5000):
        with pytest.raises(RuleError, match=rf"R must lie in \[2, {ALPHA_MAX}\], got {r}$"):
            build_rule(f"powerdiv-r:{r}")
    for r in (2, 3, 10, ALPHA_MAX):
        assert build_rule(f"powerdiv-r:{r}").r == r


def test_rule_hash_leaves_out_the_table():
    # The per-rule caches hash a rule on every lookup; values only enter equality.  The
    # kernel's tables are keyed by g(0..62) itself.
    a = load_custom_rule(json.dumps(_custom_doc()))
    b = load_custom_rule(json.dumps(_custom_doc(values=[1, 1, 3] + [2] * (ALPHA_MAX - 2))))
    assert hash(a) == hash(b)
    assert a != b
    assert a == load_custom_rule(json.dumps(_custom_doc()))
    gtabs = [_kernel_tables(rule.values[:63], 0, 2, np.dtype(np.uint64), 1 << 20)[0] for rule in (a, b)]
    assert gtabs[0][2] == 2 and gtabs[1][2] == 3
    assert _local_weights(a, 2) != _local_weights(b, 2)
    assert _local_weights(a, 2) is _local_weights(load_custom_rule(json.dumps(_custom_doc())), 2)


def _custom_doc(**overrides):
    doc = {
        "name": "custom",
        "r": 2,
        "values": [1, 1] + [2] * (ALPHA_MAX - 1),
    }
    doc.update(overrides)
    return doc


def test_load_custom_rule_roundtrip():
    rule = load_custom_rule(json.dumps(_custom_doc()))
    assert rule.name == "custom"
    assert rule.r == 2
    assert rule.alpha_max == ALPHA_MAX


def test_custom_rule_g1_violation_names_alpha():
    doc = _custom_doc(values=[1, 2] + [2] * (ALPHA_MAX - 1))
    with pytest.raises(RuleError, match=r"g\(1\)"):
        load_custom_rule(json.dumps(doc))


def test_custom_rule_declared_r_mismatch():
    doc = _custom_doc(r=3)
    with pytest.raises(RuleError, match="declared r = 3"):
        load_custom_rule(json.dumps(doc))


def test_custom_rule_dip_below_threshold_rejected():
    values = [1, 1] + [2] * (ALPHA_MAX - 1)
    values[10] = 1
    with pytest.raises(RuleError, match=r"g\(10\)"):
        load_custom_rule(json.dumps(_custom_doc(values=values)))


def test_custom_rule_table_too_short():
    with pytest.raises(RuleError, match="length"):
        load_custom_rule(json.dumps(_custom_doc(values=[1, 1, 2, 2])))


def test_custom_rule_nonpositive_value():
    values = [1, 1] + [2] * (ALPHA_MAX - 1)
    values[7] = 0
    with pytest.raises(RuleError, match=r"g\(7\)"):
        load_custom_rule(json.dumps(_custom_doc(values=values)))


# Each entry would pass as int(entry): 2, 3 and g(1) = 1.
@pytest.mark.parametrize("alpha,entry", [(4, 2.5), (4, "3"), (1, True)])
def test_custom_rule_value_must_be_a_json_integer(alpha, entry):
    values = [1, 1] + [2] * (ALPHA_MAX - 1)
    values[alpha] = entry
    with pytest.raises(RuleError, match=rf"g\({alpha}\)"):
        load_custom_rule(json.dumps(_custom_doc(values=values)))


def test_custom_rule_missing_field():
    doc = _custom_doc()
    del doc["values"]
    with pytest.raises(RuleError, match="values"):
        load_custom_rule(json.dumps(doc))


def test_custom_rule_bad_json():
    with pytest.raises(RuleError, match="JSON"):
        load_custom_rule("{not json")
    # json.loads raises RecursionError, not JSONDecodeError, for arrays nested this deep.
    with pytest.raises(RuleError, match="JSON is nested too deeply"):
        load_custom_rule("[" * 200_000)

