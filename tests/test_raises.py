"""Every raise statement in the catalogued modules is provoked by a named
test that asserts its exception class and message, or is on ALLOWED
with one reason.

A raise is named by (enclosing function, message): the message is the
literal first argument of the exception, or the format string of a `%`
first argument.  PROVOKED maps it to the test that provokes it, written
"test_file.py::test_name".  That test must hold a
pytest.raises(<class>, match=<literal>) whose pattern matches the
message, or is a rendering of the format string.  The check is
static: it reads the test, it does not run it.

A raise no test provokes with its message is either protection nobody
has tried, or a second check of a fact another certificate holds; the
second kind leaves the program with a docstring that cites that
certificate.  ALLOWED lists the rest, each with its reason; a test it
names must exist.  ALLOWED may only shrink: ALLOWED_MAX pins its size,
and is lowered, never raised.  Modules join MODULES as their raises are
catalogued.
"""

import ast
import os
import re

import pytest

from conftest import law_for, ring_for
from ramify import cochain, homalg
from ramify.coeff import padic_context
from ramify.fgl import TruncatedSeries

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.abspath(homalg.__file__))

MODULES = ("homalg.py", "cochain.py", "groups.py", "coeff.py")

PROVOKED = {
    "homalg.py": {
        ("smith_normal_form", "smith_normal_form takes a 1x1 matrix"):
            "test_homalg.py::test_library_snf_is_the_oracle_on_1x1_and_refuses_other_shapes",
        ("tor_table", "s_max must be >= 0"):
            "test_homalg.py::test_rational_tor_runs_the_tor_table_certificate",
        ("tor_table", "Tor_%d is %s but the closed form gives %s"):
            "test_homalg.py::test_tor_table_certifies_the_periodic_reading",
        ("comparison_chain_map", "square at degree 2 fails: phi(q_1) Q != q_k"):
            "test_homalg.py::test_a_perturbed_target_q_fails_the_degree_2_identity",
        ("convergence_diagnostic", "s_max must be >= 0"):
            "test_homalg.py::test_convergence_diagnostic_short_window",
    },
    "cochain.py": {
        ("CyclicCochainRing._check_relation", "relation has wrong degree"):
            "test_cochain.py::test_a_factor_of_the_wrong_degree_is_refused",
        ("CyclicCochainRing._check_relation", "relation is not monic"):
            "test_cochain.py::test_a_factor_that_is_not_monic_is_refused",
        ("CyclicCochainRing._check_relation", "relation must have zero constant term"):
            "test_cochain.py::test_a_relation_with_a_constant_term_is_refused",
        ("CyclicCochainRing._check_relation", "relation is not congruent to y^rank mod p"):
            "test_cochain.py::test_a_factor_with_a_unit_below_its_top_is_refused",
        ("CyclicCochainRing.from_series", "cannot reduce an exact series over %s"):
            "test_raises.py::test_input_checks_no_other_test_provokes",
        ("make_cochain_ring", "expected a FormalGroupLaw"):
            "test_raises.py::test_input_checks_no_other_test_provokes",
        ("make_cochain_ring", "y * q_r is nonzero in the quotient ring"):
            "test_cochain.py::test_a_wrong_distinguished_factor_fails_the_ring_certificate",
        ("RingMorphism.apply", "element does not belong to the source ring"):
            "test_raises.py::test_input_checks_no_other_test_provokes",
        ("substitution_map", "y * q_(k-1) disagrees with [p^(k-1)]y in A_k"):
            "test_cochain.py::test_a_wrong_cofactor_series_fails_the_image_of_y",
        ("substitution_map", "image of the source relation w_1 is nonzero"):
            "test_cochain.py::test_substitution_refuses_a_source_relation_it_does_not_kill",
        ("substitution_map", "tower map is not injective"):
            "test_cochain.py::test_a_tower_map_that_kills_y_is_not_injective",
    },
    "groups.py": {
        ("parse_cycles", "no generators given"):
            "test_groups.py::test_parse_cycles_rejects_garbage",
        ("parse_cycles", "malformed cycle text: %r"):
            "test_groups.py::test_parse_cycles_rejects_garbage",
        ("parse_cycles", "unbalanced parenthesis in %r"):
            "test_groups.py::test_parse_cycles_rejects_garbage",
        ("parse_cycles", "non-integer point in %r"):
            "test_groups.py::test_parse_cycles_rejects_garbage",
        ("parse_cycles", "cycle points must be distinct and >= 1"):
            "test_groups.py::test_parse_cycles_rejects_garbage",
        ("parse_cycles", "degree %d too small for the points used"):
            "test_groups.py::test_parse_cycles_rejects_garbage",
        ("parse_cycles", "degree %d exceeds cap %d"):
            "test_groups.py::test_parse_cycles_refuses_past_the_caps",
        ("parse_cycles", "%d distinct generators exceed the order cap %d"):
            "test_groups.py::test_parse_cycles_refuses_past_the_caps",
        ("_closure", "group order exceeds cap %d"):
            "test_groups.py::test_group_validation",
        ("FiniteGroup.__init__", "not a permutation of 0..%d"):
            "test_groups.py::test_group_validation",
        ("cyclic_group", "order must be >= 1"):
            "test_groups.py::test_group_validation",
        ("dihedral_group", "need m >= 3"):
            "test_groups.py::test_group_validation",
        ("symmetric_group", "degree must be >= 1"):
            "test_groups.py::test_group_validation",
        ("alternating_group", "need m >= 3"):
            "test_groups.py::test_group_validation",
        ("quaternion_group", "quaternion construction came out wrong"):
            "test_groups.py::test_a_wrong_quaternion_table_fails_the_construction",
        ("sylow_subgroup", "p must be prime"):
            "test_groups.py::test_sylow_rejects_composite",
        ("sylow_subgroup", "greedy Sylow growth stalled; should not happen"):
            "test_groups.py::test_a_wrong_element_order_stalls_sylow_growth",
        ("has_normal_p_complement", "p must be prime"):
            "test_groups.py::test_complement_rejects_composite",
        ("has_normal_p_complement", "complement candidate is not normal"):
            "test_groups.py::test_a_wrong_element_order_fails_complement_normality",
        ("conjugation_nilpotent", "p must be prime"):
            "test_groups.py::test_s5_generator_path_matches_small_group_path",
        ("conjugation_nilpotent", "conjugation chain failed to descend"):
            "test_groups.py::test_conjugation_chain_certifies_descent",
        ("conjugation_nilpotent", "stable submodule is not G-invariant"):
            "test_groups.py::test_conjugation_chain_certifies_invariance",
    },
    "coeff.py": {
        ("is_prime", "cannot decide whether %d is prime: it passes the strong probable-prime "
         "tests to bases 2..41, which prove primality only below %d"):
            "test_coeff.py::test_is_prime_refuses_past_the_proven_bound",
        ("Context.__post_init__", "int context takes no parameters"):
            "test_coeff.py::test_context_validation",
        ("Context.__post_init__", "mod-p^N context needs a prime p"):
            "test_coeff.py::test_context_validation",
        ("Context.__post_init__", "mod-p^N context needs N >= 1"):
            "test_coeff.py::test_context_validation",
        ("Context.__post_init__", "unknown context kind %r"):
            "test_coeff.py::test_context_validation",
        ("Context.canon", "%s context wants int, got %r"):
            "test_coeff.py::test_canonical_form_mod",
        ("inverse", "constant term %d is not a unit mod %d"):
            "test_coeff.py::test_inverse_refuses_a_non_unit_constant_term",
    },
}

CLASS_ONLY = "input validation; the class is asserted by "

ALLOWED = {
    "homalg.py": {
        ("comparison_chain_map", "L must be >= 1"):
            CLASS_ONLY + "test_homalg.py::test_comparison_chain_map_validation",
    },
    "cochain.py": {
        ("RingElement._check_owner", "elements belong to different rings"):
            CLASS_ONLY + "test_cochain.py::test_cross_ring_operations_rejected",
        ("CyclicCochainRing.augmentation", "element belongs to a different ring"):
            CLASS_ONLY + "test_cochain.py::test_cross_ring_operations_rejected",
        ("CyclicCochainRing.from_series", "expected a TruncatedSeries"):
            CLASS_ONLY + "test_cochain.py::test_from_series_contract",
        ("CyclicCochainRing.from_series", "series context does not match the ring"):
            CLASS_ONLY + "test_cochain.py::test_from_series_contract",
        ("CyclicCochainRing.from_series",
         "series has %d known coefficients, need %d to pin the image"):
            CLASS_ONLY + "test_cochain.py::test_from_series_contract",
        ("make_cochain_ring", "r must be >= 1"):
            CLASS_ONLY + "test_cochain.py::test_make_cochain_ring_validation",
        ("make_cochain_ring", "need r < N so that p^r is a nonzero canonical lift"):
            CLASS_ONLY + "test_cochain.py::test_make_cochain_ring_validation",
        ("make_cochain_ring",
         "insufficient precision: law has M=%d, building A_%d at N=%d needs M>=%d"):
            CLASS_ONLY + "test_cochain.py::test_make_cochain_ring_validation",
        ("make_cochain_ring", "law context %s does not match requested N=%d"):
            CLASS_ONLY + "test_cochain.py::test_make_cochain_ring_validation",
        ("substitution_map", "k must be >= 1"):
            CLASS_ONLY + "test_cochain.py::test_substitution_validation",
    },
    "groups.py": {},
    "coeff.py": {},
}

ALLOWED_MAX = 11

TEST_ID = re.compile(r"(test_\w+\.py)::(test_\w+)")


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _raises(module):
    """{(qualname, message): exception class name} for every raise."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, prefix + child.name + ".")
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else None
                if isinstance(arg, ast.BinOp):
                    arg = arg.left
                msg = arg.value if isinstance(arg, ast.Constant) else None
                key = (prefix[:-1], msg)
                assert key not in out, key
                out[key] = _name(exc.func if isinstance(exc, ast.Call) else exc)
            walk(child, prefix)

    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        walk(ast.parse(fh.read()), "")
    return out


def _test_def(test_id):
    """The FunctionDef of a "test_file.py::test_name" id, or None."""
    fname, name = TEST_ID.fullmatch(test_id).groups()
    with open(os.path.join(HERE, fname), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == name), None)


def _asserted(test):
    """(class name, match pattern) of each pytest.raises(..., match=<literal>)."""
    out = []
    for node in ast.walk(test):
        if (isinstance(node, ast.Call) and _name(node.func) == "raises"
                and _name(getattr(node.func, "value", None)) == "pytest" and node.args):
            for kw in node.keywords:
                if kw.arg == "match" and isinstance(kw.value, ast.Constant):
                    out.append((_name(node.args[0]), kw.value.value))
    return out


def _matches(pattern, message):
    """pattern matches the literal message, or, written out, is a
    rendering of the format string message."""
    if re.search(pattern, message):
        return True
    template = ".*".join(re.escape(part) for part in re.split(r"%[-\d.]*[dsr]", message))
    written = re.sub(r"\\(.)", r"\1", pattern.lstrip("^").rstrip("$"))
    return re.fullmatch(template, written, re.S) is not None


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_is_provoked_or_allowed(module):
    sites = set(_raises(module))
    provoked, allowed = set(PROVOKED[module]), set(ALLOWED[module])
    assert provoked & allowed == set()
    assert sorted(sites - provoked - allowed, key=str) == []
    assert sorted((provoked | allowed) - sites, key=str) == []  # stale entries


@pytest.mark.parametrize("module", MODULES)
def test_each_provoking_test_asserts_class_and_message(module):
    classes = _raises(module)
    wrong = []
    for (qual, msg), test_id in PROVOKED[module].items():
        test = _test_def(test_id)
        if test is None or not any(cls == classes[qual, msg] and _matches(pattern, msg)
                                   for cls, pattern in _asserted(test)):
            wrong.append((qual, msg, test_id))
    assert wrong == []


def test_allowlist_only_shrinks():
    assert sum(len(entries) for entries in ALLOWED.values()) <= ALLOWED_MAX
    for entries in ALLOWED.values():
        for key, why in entries.items():
            assert why, key
            for found in TEST_ID.finditer(why):
                assert _test_def(found.group(0)) is not None, (key, why)


def test_input_checks_no_other_test_provokes():
    with pytest.raises(TypeError, match="^expected a FormalGroupLaw$"):
        cochain.make_cochain_ring("a law", 1)
    # an exact series over a p-adic context other than the ring's
    series = TruncatedSeries(padic_context(2, 6), (0, 1), True)
    with pytest.raises(cochain.ContextMismatch, match="^cannot reduce an exact series over "):
        ring_for(2, 2, 1).from_series(series)
    phi = cochain.substitution_map(law_for(2, 1), 2)
    with pytest.raises(ValueError, match="^element does not belong to the source ring$"):
        phi.apply(phi.target.y_elt)
