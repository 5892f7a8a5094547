"""Checks on the program source itself."""

import ast
import inspect
import re
from pathlib import Path

from hurwitz import braid, groups, lift, nielsen

SRC = Path(__file__).resolve().parent.parent / "src" / "hurwitz"


def test_no_assert_in_the_program():
    # python -O strips assert statements, so an oracle written as one
    # would be skipped silently; the program raises ConsistencyError
    files = sorted(SRC.glob("*.py"))
    assert files
    found = ["%s:%d" % (path.name, node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_one_engine_in_the_program():
    # the tuple-level engine and the set-based partition live in
    # tests/oracles.py: the program computes the orbits once, on the
    # numbered class, with groups.orbit_arrays
    moved = {braid: "q_untwist sh braid_moves orbit",
             nielsen: "is_nielsen apply_aut absolute_canonical canonical "
                      "unpinned_enumerate hm_detect di_detect Number",
             lift: "obstructed component_moduli_degree",
             groups: "Automorphism partition"}
    assert [(m.__name__, name) for m, names in moved.items()
            for name in names.split() if hasattr(m, name)] == []


def test_one_normalizer_action_in_the_program():
    # groups.automorphisms alone tests a map against the class multiset;
    # the families' maps are plain definitions, with no labels
    gone = {nielsen: "_aut_perm", groups: "_aut_preserves fallback_aut_gens"}
    assert [(m.__name__, name) for m, names in gone.items()
            for name in names.split() if hasattr(m, name)] == []
    families = [c for c in vars(groups).values()
                if isinstance(c, type) and issubclass(c, groups.GroupHandle)]
    assert [(c.__name__, meth) for c in families
            for meth in ("aut_gens", "coset_rep_auts")
            if list(inspect.signature(getattr(c, meth)).parameters)
            != ["self"]] == []


def test_one_cover_construction_in_the_program():
    # the lift covers are groups.Extension, built by Affine2.cover(), and
    # the tower steps are family methods: the names they replaced are gone
    gone = re.compile(r"\b(Heis2|K22Z3|CentralCover|central_extension|"
                      r"level_up|reduce_elem)\b")
    assert ["%s:%d" % (path.name, i)
            for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)] == []
    # lift reads covers and tower steps from the group: only _cover_for
    # reads a family name, for the A_n closed form
    tree = ast.parse((SRC / "lift.py").read_text())
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "family"}
    assert readers == {"_cover_for"}


def _functions(path):
    """The functions of a module by qualified name, methods as
    Class.method."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update(("%s.%s" % (node.name, f.name), f) for f in node.body
                       if isinstance(f, ast.FunctionDef))
    return out


def _calls(fn, attrs):
    """The names of the attribute calls x.name(...) in fn, name in attrs."""
    return sorted(node.func.attr for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in attrs)


def test_group_arithmetic_once_in_the_program():
    # the element tables compose conjugation and inverses from the
    # generators' product rows, and the coset actions read the tables:
    # none of these calls a handle's tuple-level conj or inv
    checked = {"groups.py": ("ElementTables.__init__", "cen_in_Sn"),
               "reduced.py": ("_psl2_sylow_cusp_type",)}
    found = {}
    for name, fns in checked.items():
        defs = _functions(SRC / name)
        found.update((fn, _calls(defs[fn], {"conj", "inv"})) for fn in fns)
    assert found == {fn: [] for fns in checked.values() for fn in fns}
    # the cosets of a subgroup are built in coset_numbers alone: no other
    # function hands right-multiplication columns to orbit_arrays
    builders = [(path.name, name) for path in sorted(SRC.glob("*.py"))
                for name, fn in _functions(path).items()
                if any(isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "orbit_arrays"
                       and _calls(node, {"right"})
                       for node in ast.walk(fn))]
    assert builders == [("groups.py", "coset_numbers")]
