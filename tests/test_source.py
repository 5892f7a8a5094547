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
