"""Byte-level golden outputs of the CLI.  Each case runs one command on one
spec and compares the sha256 of the bytes it writes against a pinned value,
so any change to a report, however small, fails here.  When an output is
meant to change, record the new hash and say why in the change log."""

import hashlib
import json
import os

import pytest

from hurwitz import cli


def _di(ell):
    return {"group": {"family": "affine2", "ell": ell, "k": 0, "order": 3},
            "classes": ["C+", "C+", "C-", "C-"], "equivalence": "inner"}


def _serre(ell):
    return {"group": {"family": "affine2", "ell": ell, "k": 0, "order": 2},
            "classes": ["2"] * 4, "equivalence": "inner"}


def _absolute(spec):
    return dict(spec, equivalence="absolute")


A4 = _di(2)
CASES = {
    "report-a4": (A4, "report", "acf4a292e704609d5bb4f0f33625bf2a"
                                "bb99dda61fed587e90b8ef287069e18e"),
    "report-di5": (_di(5), "report", "497ce75ed19ea580fccd897ff794707f"
                                     "6030cd95bda6e2cc1995766ecf7257c1"),
    "report-serre3": (_serre(3), "report",
                      "43dc9120c9cbd33f3a9a19acc8cc9888"
                      "ec18f7935435140358c2d5fb5ed0b5aa"),
    "report-dih9": ({"group": {"family": "dihedral", "m": 9},
                     "classes": ["2"] * 4, "equivalence": "inner"},
                    "report", "7fa84eaa664c084105c085c7e4f45de4"
                              "725734cef8404394968cbaf9161d76c8"),
    "report-a5-c34": ({"group": {"family": "alternating", "n": 5},
                       "classes": ["3"] * 4, "equivalence": "inner",
                       "T": "natural"},
                      "report", "806148547a107a64a2b8edcc0528a406"
                                "3c3fe4adda28ac08c4ac6b3c978030c7"),
    # S4 with T natural: two components, and no lift section (no cover)
    "report-s4-c3344": ({"group": {"family": "symmetric", "n": 4},
                         "classes": ["3", "3", "4", "4"],
                         "equivalence": "inner", "T": "natural"},
                        "report", "7106fd4ae435c89d629209ab00329f26"
                                  "7d6e59ab3a817dd6012b7959d1bdbda1"),
    "orbits-a4-absolute": (_absolute(A4), "orbits",
                           "e44e4a75d706f745ae1a51b85d16655c"
                           "733ff0a963f2e3b8e0d6c69faba85e87"),
    # absolute braid orbits glued from the inner ones (DI l=5: five inner
    # orbits over two absolute ones, four of them over one; Serre l=7:
    # six over two)
    "orbits-di5-absolute": (_absolute(_di(5)), "orbits",
                            "0faae69537ac71da31041ade6577a12b"
                            "df45272ffad3940ab80a92fe600bcce4"),
    "enumerate-di5-absolute": (_absolute(_di(5)), "enumerate",
                               "e2004d843120ec0372b8a1e6557551e6"
                               "069ee244b69725c4579d7594e63a4cda"),
    "orbits-serre7-absolute": (_absolute(_serre(7)), "orbits",
                               "bcd0a8865d9011b1cdd80daba6818117"
                               "edd5dd196b6f571d5de08f6feb4ec953"),
    "enumerate-serre7-absolute": (_absolute(_serre(7)), "enumerate",
                                  "e536c94cc6cc0eac3c1bebf18555ac2d"
                                  "5b229c64ec75513728cd265273b54458"),
    # the extension families as specs of their own: SL(2,3) = k22z3 l=2
    # has no built-in automorphism data (9 absolute forms), and heis2 l=3
    # has no cover of its own, so its report has no lift section (one
    # orbit of 72, degree 18, genus 0)
    "orbits-k22z3-sl23-absolute": (
        {"group": {"family": "k22z3", "ell": 2, "k": 0},
         "classes": ["3", "3_2", "3", "3_2"], "equivalence": "absolute"},
        "orbits", "be034fe9d4cbbc21b12dd69c83cdcdcd"
                  "28ab4cd312cf0e09f83466bdf4f5e94f"),
    "report-heis2-l3": (
        {"group": {"family": "heis2", "ell": 3, "k": 0},
         "classes": ["2", "2", "3_3", "3_4"], "equivalence": "inner"},
        "report", "f1fded82f2d3d7c4fcf92a317028051e"
                  "8415ddbdf1fcf5006f7f638c0ff2b3ef"),
    "tower-a4": (A4, "tower", "a733bbd98a20f8c3644624ff5728fa06"
                              "ad7cf0312154ec7be11d697eaeeb9ed2"),
    # child class Serre l=3 k=1: 1 337 of its 3 281 product-one forms do
    # not generate
    "tower-serre3": (_serre(3), "tower",
                     "e1694331851acf5cb55ff927c1545c00"
                     "1dada8eca4750c90df2b7acf121b11fb"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(tmp_path, case):
    spec, cmd, want = CASES[case]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert cli.run(["--spec", str(spec_file), "--cmd", cmd,
                    "--out", str(out)]) == cli.EXIT_OK
    with open(os.path.join(str(out), "%s.json" % cmd), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == want
