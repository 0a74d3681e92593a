"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Each test prints a single pass/fail line; the underlying computations are
shared through a session-scoped run of the verification blocks.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from hochschild.verification import run_blocks

VERIFY_PAPER_SHA256 = \
    "a98ae6c1dcfb68b38919809266c1f5237b0c7bebd2da09d0d1c02c337b737442"


@pytest.fixture(scope="module")
def report():
    return run_blocks()


def block(report, name):
    for b in report["blocks"]:
        if b["name"] == name:
            return b
    raise AssertionError(f"missing block {name}")


def check(blk, fragment):
    hits = [c for c in blk["checks"] if fragment in c["name"]]
    if not hits:
        raise AssertionError(f"no check matching {fragment!r}")
    return hits


def announce(number, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{verdict}]: {text}")
    assert ok


def test_criterion_1_first_example_block(report):
    blk = block(report, "ex3_5")
    ok = blk["pass"]
    dims = check(blk, "dim hh^1(C) via bar")[0]
    ok = ok and dims["got"] == [1]
    dims = check(blk, "dim hh^1(B) via bar")[0]
    ok = ok and dims["got"] == [4]
    ok = ok and check(blk, "via derivations")[0]["pass"]
    ok = ok and check(blk, "rank 1 and surjective")[0]["pass"]
    ok = ok and check(blk, "kills the u1 and v1")[0]["pass"]
    ok = ok and check(blk, "u0 and -v0")[0]["pass"]
    ok = ok and check(blk, "bracket compatibility fails")[0]["pass"]
    ok = ok and check(blk, "isomorphic to the dual")[0]["verdict"] == "yes"
    announce(1, ok, "two-cycle example: dims 1/4, phi^1 classes, bracket "
                    "failure, ker p = dual")


def test_criterion_2_second_example_block(report):
    blk = block(report, "ex3_8")
    ok = blk["pass"]
    ok = ok and check(blk, "dim hh^1(C)")[0]["got"] == [2]
    ok = ok and check(blk, "dim hh^1(B)")[0]["got"] == [3]
    ok = ok and check(blk, "not surjective")[0]["rank"] == 1
    announce(2, ok, "loop example: dims 2/3, rank 1, not surjective")


def test_criterion_3_kernel_forms(report):
    blk = block(report, "kernel_forms")
    ok = blk["pass"]
    ok = ok and check(blk, "zero-pairing space")[0]["got"] == [1]
    ok = ok and check(blk, "4 = 2 + 1 + 1")[0]["dims"] == [4, 2, 1, 1]
    ok = ok and check(blk, "equals the zero-pairing")[0]["pass"]
    announce(3, ok, "zero-pairing block: dim 1, kernel identity 4=2+1+1, "
                    "symmetrization kernel matches")


def test_criterion_4_relation_extension_block(report):
    blk = block(report, "relext")
    ok = blk["pass"]
    ok = ok and check(blk, "one new arrow")[0]["pass"]
    ok = ok and check(blk, "potential is the single cycle")[0]["pass"]
    ok = ok and check(blk, "three derivatives plus the square")[0]["pass"]
    ok = ok and check(blk, "dim B = 10")[0]["dims"] == [10, 6, 4]
    ok = ok and check(blk, "hh^0..hh^3 of C")[0]["got"] == [1, 1, 1, 0]
    ok = ok and check(blk, "hh^0..hh^2 of B")[0]["got"] == [2, 2, 2]
    ok = ok and check(blk, "2 = 1 + 0 + 1")[0]["dims"] == [2, 1, 0, 1]
    ok = ok and check(blk, "phi^2 is the zero map")[0]["pass"]
    ok = ok and check(blk, "zero-pairing space of E_2 vanishes")[0]["pass"]
    ok = ok and check(blk, "hh^1(C, E_2)")[0]["got"] == [0]
    ok = ok and check(blk, "dim End(E_2)")[0]["got"] == [1]
    ok = ok and check(blk, "chain sets match")[0]["pass"]
    ok = ok and all(c["pass"] for c in check(blk, "resolution dims equal"))
    announce(4, ok, "relation extension: presentation, 10 = 6 + 4, dims, "
                    "phi^2 = 0, chain sets, resolution agreement")


def test_criterion_5_surjectivity_corollaries(report):
    blk = block(report, "surjectivity")
    ok = blk["pass"]
    duals = check(blk, "|x dual")
    regulars = check(blk, "|x regular")
    exts = check(blk, "|x ext^")
    ok = ok and len(duals) == 6 and len(regulars) == 6 and len(exts) == 18
    announce(5, ok, "phi^0..phi^2 surjective for dual/regular extensions of "
                    "6 algebras; phi^1 + witness for 18 ext-coefficient "
                    "extensions")


def test_criterion_6_structural_identities(report):
    blk = block(report, "identities")
    ok = blk["pass"]
    ok = ok and len(check(blk, "b o b = 0")) == 6
    ok = ok and len(check(blk, "projection chain identity")) == 15
    ok = ok and len(check(blk, "cup compatibility")) == 15
    ok = ok and len(check(blk, "chain map on")) == 6
    ok = ok and len(check(blk, "derivation splittings")) >= 6
    ok = ok and all(c["pass"] for c in check(blk, "graded commutativity"))
    announce(6, ok, "b o b = 0, chain identities, cup compatibility, "
                    "derivation splittings, graded commutativity")


def test_criterion_7_oracle_equivalence(report):
    blk = block(report, "oracles")
    ok = blk["pass"]
    ok = ok and len(check(blk, "via derivations equals")) >= 8
    ok = ok and len(check(blk, "resolution dims equal")) == 4
    announce(7, ok, "derivations route == bar route; resolution dims == "
                    "bar dims on the monomial corpus")


def test_criterion_8_determinism():
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "hochschild.cli", "verify-paper"],
            capture_output=True)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    announce(8, ok, "two verify-paper runs are byte-identical")
    body = json.loads(runs[0])
    assert body["results"]["pass"] is True
    assert body["timing"] is None
    # The canonical output itself.  A deliberate change of the output must
    # update this hash and record the change in CHANGES.md.
    assert hashlib.sha256(runs[0]).hexdigest() == VERIFY_PAPER_SHA256
