"""A register of source mutants that the test suite must kill.

Each mutant names a module of src/openbooks, an anchor text that occurs in
it exactly once, the text that replaces it, and the tests that must fail
once it is applied.  So every exact check that a mutant removes or bends
stays load-bearing: a change that lets one of them survive has made a
check dead.

    python tests/mutants.py

copies the checkout's src/, tests/, perfbench/ and pyproject.toml into a
temporary directory, runs every named test there once on the unchanged
copy (all must pass), then applies each mutant in turn to a fresh copy of
src/openbooks and runs its tests in a subprocess, one at a time.  It
prints one line per mutant and exits 1 if any survives.  pytest does not
collect this file; test_source.py checks that every anchor occurs exactly
once and that every named test exists.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # a module of src/openbooks
    anchor: str
    replacement: str
    tests: tuple  # pytest ids, relative to the checkout root


MUTANTS = (
    Mutant("c_squared_sign", "d3.py",
           "Fraction(-corner, det), q_plus", "Fraction(corner, det), q_plus",
           ("tests/test_d3.py::test_verdict_1_1",
            "tests/test_d3.py::test_verdict_consistency_and_lens_match")),
    Mutant("corner_u_squared", "linalg.py",
           "bordered[i] = _exact_div(piv * corner - u * u, top)",
           "bordered[i] = _exact_div(piv * corner, top)",
           ("tests/test_d3.py::test_family_1_1_exact_data",
            "tests/test_linalg.py::test_one_pass_matches_oracles_with_several_right_hand_sides")),
    Mutant("polarization_a_jj", "d3.py",
           "coefficient -= block[i, i] + block[j, j]", "coefficient -= block[i, i]",
           ("tests/test_d3.py::test_census_rot_ranges_and_parity",)),
    Mutant("d3_denominator_check", "d3.py",
           "if numerator % bound:", "if numerator % 1:",
           ("tests/test_d3.py::test_d3_denominator_check_holds_for_rational_input",)),
    Mutant("jacobi_rule", "linalg.py",
           "return sum(a * b for a, b in zip(signs, signs[1:]))", "return sum(signs[1:])",
           ("tests/test_d3.py::test_calibration_cancelling_pair",
            "tests/test_linalg.py::test_signature_matches_charpoly_oracle")),
    Mutant("lazy_rescale", "linalg.py",
           "        if s != len(d) - 1:\n            prow =",
           "        if False:\n            prow =",
           ("tests/test_linalg.py::test_det_matches_leibniz_on_random_integer_matrices",
            "tests/test_linalg.py::test_trees_with_chords_match_dense_oracles")),
    Mutant("refold_closed_star", "diagram.py",
           "if v != centre and parent != centre and v != above:", "if False:",
           ("tests/test_kirby.py::test_moves_outside_one_closed_star_or_splitting_the_tree_are_not_refolded",
            "tests/test_kirby.py::test_random_move_scripts_record_oracle_h1")),
    Mutant("refold_region_spans_a_subtree", "diagram.py",
           "if walked is not None and walked[1] == 1:", "if walked is not None:",
           ("tests/test_kirby.py::test_moves_outside_one_closed_star_or_splitting_the_tree_are_not_refolded",
            "tests/test_kirby.py::test_random_move_scripts_record_oracle_h1")),
    # a walk that skips an edge closing a cycle, in place of stopping there,
    # folds a graph with a cycle as if it were a tree
    Mutant("fold_walk_finds_cycles", "diagram.py",
           "if u in parent:\n                            return None",
           "if u in parent:\n                            continue",
           ("tests/test_kirby.py::test_h1_eliminates_only_graphs_with_a_cycle",
            "tests/test_kirby.py::test_moves_outside_one_closed_star_or_splitting_the_tree_are_not_refolded")),
    Mutant("script_copies_its_adjacency", "diagram.py",
           "self._adjacency = dict(d._adjacency)", "self._adjacency = d._adjacency",
           ("tests/test_kirby.py::test_a_script_never_touches_its_input",)),
    Mutant("row_copied_on_first_write", "diagram.py",
           "row = adjacency[vid] = dict(adjacency[vid])", "row = adjacency[vid]",
           ("tests/test_kirby.py::test_a_script_never_touches_its_input",)),
    Mutant("move_h1_check", "diagram.py",
           "        if after != before:\n", "        if False:\n",
           ("tests/test_kirby.py::test_move_data_that_changes_h1_is_refused",)),
    Mutant("canonical_key_order", "serialize.py",
           "for key in sorted(obj):", "for key in obj:",
           ("tests/test_kirby.py::test_family_move_logs_golden",
            "tests/test_report_cli.py::test_cli_d3_family_builds_the_presentation_once")),
    Mutant("family_chain_direction", "kirby.py",
           "if framings != expected:", "if framings != expected[::-1]:",
           ("tests/test_kirby.py::test_reduce_family_chain_shape",)),
    Mutant("slid_stack_diagonal", "d3.py",
           "rows.append({j - 1: -sign, j: 2 * sign})", "rows.append({j - 1: -sign, j: sign})",
           ("tests/test_d3.py::test_verdict_consistency_and_lens_match",
            "tests/test_d3.py::test_verdict_at_the_size_limit_matches_closed_forms")),
    # -eps and +eps links are one congruence apart (negate the later
    # members), so the mutant drops the links instead of flipping them
    Mutant("slid_stack_off_diagonal", "d3.py",
           "            rows[j - 1][j] = -sign\n            rows.append({j - 1: -sign, j: 2 * sign})",
           "            rows.append({j: 2 * sign})",
           ("tests/test_d3.py::test_verdict_1_1",
            "tests/test_d3.py::test_verdict_consistency_and_lens_match")),
    # the first member of each stack, and each unstacked knot, framed tb
    # without its contact coefficient: the calibration's pair goes singular
    Mutant("slid_first_member_diagonal", "d3.py",
           "(i, c.tb + sign)", "(i, c.tb)",
           ("tests/test_d3.py::test_calibration_cancelling_pair",
            "tests/test_d3.py::test_cancelling_pair_insertion_never_changes_d3")),
    Mutant("first_member_linking", "d3.py",
           "rows[i][j] = rows[j][i] = w", "rows[i][j] = rows[j][i] = 2 * w",
           ("tests/test_d3.py::test_verdict_1_1",
            "tests/test_d3.py::test_verdict_consistency_and_lens_match")),
    Mutant("expansion_counts_check", "report.py",
           "plus == k + 1 and minus == h", "True",
           ("tests/test_report_cli.py::test_a_wrong_expansion_fails_its_named_checks",)),
    Mutant("move_log_h1_constant_check", "report.py",
           "all(r.h1_before == order and r.h1_after == order\n                       for r in reduced.move_log)",
           "True",
           ("tests/test_report_cli.py::test_a_move_log_record_off_the_order_fails_move_log_h1_constant",)),
    Mutant("verdict_consistent_check", "report.py",
           "verdict.certified == (verdict.d3_value not in verdict.census_d3)", "True",
           ("tests/test_report_cli.py::test_a_wrong_verdict_fails_h1_equals_lens_p_and_verdict_consistent",)),
    Mutant("h1_equals_lens_p_check", "report.py",
           "reduced.h1 == lens_formula.p", "True",
           ("tests/test_report_cli.py::test_a_wrong_verdict_fails_h1_equals_lens_p_and_verdict_consistent",)),
    Mutant("expanded_det_matches_check", "report.py",
           "abs(verdict.det) == order", "True",
           ("tests/test_report_cli.py::test_a_wrong_expansion_fails_its_named_checks",
            "tests/test_report_cli.py::test_a_wrong_linking_fails_expanded_det_matches")),
)


def source_path(mutant, root=ROOT):
    return root / "src" / "openbooks" / mutant.file


def _copy_checkout(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _failed(tests, cwd):
    """The pytest ids among `tests` that fail in the checkout copy at cwd,
    or None when pytest could not run them (a usage or collection error)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=cwd, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        return None
    lines = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return {t for t in tests if any(f == t or f.startswith(t + "[") for f in lines)}


def main():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy_checkout(copy)
        control = _failed(sorted({t for m in MUTANTS for t in m.tests}), copy)
        if control != set():
            print(f"the unmutated copy does not pass its tests: {control}")
            return 2
        survived = 0
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            shutil.rmtree(copy / "src")
            shutil.copytree(ROOT / "src", copy / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            path = source_path(mutant, copy)
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.anchor) != 1:
                raise SystemExit(f"{mutant.name}: anchor must occur exactly once in {mutant.file}")
            path.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
            failed = _failed(mutant.tests, copy)
            missed = None if failed is None else sorted(set(mutant.tests) - failed)
            if failed is None or missed:
                survived += 1
            status = ("killed" if missed == [] else
                      "ERROR (pytest did not run)" if failed is None else f"SURVIVED {missed}")
            print(f"{mutant.name:32} {status}  {time.perf_counter() - t0:.1f} s", flush=True)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
