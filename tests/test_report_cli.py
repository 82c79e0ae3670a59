import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import openbooks
from openbooks import certcheck, linalg
from openbooks.cli import main
from openbooks.contact import ContactSurgeryDiagram, presentation_for
from openbooks.d3 import INCONCLUSIVE, OVERTWISTED_CERTIFIED, overtwisted_verdict
from openbooks.lens import LensSpace
from openbooks.pages import family_word
from openbooks.report import InternalCheckError, run_family, run_sweep
from openbooks.serialize import canonical_dumps, canonical_line
from openbooks.veering import prove_right_veering

# the package re-exports the function d3 under the submodule's name
d3_module = importlib.import_module("openbooks.d3")
report_module = importlib.import_module("openbooks.report")


def test_run_family_1_1():
    report = run_family(1, 1)
    assert report.lens == LensSpace(4, 3)
    assert report.order == 4
    assert report.verdict.status == OVERTWISTED_CERTIFIED
    assert report.verdict.d3_value == Fraction(1, 2)
    assert report.destabilization.conclusion == "NOT_DESTABILIZABLE"
    assert all(ok for _, ok in report.checks)
    assert dict(report.checks)["lens_chain_equals_formula"]


def test_run_family_validates_its_certificate_once(monkeypatch):
    calls = []
    check = certcheck.check_certificate
    monkeypatch.setattr(certcheck, "check_certificate", lambda cert: calls.append(cert) or check(cert))
    report = run_family(2, 3)
    assert len(calls) == 1
    assert [name for name, ok in report.checks if ok] == [
        "lens_chain_equals_formula", "h1_equals_order_formula", "h1_equals_lens_p",
        "move_log_h1_constant", "verdict_consistent", "expanded_det_matches",
        "expansion_counts", "certificate_validates", "destabilization_closes",
    ]


def test_a_valid_certificate_of_another_word_fails_certificate_validates(monkeypatch, capsys):
    other = prove_right_veering(family_word(2, 2))
    assert certcheck.check_certificate(other)
    monkeypatch.setattr(report_module, "prove_right_veering", lambda word: other)
    with pytest.raises(InternalCheckError) as err:
        run_family(1, 1)
    assert str(err.value).endswith(": certificate_validates, destabilization_closes")
    assert main(["family", "--h", "1", "--k", "1"]) == 3
    assert "certificate_validates" in capsys.readouterr().err


def test_run_family_2_1_lens():
    assert run_family(2, 1).lens == LensSpace(5, 4)


def test_run_family_usage_errors():
    with pytest.raises(ValueError):
        run_family(0, 1)


def test_report_json_roundtrip_is_byte_identical():
    report = run_family(2, 2)
    for verbose in (False, True):
        payload = report.to_jsonable(verbose=verbose)
        text = canonical_dumps(payload)
        assert canonical_dumps(json.loads(text)) == text
        line = canonical_line(payload)
        assert canonical_line(json.loads(line)) == line


def test_report_verbose_gates_move_log():
    report = run_family(1, 2)
    assert "moves" not in report.to_jsonable(verbose=False)["reduced_diagram"]
    verbose = report.to_jsonable(verbose=True)
    assert len(verbose["reduced_diagram"]["moves"]) == len(report.reduced.move_log)
    assert "tree" in verbose["certificate"]


def test_rationals_serialized_as_strings():
    payload = run_family(1, 1).to_jsonable()
    assert payload["verdict"]["d3"] == "1/2"
    assert payload["contact_diagram"]["components"][0]["coeff"] == "1/2"
    assert payload["chain"] == ["-2", "-2", "-2"]
    text = canonical_dumps(payload)
    assert "0.5" not in text


def test_run_sweep_consistency(tmp_path):
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(2, 2, str(out))
    assert summary["rows"] == 4
    assert summary["verdicts"] == {OVERTWISTED_CERTIFIED: 4}
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first == run_family(1, 1).to_jsonable()
    # deterministic h-major ordering
    hk = [(json.loads(l)["h"], json.loads(l)["k"]) for l in lines]
    assert hk == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_run_sweep_golden_output(tmp_path):
    # byte-identical canonical output of the paper's 10 x 10 grid, whose
    # expanded diagrams are written as pushoff stacks
    out = tmp_path / "rows.jsonl"
    run_sweep(10, 10, out)
    data = out.read_bytes()
    assert len(data) == 386_753
    assert hashlib.sha256(data).hexdigest() == (
        "142c6a3490a34d4d9a46be17da78623bda94402f26ddfc76fbcf8d5a16c9fbba"
    )


def test_run_sweep_golden_output_apart_from_the_expanded_diagrams(tmp_path):
    # every field but expanded_diagram has the bytes it had when the
    # expansion wrote each pushoff linking out
    out = tmp_path / "rows.jsonl"
    run_sweep(10, 10, out)
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        del row["expanded_diagram"]
    data = "".join(canonical_line(row) + "\n" for row in rows).encode("utf-8")
    assert len(data) == 362_713
    assert hashlib.sha256(data).hexdigest() == (
        "38a27755a46a3e4a970fe962d6c778c1ecc381083b57984514299f860b78a3ee"
    )


def test_family_report_work_grows_linearly(monkeypatch):
    # a work count, not a wall time: from h + k = 1,000 to 4,000 the report's
    # JSON and the elimination's exact divisions grow about 4x (all pushoff
    # linkings, as written before the stacks, would grow 16x)
    work = []
    for h, k in ((500, 500), (2000, 2000)):
        divisions = []
        exact_div = linalg._exact_div
        monkeypatch.setattr(linalg, "_exact_div", lambda x, d: divisions.append(1) or exact_div(x, d))
        line = canonical_line(run_family(h, k).to_jsonable())
        monkeypatch.undo()
        work.append((len(line), len(divisions)))
    (small_bytes, small_divs), (big_bytes, big_divs) = work
    assert 3 * small_bytes < big_bytes < 5 * small_bytes
    assert 3 * small_divs < big_divs < 5 * small_divs


def test_a_wrong_expansion_fails_its_named_checks(monkeypatch):
    # the verdict's expansion one pushoff short in K_e's stack: both the
    # stack counts and |det Q| against the Kirby route's |H1| miss
    monkeypatch.setattr(d3_module, "presentation_for", lambda h, k: presentation_for(h, k - 1))
    with pytest.raises(InternalCheckError) as err:
        run_family(2, 3)
    assert str(err.value).endswith(": expanded_det_matches, expansion_counts")


def test_a_wrong_linking_fails_expanded_det_matches(monkeypatch):
    # the right stacks on the wrong linking: only |det Q| misses
    def relinked(h, k):
        d = presentation_for(h, k)
        return ContactSurgeryDiagram(d.knots, (("K_a", "K_e", -1),))

    monkeypatch.setattr(d3_module, "presentation_for", relinked)
    with pytest.raises(InternalCheckError) as err:
        run_family(2, 3)
    assert str(err.value).endswith(": expanded_det_matches")


def test_a_wrong_verdict_fails_h1_equals_lens_p_and_verdict_consistent(monkeypatch):
    # a verdict on the wrong lens space whose status disagrees with its own
    # census comparison: the Kirby route's |H1| misses the lens's p and the
    # status misses the comparison, and the error names every failed check
    def wrong(h, k):
        v = overtwisted_verdict(h, k)
        assert v.certified and v.d3_value not in v.census_d3
        return dataclasses.replace(v, lens=LensSpace(7, 1), status=INCONCLUSIVE)

    monkeypatch.setattr(report_module, "overtwisted_verdict", wrong)
    with pytest.raises(InternalCheckError) as err:
        run_family(2, 3)
    assert str(err.value).endswith(
        ": lens_chain_equals_formula, h1_equals_lens_p, verdict_consistent")


def test_a_move_log_record_off_the_order_fails_move_log_h1_constant(monkeypatch):
    # a reduction that ends on the right chain but logs one move's |H1|
    # before or after as one more than the order: only the log check misses
    import openbooks.report as report_module
    from openbooks.diagram import FramedLinkDiagram
    from openbooks.kirby import reduce_family_diagram

    d = reduce_family_diagram(2, 3)
    for field in ("h1_before", "h1_after"):
        log = list(d.move_log)
        log[4] = log[4]._replace(**{field: log[4].h1_after + 1})
        monkeypatch.setattr(report_module, "reduce_family_diagram",
                            lambda h, k, log=tuple(log): FramedLinkDiagram(d.vertices, d.edges, log))
        with pytest.raises(InternalCheckError) as err:
            run_family(2, 3)
        assert str(err.value).endswith(": move_log_h1_constant")


def test_a_wrong_reduction_fails_every_check_that_reads_it(monkeypatch):
    # the reduction of (2, 4) handed to the report of (2, 3): its chain's
    # lens space, its |H1| and every |H1| its log records miss
    from openbooks.kirby import reduce_family_diagram

    monkeypatch.setattr(report_module, "reduce_family_diagram",
                        lambda h, k: reduce_family_diagram(h, k + 1))
    with pytest.raises(InternalCheckError) as err:
        run_family(2, 3)
    assert str(err.value).endswith(": lens_chain_equals_formula, h1_equals_order_formula, "
                                   "h1_equals_lens_p, move_log_h1_constant")


def test_a_destabilization_report_that_does_not_close_fails_destabilization_closes(monkeypatch):
    # a validated certificate, but a report that concludes otherwise or
    # leaves a computed step unverified: only the closing check misses
    real = report_module.destabilization_report

    def other_conclusion(*args):
        return dataclasses.replace(real(*args), conclusion="DESTABILIZABLE")

    def unverified(*args):
        report = real(*args)
        steps = tuple(dataclasses.replace(s, verified=False) if s.kind == "computed" else s
                      for s in report.steps)
        return dataclasses.replace(report, steps=steps)

    for wrong in (other_conclusion, unverified):
        monkeypatch.setattr(report_module, "destabilization_report", wrong)
        with pytest.raises(InternalCheckError) as err:
            run_family(2, 3)
        assert str(err.value).endswith(": destabilization_closes")


def test_run_sweep_io_error():
    with pytest.raises(OSError, match="no/such/dir"):
        run_sweep(1, 1, "/no/such/dir/out.jsonl")


def test_run_sweep_bounds():
    with pytest.raises(ValueError):
        run_sweep(0, 5)


def test_cli_family_text_and_json(capsys):
    assert main(["family", "--h", "1", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "L(4,3)" in out
    assert "OVERTWISTED_CERTIFIED" in out
    assert "NOT_DESTABILIZABLE" in out

    assert main(["family", "--h", "1", "--k", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lens"] == {"p": 4, "q": 3}
    assert payload["verdict"]["d3"] == "1/2"


def test_cli_usage_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--h", "0", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_internal_check_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(d3_module, "family_lens", lambda h, k: LensSpace(7, 1))
    assert main(["family", "--h", "1", "--k", "1"]) == 3
    err = capsys.readouterr().err
    assert "lens_chain_equals_formula" in err


def test_cli_lens_verbs(capsys):
    assert main(["lens", "cf", "8/5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "p": 8, "q": 5, "cf": [2, 3, 2], "chain": [-2, -3, -2]
    }
    assert main(["lens", "chain", "[-2,-3,-2]", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["p"], payload["q"]) == (8, 5)
    assert main(["lens", "eq", "7,2", "7,4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    assert main(["lens", "eq", "4,1", "4,3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is False
    assert main(["lens", "eq", "4,1", "4,3", "--unoriented", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    # a negative first number is an argument, not an option: p, q and -p, -q
    # are one lens space, and a negative rational has no expansion
    assert main(["lens", "eq", "5,2", "-5,-2"]) == 0
    assert capsys.readouterr().out == "L(5,2) = L(5,2)\n"
    assert main(["lens", "cf", "-3/2"]) == 2
    assert "expansion needs x > 1" in capsys.readouterr().err


def test_cli_lens_chain_comma_form_with_a_negative_first_framing(capsys):
    # argparse would read "-2,-3" as an unknown option; every form prints
    # the same, with --json before or after the framings
    for flags in ([], ["--json"]):
        outputs = []
        for argv in (["-2,-3", *flags], [*flags, "-2,-3"], [*flags, "--", "-2,-3"],
                     [*flags, "[-2,-3]"]):
            assert main(["lens", "chain", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == [outputs[0]] * 4
    assert json.loads(outputs[0]) == {"cf": [2, 3], "chain": [-2, -3], "p": 5, "q": 3}
    # the form is still checked: integers only
    assert main(["lens", "chain", "-2,x"]) == 2
    assert "expected a list of integer framings" in capsys.readouterr().err


def test_cli_census(capsys):
    assert main(["census", "4", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["census"][0]["d3"] == "1/4"


def test_cli_d3_family(capsys):
    assert main(["d3", "family", "1", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d3"] == "1/2"
    assert payload["Q"] == [[-1, -2, -2], [-2, -1, -2], [-2, -2, -4]]
    assert payload["rho"] == [-1, -1, -2]
    assert payload["sigma"] == -1
    assert payload["c_squared"] == "-1"
    assert payload["q_plus"] == 2
    assert payload["status"] == OVERTWISTED_CERTIFIED


def test_cli_d3_family_at_the_size_limit(capsys):
    # h + k + 1 = 201 = MAX_D3_FAMILY_DIM: the rows come slid from the stacks
    assert main(["d3", "family", "100", "100", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det"] == -20101
    assert payload["sigma"] == -1
    assert payload["c_squared"] == "-30001/20101"
    assert payload["status"] == OVERTWISTED_CERTIFIED


def test_cli_family_at_the_size_limit(capsys):
    # h + k + 1 = 10001 = MAX_FAMILY_DIM: every stage is O(h + k), and so is
    # the report, whose expanded diagram holds two stacks
    assert main(["family", "--h", "5000", "--k", "5000", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h1_order"] == 5001 * 9999 + 2
    assert payload["expanded_diagram"]["stacks"] == [
        {"companion": "K_a", "count": 5000, "sign": -1}, {"companion": "K_e", "count": 5001, "sign": 1}]
    assert all(payload["checks"].values())
    assert main(["family", "--h", "5000", "--k", "5001"]) == 2


def test_cli_d3_family_builds_the_presentation_once(monkeypatch, capsys):
    calls = []
    build = d3_module.from_expanded_diagram

    def counting(d):
        calls.append(d)
        return build(d)

    monkeypatch.setattr(d3_module, "from_expanded_diagram", counting)
    assert main(["d3", "family", "3", "2", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(calls) == 1
    # the same bytes as when Q and rho came from a second build
    assert len(out) == 739
    assert hashlib.sha256(out).hexdigest() == (
        "58b450123f50aa82b225619a89102d2285d0a0d7084f8c998851772639b9b96f"
    )


def test_cli_rv_prove_and_check(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["rv", "prove", "--h", "2", "--k", "2", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    assert main(["rv", "check", str(cert_path)]) == 0
    assert "valid" in capsys.readouterr().out

    data = json.loads(cert_path.read_text())
    data["goals"]["∂d"]["children"][1]["arc"] = "γ_ab"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    assert main(["rv", "check", str(bad_path)]) == 3
    assert "INVALID" in capsys.readouterr().err


def test_cli_kirby_replay(tmp_path, capsys):
    from openbooks.contact import presentation_for, smooth_diagram

    diagram_path = tmp_path / "diagram.json"
    script_path = tmp_path / "script.json"
    d = smooth_diagram(presentation_for(1, 1))
    diagram_path.write_text(canonical_dumps(d.to_jsonable()))
    script_path.write_text(json.dumps([
        {"move": "blow_up", "args": {"sign": 1, "star": {"K_e": 1, "K_a": 1}, "id": "p1"}},
        {"move": "blow_down", "args": {"vertex": "p1"}},
    ]))
    assert main([
        "kirby", "replay",
        "--diagram", str(diagram_path),
        "--script", str(script_path),
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h1_order"] == 4
    assert len(payload["moves"]) == 2

    script_path.write_text(json.dumps([
        {"move": "blow_down", "args": {"vertex": "K_e"}},
    ]))
    assert main([
        "kirby", "replay",
        "--diagram", str(diagram_path),
        "--script", str(script_path),
    ]) == 3  # illegal move: framing is not +-1
    assert "error" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    assert main(["sweep", "--hmax", "1", "--kmax", "2", "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == 2
    assert out.exists()


def test_internal_check_error_reports_first_violation(monkeypatch):
    monkeypatch.setattr(d3_module, "family_lens", lambda h, k: LensSpace(7, 1))
    with pytest.raises(InternalCheckError, match="lens_chain_equals_formula"):
        run_family(1, 1)


def test_internal_check_error_names_every_failed_check(monkeypatch):
    # L(7, 1) is neither the chain's lens space nor of order |H1| = 4
    monkeypatch.setattr(d3_module, "family_lens", lambda h, k: LensSpace(7, 1))
    with pytest.raises(InternalCheckError) as err:
        run_family(1, 1)
    assert str(err.value).endswith(": lens_chain_equals_formula, h1_equals_lens_p")


_REPLAY = ["kirby", "replay", "--diagram", "d.json", "--script", "s.json"]
_ONE_UNKNOT = {"vertices": [{"id": "x", "framing": "1"}]}
_DEEP = "[" * 100_000 + "]" * 100_000  # json.dumps cannot write this depth


@pytest.mark.parametrize("files, argv", [
    pytest.param({"d.json": _ONE_UNKNOT, "s.json": [{"move": "blow_up", "args": {"star": {"x": 1}}}]},
                 _REPLAY, id="blow_up_without_sign"),
    pytest.param({"d.json": {"vertices": [{"id": "x", "framing": "1/0"}]}, "s.json": []},
                 _REPLAY, id="zero_denominator_framing"),
    pytest.param({}, ["lens", "cf", "1/0"], id="lens_cf_zero_denominator"),
    pytest.param({"c.json": {"goals": []}}, ["rv", "check", "c.json"],
                 id="certificate_goals_not_an_object"),
    pytest.param({"c.json": {"word": 5, "goals": {}}}, ["rv", "check", "c.json"],
                 id="certificate_word_not_a_list"),
    pytest.param({"c.json": {"word": [["z", 1]], "goals": {}}}, ["rv", "check", "c.json"],
                 id="certificate_word_unknown_curve"),
    pytest.param({"d.json": _ONE_UNKNOT, "s.json": [{"move": "blow_down", "args": {"vertex": ["a"]}}]},
                 _REPLAY, id="replay_vertex_not_a_string"),
    pytest.param({"d.json": _ONE_UNKNOT,
                  "s.json": [{"move": "inverse_slam_dunk", "args": {"vertex": "x", "n": [1]}}]},
                 _REPLAY, id="replay_n_not_an_integer"),
    pytest.param({"d.json": _ONE_UNKNOT, "s.json": 5}, _REPLAY, id="replay_script_not_a_list"),
    # an argument the move does not have was once dropped: a blow-up with no star
    pytest.param({"d.json": _ONE_UNKNOT,
                  "s.json": [{"move": "blow_up", "args": {"sign": 1, "stra": {"x": 1}}}]},
                 _REPLAY, id="replay_unknown_argument"),
    pytest.param({"d.json": _ONE_UNKNOT,
                  "s.json": [{"move": "blow_up", "args": {"sign": 1, "star": [["x", 1], ["x", 2]]}}]},
                 _REPLAY, id="replay_star_names_an_id_twice"),
    pytest.param({"d.json": {"vertices": [{"id": ["a"], "framing": "1"}]}, "s.json": []},
                 _REPLAY, id="diagram_vertex_id_not_a_string"),
    pytest.param({"d.json": {"vertices": [{"id": "a", "framing": "1"}, {"id": 5, "framing": "1"}],
                             "edges": [["a", 5, 1]]}, "s.json": []},
                 _REPLAY, id="diagram_edge_id_not_a_string"),
    pytest.param({"d.json": {"vertices": [{"id": "x", "framing": 0.1}]}, "s.json": []},
                 _REPLAY, id="diagram_float_framing"),
    # lists given as an object or a string were once read as empty lists
    pytest.param({"d.json": {"vertices": {}, "edges": {}}, "s.json": []},
                 _REPLAY, id="diagram_lists_given_as_objects"),
    pytest.param({"d.json": {"vertices": [{"id": "x", "framing": "1", "unknot": 1}]}, "s.json": []},
                 _REPLAY, id="diagram_unknot_not_a_bool"),
    pytest.param({"d.json": {"vertices": [{"id": "a", "framing": "1"}, {"id": "b", "framing": "1"}],
                             "edges": [["a", "b", True]]}, "s.json": []},
                 _REPLAY, id="diagram_bool_edge_weight"),
    pytest.param({"d.json": {"vertices": [{"id": "a", "framing": "1"}, {"id": "b", "framing": "1"}],
                             "edges": [["a", "b", 1.5]]}, "s.json": []},
                 _REPLAY, id="diagram_float_edge_weight"),
    pytest.param({"c.json": {"word": [["a", 1.5]], "goals": {}}}, ["rv", "check", "c.json"],
                 id="certificate_word_float_exponent"),
    pytest.param({"c.json": {"word": [["a", True]], "goals": {}}}, ["rv", "check", "c.json"],
                 id="certificate_word_bool_exponent"),
    pytest.param({"c.json": {"word": {}, "goals": {}}}, ["rv", "check", "c.json"],
                 id="certificate_word_an_object"),
    pytest.param({"c.json": {"word": [], "goals": {"∂a": {"rule": "POS", "boundary": "∂a",
                                                          "word": [], "children": 5}}}},
                 ["rv", "check", "c.json"], id="certificate_children_not_a_list"),
    pytest.param({}, ["family", "--h", "10000", "--k", "1"], id="family_above_limit"),
    pytest.param({}, ["d3", "family", "1", "200"], id="d3_family_above_limit"),
    pytest.param({}, ["sweep", "--hmax", "21", "--kmax", "1"], id="sweep_above_limit"),
    pytest.param({}, ["census", "1001", "1"], id="census_above_limit"),
    pytest.param({"d.json": {"vertices": [{"id": "x", "framing": "1e1000000"}]}, "s.json": []},
                 _REPLAY, id="diagram_exponent_framing"),
    pytest.param({}, ["lens", "cf", "1.6"], id="lens_cf_decimal"),
    pytest.param({}, ["lens", "cf", "10002/10001"], id="lens_cf_above_limit"),
    pytest.param({}, ["lens", "cf", "-3/2"], id="lens_cf_negative"),
    pytest.param({}, ["lens", "chain", "[1.5]"], id="lens_chain_float"),
    pytest.param({}, ["lens", "chain", "[-2,-2.0]"], id="lens_chain_integral_float"),
    pytest.param({}, ["lens", "chain", "[true]"], id="lens_chain_bool"),
    pytest.param({}, ["lens", "chain", "[1e400]"], id="lens_chain_infinite_float"),
    pytest.param({}, ["lens", "eq", "0,0", "1,0"], id="lens_eq_zero_over_zero"),
    # raw text, nested past the JSON decoder's recursion limit
    pytest.param({"c.json": _DEEP}, ["rv", "check", "c.json"], id="certificate_nested_too_deep"),
    pytest.param({"d.json": _DEEP, "s.json": []}, _REPLAY, id="diagram_nested_too_deep"),
    pytest.param({"d.json": _ONE_UNKNOT, "s.json": _DEEP}, _REPLAY, id="script_nested_too_deep"),
    pytest.param({}, ["lens", "chain", "[" * 5000 + "]" * 5000], id="lens_chain_nested_too_deep"),
])
def test_cli_malformed_input_exits_2_without_traceback(tmp_path, files, argv):
    for name, doc in files.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    # a fresh interpreter, so an escaping exception would print a traceback
    env = dict(os.environ)
    src = str(Path(openbooks.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "openbooks.cli", *argv],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def _unknots(n):
    return [{"id": f"v{i:03}", "framing": "-3"} for i in range(n)]


def _clique(n):
    return {"vertices": _unknots(n),
            "edges": [[f"v{i:03}", f"v{j:03}", 1] for j in range(n) for i in range(j)]}


@pytest.mark.parametrize("diagram, script, named", [
    pytest.param({"vertices": _unknots(251)}, [],
                 "vertices = 251", id="vertices"),
    pytest.param(_clique(23), [], "edges = 253", id="edges"),  # 23 * 22 / 2
    pytest.param(_ONE_UNKNOT,
                 [{"move": "reverse_orientation", "args": {"vertex": "x"}}] * 251,
                 "script steps = 251", id="steps"),
    # a +1 blow-up over all 22 vertices of a clique of 231 edges links the
    # new vertex to each of them and keeps every other edge
    pytest.param(_clique(22),
                 [{"move": "blow_up", "args": {"sign": 1, "star": {f"v{i:03}": 1 for i in range(22)}}}],
                 "edges after step 1 = 253", id="edges_after_a_step"),
])
def test_cli_replay_limits_exit_2_and_name_the_limit(tmp_path, capsys, diagram, script, named):
    (tmp_path / "d.json").write_text(json.dumps(diagram))
    (tmp_path / "s.json").write_text(json.dumps(script))
    argv = ["kirby", "replay", "--diagram", str(tmp_path / "d.json"),
            "--script", str(tmp_path / "s.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {named} is above the limit 250\n"
