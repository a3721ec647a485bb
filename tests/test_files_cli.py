"""Scenario/trace round-trips and the command-line contract."""

import errno
import io
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from chordcheck import (
    ExploreConfig,
    GlobalState,
    IdSpace,
    Schedule,
    Step,
    StepKind,
    converge,
    explore,
    ideal_ring,
    make_state,
    run_fig3,
    simulate,
)
from chordcheck import cli
from chordcheck.cli import (
    EXIT_CAP_HIT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from chordcheck.errors import ScenarioFormatError, TraceFormatError
from chordcheck.files import (
    load_scenario,
    load_trace,
    read_trace,
    save_trace,
    scenario_from_doc,
    step_from_doc,
    step_to_doc,
    write_trace,
)

from conftest import repeated_table_record

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# one JSON value nested deeper than the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


IDEAL3 = {
    "version": "1",
    "m": 3,
    "r": 2,
    "init": [
        {"id": 0, "prdc": 5, "succ_list": [2, 5]},
        {"id": 2, "prdc": 0, "succ_list": [5, 0]},
        {"id": 5, "prdc": 2, "succ_list": [0, 2]},
    ],
}


def field_paths(node, prefix=()):
    """The path of every field of a JSON document, in document order:
    each key of an object and each element of a list, at every depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for name, value in items:
        yield prefix + (name,)
        yield from field_paths(value, prefix + (name,))


# the fields of the shipped scenarios whose deletion leaves a scenario
# that loads: a member or an event its list can do without, and the
# optional blocks and settings; the deletion of any other field is refused
DELETABLE_FIELDS = {
    "ideal_ring_m3.json": {
        ("init", 0), ("init", 1), ("init", 2),
        ("explore",), ("explore", "max_depth"), ("explore", "churn"),
        ("simulate",), ("simulate", "steps"), ("simulate", "churn"),
        ("converge",), ("converge", "step_cap"),
    },
    "join_lifecycle_m6.json": {
        ("init", 0), ("init", 1), ("init", 2), ("init", 3), ("init", 4),
        ("converge",), ("converge", "step_cap"),
    },
    "size_one_m6.json": set(),  # its one member is all of a non-empty 'init'
    "stranded_appendages_m6.json": {
        ("init", 0), ("init", 1), ("init", 2),
        ("events",), ("events", 0), ("events", 0, "forced"),
        ("explore",), ("explore", "max_depth"), ("explore", "allow_invalid_initial"),
    },
}


class TestScenarioFormat:
    def test_roundtrip(self):
        scenario = scenario_from_doc(IDEAL3)
        members = [(rec["id"], rec["prdc"], rec["succ_list"]) for rec in IDEAL3["init"]]
        assert scenario.initial == make_state(IdSpace(3), 2, members)

    def test_shipped_scenarios_load(self):
        for path in SCENARIOS.glob("*.json"):
            load_scenario(str(path))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(m="three"), "'m'"),
            (lambda d: d.update(m=40), "bit width m must be an integer in 1..16, got 40"),
            (lambda d: d["init"][0].update(succ_list=[2]), "exactly r=2"),
            (lambda d: d["init"][0].update(id=8), "outside"),
            (lambda d: d["init"].append(dict(d["init"][0])), "duplicates"),
            (lambda d: d.update(version="9"), "version"),
            (lambda d: d.update(version=1), "unsupported scenario version 1"),
            (lambda d: d.update(events=[{"kind": "warp", "actor": 0}]), "kind"),
            (lambda d: d.update(events=[{"kind": "join", "actor": 1}]), "require an 'arg'"),
            (lambda d: d.update(events=[{"kind": "stabilize_from_predecessor", "actor": 0}]),
             "stabilize_from_predecessor steps require an 'arg'"),
            (lambda d: d.update(events=[{"kind": "fail", "actor": 0, "arg": 2}]), "no 'arg'"),
            (lambda d: d.update(converge={"steps": 10}), "unknown converge setting 'steps'"),
            (lambda d: d.update(explore={"max_depth": "6"}), "explore.max_depth must be int"),
            (lambda d: d.update(simulate={"seed": True}), "simulate.seed must be int"),
            (lambda d: d.update(simulate={"churn": "most"}), "simulate.churn must be one of"),
            (lambda d: d.update(events=5), "'events' must be a list"),
            (lambda d: d.update(events=["x"]), "a step must be an object"),
            (lambda d: d.update(events=[{"kind": []}]), "unknown step kind []"),
            # JSON booleans are not integers
            (lambda d: d.update(m=True), "'m' must be an integer"),
            (lambda d: d.update(r=True), "'r' must be a positive integer"),
            (lambda d: d["init"][0].update(id=True), "init[0].id True"),
            (lambda d: d["init"][0].update(prdc=True), "init[0].prdc True"),
            (lambda d: d["init"][0].update(succ_list=[True, 5]), "entry True"),
            (lambda d: d.update(events=[{"kind": "fail", "actor": True}]), "actor must be an integer"),
            (lambda d: d.update(events=[{"kind": "join", "actor": 1, "arg": False}]),
             "arg must be an integer"),
            # and strings are not booleans
            (lambda d: d.update(events=[{"kind": "fail", "actor": 0, "forced": "no"}]),
             "forced must be true or false"),
            (lambda d: d.update(allow_forced_fail=True,
                                events=[{"kind": "fail", "actor": 0, "forced": "no"}]),
             "forced must be true or false"),
            (lambda d: d.update(allow_forced_fail="yes"), "'allow_forced_fail' must be true or false"),
            (lambda d: d.update(allow_forced_fail=1), "'allow_forced_fail' must be true or false"),
            # only a fail can be forced
            (lambda d: d.update(allow_forced_fail=True, events=[
                {"kind": "stabilize_from_successor", "actor": 0, "forced": True}]),
             "stabilize_from_successor steps take no 'forced'"),
            # a present configuration block is an object
            (lambda d: d.update(explore=[]), "field 'explore' must be an object, got []"),
            (lambda d: d.update(explore=False), "field 'explore' must be an object, got False"),
            (lambda d: d.update(simulate=0), "field 'simulate' must be an object, got 0"),
            (lambda d: d.update(converge=""), "field 'converge' must be an object, got ''"),
        ],
    )
    def test_schema_violations(self, mutate, message):
        doc = json.loads(json.dumps(IDEAL3))
        mutate(doc)
        with pytest.raises(ScenarioFormatError, match=re.escape(message)):
            scenario_from_doc(doc)

    def test_each_deleted_field_of_a_shipped_scenario_is_named_or_loads(self):
        loaded = {}
        refused = 0
        for path in sorted(SCENARIOS.glob("*.json")):
            doc = json.loads(path.read_text())
            loaded[path.name] = set()
            for field in field_paths(doc):
                mutant = json.loads(json.dumps(doc))
                *outer, last = field
                holder = mutant
                for name in outer:
                    holder = holder[name]
                del holder[last]
                try:
                    scenario_from_doc(mutant)
                except ScenarioFormatError as exc:
                    # a key is named itself, a list element by its list
                    name = last if isinstance(last, str) else outer[-1]
                    assert name in str(exc), (path.name, field, str(exc))
                    refused += 1
                else:
                    loaded[path.name].add(field)
        assert loaded == DELETABLE_FIELDS
        assert (refused, sum(map(len, loaded.values()))) == (80, 27)

    def test_null_config_blocks_give_no_settings(self):
        scenario = scenario_from_doc({**IDEAL3, "explore": None, "simulate": None, "converge": None})
        assert scenario.explore_config == scenario.simulate_config == scenario.converge_config == {}

    def test_forced_fail_requires_flag(self):
        doc = json.loads(json.dumps(IDEAL3))
        doc["init"].append({"id": 7, "prdc": 5, "succ_list": [0, 2]})
        doc["events"] = [{"kind": "fail", "actor": 7, "forced": True}]
        with pytest.raises(ScenarioFormatError, match="allow_forced_fail"):
            scenario_from_doc(doc)
        doc["allow_forced_fail"] = True
        scenario = scenario_from_doc(doc)
        assert not scenario.starting_state().is_member(7)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"version\": \"1\",,\n}")
        with pytest.raises(ScenarioFormatError, match=r"bad\.json:2:"):
            load_scenario(str(path))


class TestTraceFormat:
    def test_step_kind_names_pinned(self):
        # the names every trace and scenario file carries, one per kind
        names = ["join", "fail", "stabilize_from_successor", "stabilize_from_predecessor",
                 "rectify"]
        steps = [Step(StepKind.JOIN, 3, 1), Step(StepKind.FAIL, 3),
                 Step(StepKind.STABILIZE_FROM_SUCCESSOR, 3),
                 Step(StepKind.STABILIZE_FROM_PREDECESSOR, 3, 1), Step(StepKind.RECTIFY, 3, 1)]
        assert [step.kind for step in steps] == list(StepKind)
        for step, name in zip(steps, names):
            doc = step_to_doc(step)
            assert doc["kind"] == name
            assert step_to_doc(step._replace(kind=int(step.kind))) == doc
            assert step_from_doc(doc) == step
        assert step_to_doc(Step(StepKind.FAIL, 3, forced=True)) == {
            "kind": "fail", "actor": 3, "forced": True}
        # only a fail carries the flag into a file
        assert "forced" not in step_to_doc(Step(StepKind.RECTIFY, 3, 1, forced=True))

    def test_roundtrip(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])
        trace = simulate(s, Schedule(seed=8), steps=25, churn="full")
        buf = io.StringIO()
        write_trace(trace, buf, scenario_digest="abc123")
        buf.seek(0)
        loaded = read_trace(buf)
        assert loaded.initial == trace.initial
        assert loaded.records == trace.records
        assert loaded.verdict == trace.verdict
        assert loaded.meta == json.loads(json.dumps(trace.meta))

    def test_prelude_roundtrip(self):
        trace = run_fig3()
        buf = io.StringIO()
        write_trace(trace, buf)
        buf.seek(0)
        assert read_trace(buf).records == trace.records

    def test_byte_identical_modulo_timestamp(self, space3):
        s = ideal_ring(space3, 2, [0, 2, 5])

        def render():
            buf = io.StringIO()
            write_trace(simulate(s, Schedule(seed=8), steps=25), buf)
            lines = buf.getvalue().splitlines()
            header = json.loads(lines[0])
            header.pop("created_at")
            return [json.dumps(header, sort_keys=True)] + lines[1:]

        assert render() == render()

    def test_malformed_trace_rejected(self, space3):
        def lines_of(trace):
            buf = io.StringIO()
            write_trace(trace, buf)
            return buf.getvalue().splitlines()

        ring = ideal_ring(space3, 2, [0, 2, 5])
        run = lines_of(simulate(ring, Schedule(seed=8), steps=6))  # header, 6 records, verdict
        drained = lines_of(converge(GlobalState(space3, 2, ring.members, pending_notify=[(2, 0)]),
                                    Schedule(seed=1)))
        header = json.loads(drained[0])
        assert [rec["index"] for rec in header["prelude"]] == [0]
        header["prelude"][0]["index"] = 1
        record = json.loads(run[1])
        record["flags"] = []

        def edited(lines, line, **fields):
            doc = json.loads(lines[line])
            doc.update(fields)
            return lines[:line] + [json.dumps(doc)] + lines[line + 1:]

        def without(lines, line, field):
            doc = json.loads(lines[line])
            del doc[field]
            return lines[:line] + [json.dumps(doc)] + lines[line + 1:]

        def with_flag(value):
            doc = json.loads(run[2])
            doc["flags"]["ideal"] = value
            return run[:2] + [json.dumps(doc)] + run[3:]

        # fields of the wrong JSON type are refused, never coerced
        ring1 = lines_of(simulate(ideal_ring(IdSpace(1), 1, [0, 1]), Schedule(seed=1), steps=2))
        cumulative = json.loads(run[2])["cumulative_error"]
        bool_id = json.loads(run[0])["initial"]
        bool_id["members"][1]["id"] = True
        float_entry = json.loads(run[0])["initial"]
        float_entry["members"][0]["succ_list"][1] = 5.0
        no_succ_list = json.loads(run[0])["initial"]
        del no_succ_list["members"][2]["succ_list"]
        bool_seed_id = json.loads(drained[0])["seed_state"]
        bool_seed_id["members"][0]["id"] = False
        unforceable = next(i for i in range(1, len(run) - 1)
                           if json.loads(run[i])["step"]["kind"] != "fail")
        forced_step = {**json.loads(run[unforceable])["step"], "forced": True}
        cases = [
            edited(run, 0, m=3.9),
            edited(run, 0, m="3"),
            edited(ring1, 0, m=True),
            edited(run, 0, r=2.9),
            edited(run, 0, r="2"),
            edited(ring1, 0, r=True),
            edited(run, 0, initial=bool_id),
            edited(run, 0, initial=float_entry),
            edited(run, 2, index=True),
            edited(run, 2, index=1.0),
            edited(run, 2, cumulative_error=str(cumulative)),
            edited(run, 2, cumulative_error=float(cumulative)),
            edited(run, 2, state_digest=7),
            edited(run, unforceable, step=forced_step),
            with_flag(1),
            with_flag("true"),
            with_flag(None),
            without(run, len(run) - 1, "verdict"),
            edited(run, len(run) - 1, verdict=None),
            edited(run, 0, kind=7),
            edited(run, len(run) - 1, meta=[["seed", 8]]),
        ]
        cases += [
            [],
            ['{"type": "record"}'],
            ["[]"],
            run[:1],  # header only
            run[:3],  # cut mid-run: no verdict line
            run + run[1:2],  # a record after the verdict
            run[:2] + run[3:],  # record index 1 missing
            [json.dumps(header)] + drained[1:],  # prelude indices not 0..n-1
            run[:1] + [json.dumps(record)] + run[2:],  # flags not an object
        ]
        for lines in cases:
            with pytest.raises(TraceFormatError):
                read_trace(io.StringIO("\n".join(lines) + "\n"))
        # converge headers carry seed_state and a non-empty prelude together
        # (the trace's own rule), and no writer writes an empty prelude
        for lines in (without(drained, 0, "seed_state"), without(drained, 0, "prelude"),
                      edited(drained, 0, prelude=[]),
                      without(edited(drained, 0, prelude=[]), 0, "seed_state")):
            with pytest.raises(TraceFormatError, match="^line 1: header"):
                read_trace(io.StringIO("\n".join(lines) + "\n"))
        # trace members go through the scenario's member-record checks
        with pytest.raises(TraceFormatError, match=r"initial\.members\[2\] is missing field 'succ_list'"):
            read_trace(io.StringIO("\n".join(edited(run, 0, initial=no_succ_list)) + "\n"))
        with pytest.raises(TraceFormatError, match=r"seed_state\.members\[0\]\.id False outside"):
            read_trace(io.StringIO("\n".join(edited(drained, 0, seed_state=bool_seed_id)) + "\n"))

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda lines: lines[:1] + ["", "  "] + lines[1:2] + ["{bad"],
                     "line 5: not valid JSON", id="json"),
        pytest.param(lambda lines: lines[:1] + [""] + lines[1:2] + ["[1, 2]"],
                     "line 4: not a JSON object", id="object"),
        pytest.param(lambda lines: lines[:1] + [""] + lines[1:] + ["", lines[1]],
                     "line 7: nothing may follow the verdict line", id="after-verdict"),
        pytest.param(lambda lines: ["", "{bad"], "line 2: not valid JSON", id="first-line"),
    ])
    def test_errors_name_the_files_own_line(self, space3, edit, message):
        # blank lines are skipped, but not left out of the count
        buf = io.StringIO()
        write_trace(simulate(ideal_ring(space3, 2, [0, 2, 5]), Schedule(seed=8), steps=2), buf)
        lines = edit(buf.getvalue().splitlines())  # header, 2 records, verdict
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}"):
            read_trace(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("where,field,value,message", [
        ("initial", "pending_notify", [[0, 2, 5]],
         "initial.pending_notify[0] must be a list of two integers, got [0, 2, 5]"),
        ("initial", "pending_stabilize", [[0]],
         "initial.pending_stabilize[0] must be a list of two integers, got [0]"),
        ("initial", "pending_notify", [[2, 0], {"a": 1}],
         "initial.pending_notify[1] must be a list of two integers, got {'a': 1}"),
        ("initial", "pending_notify", [[2, True]],
         "initial.pending_notify[0] must be a list of two integers, got [2, True]"),
        ("initial", "pending_notify", [[2, 0.0]],
         "initial.pending_notify[0] must be a list of two integers, got [2, 0.0]"),
        ("initial", "pending_stabilize", 5,
         "field 'initial.pending_stabilize' must be a list of pairs, got 5"),
        ("seed_state", "pending_notify", [[2]],
         "seed_state.pending_notify[0] must be a list of two integers, got [2]"),
    ])
    def test_malformed_pending_entries_are_named(self, space3, where, field, value, message):
        ring = ideal_ring(space3, 2, [0, 2, 5])
        buf = io.StringIO()
        write_trace(converge(GlobalState(space3, 2, ring.members, pending_notify=[(2, 0)]),
                             Schedule(seed=1)), buf)
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        header[where][field] = value
        with pytest.raises(TraceFormatError, match=f"^line 1: {re.escape(message)}$"):
            read_trace(io.StringIO("\n".join([json.dumps(header)] + lines[1:]) + "\n"))


class TestCli:
    def test_check_ideal_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, IDEAL3)
        assert main(["check", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["valid_initial"] is True
        assert all(out["flags"].values())

    def test_check_size_one_rejected(self, capsys):
        code = main(["check", str(SCENARIOS / "size_one_m6.json")])
        assert code == EXIT_VIOLATION
        out = json.loads(capsys.readouterr().out)
        assert out["flags"]["sufficient_principals"] is False

    @pytest.mark.parametrize("name, code, stdout", [
        ("ideal_ring_m3.json", EXIT_OK,
         '{"flags": {"at_least_one_ring": true, "at_most_one_ring": true, '
         '"connected_appendages": true, "ideal": true, "invariant": true, '
         '"no_duplicates": true, "one_live_successor": true, "ordered_ring": true, '
         '"ordered_successor_lists": true, "sufficient_principals": true}, '
         '"m": 3, "r": 2, "valid_initial": true, "witnesses": {}}'),
        ("join_lifecycle_m6.json", EXIT_OK,
         '{"flags": {"at_least_one_ring": true, "at_most_one_ring": true, '
         '"connected_appendages": true, "ideal": false, "invariant": true, '
         '"no_duplicates": true, "one_live_successor": true, "ordered_ring": true, '
         '"ordered_successor_lists": true, "sufficient_principals": true}, '
         '"m": 6, "r": 2, "valid_initial": true, "witnesses": {"ideal": [7, "succ_list"]}}'),
        ("size_one_m6.json", EXIT_VIOLATION,
         '{"flags": {"at_least_one_ring": true, "at_most_one_ring": true, '
         '"connected_appendages": true, "ideal": true, "invariant": false, '
         '"no_duplicates": false, "one_live_successor": true, "ordered_ring": true, '
         '"ordered_successor_lists": false, "sufficient_principals": false}, '
         '"m": 6, "r": 2, "valid_initial": false, "witnesses": {"no_duplicates": [48], '
         '"ordered_successor_lists": [48, [48, 48, 48]], '
         '"sufficient_principals": {"principals": [48], "required": 3}}}'),
        ("stranded_appendages_m6.json", EXIT_VIOLATION,
         '{"flags": {"at_least_one_ring": false, "at_most_one_ring": true, '
         '"connected_appendages": false, "ideal": false, "invariant": false, '
         '"no_duplicates": false, "one_live_successor": false, "ordered_ring": true, '
         '"ordered_successor_lists": false, "sufficient_principals": false}, '
         '"m": 6, "r": 2, "valid_initial": false, "witnesses": {"at_least_one_ring": [37, 62], '
         '"connected_appendages": [37, 62], "ideal": [37, "succ_list"], '
         '"no_duplicates": [37, 62], "one_live_successor": [37, 62], '
         '"ordered_successor_lists": [37, [37, 48, 48]], '
         '"sufficient_principals": {"principals": [], "required": 3}}}'),
    ])
    def test_check_output_pinned(self, capsys, name, code, stdout):
        assert main(["check", str(SCENARIOS / name)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (stdout + "\n", "")

    def test_check_refuses_unforced_fail_breaking_principals(self, tmp_path, capsys):
        # failing 0 strands nobody but leaves 2 principals where 3 are required
        doc = dict(IDEAL3, events=[{"kind": "fail", "actor": 0}])
        path = write_scenario(tmp_path, doc)
        assert main(["check", path]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chordcheck: protocol error: fail of 0 ")

    def test_check_schema_error(self, tmp_path):
        # a removed explore setting fails loudly rather than being ignored
        doc = json.loads(json.dumps(IDEAL3))
        doc["explore"] = {"max_depth": 3, "dedup": False}
        path = write_scenario(tmp_path, doc)
        assert main(["check", path]) == EXIT_SCHEMA

    def test_check_integer_too_long_to_convert_is_a_schema_error(self, tmp_path, capsys):
        # Python refuses to convert an integer literal of more than 4,300
        # digits, and its JSON decoder raises a plain ValueError for it
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(IDEAL3).replace('"m": 3', '"m": ' + "7" * 5_000))
        assert main(["check", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(f"chordcheck: {path}: not valid JSON (Exceeds")

    @pytest.mark.parametrize("pad", ["", "  "], ids=["unpadded", "padded"])
    def test_replay_integer_too_long_to_convert_is_a_schema_error(self, tmp_path, capsys, pad):
        # the padded header goes through json.loads, the other one through
        # the raw decoder first; both name the line
        out = tmp_path / "join.trace"
        main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5", "--out", str(out)])
        lines = out.read_text().splitlines()
        header = lines[0].replace('"r":2', '"r":' + "7" * 5_000)
        assert header != lines[0]
        out.write_text("\n".join([pad + header + pad] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("chordcheck: line 1: not valid JSON (Exceeds")

    def test_check_deeply_nested_json_is_a_schema_error(self, tmp_path, capsys):
        # the JSON decoder raises RecursionError for nesting this deep
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(IDEAL3).replace('"m": 3', '"m": ' + DEEP))
        assert main(["check", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            f"chordcheck: {path}: not valid JSON (maximum recursion depth exceeded")

    @pytest.mark.parametrize("pad", ["", "  "], ids=["unpadded", "padded"])
    def test_replay_deeply_nested_json_is_a_schema_error(self, tmp_path, capsys, pad):
        path = tmp_path / "deep.trace"
        path.write_text("\n" + pad + DEEP + pad + "\n")
        assert main(["replay", str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(
            "chordcheck: line 2: not valid JSON (maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", ["check", "explore", "replay"])
    def test_non_utf8_file_is_a_schema_error(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == \
            f"chordcheck: {path}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_explore_ideal_ring(self, tmp_path, capsys):
        path = write_scenario(tmp_path, IDEAL3)
        assert main(["explore", path, "--depth", "3"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "ok"

    def test_defaults_are_the_library_defaults(self, tmp_path, capsys):
        # with no flag and no config block, the CLI adds no setting of its own
        path = write_scenario(tmp_path, IDEAL3)
        scenario = load_scenario(path)
        assert main(["explore", path]) == EXIT_OK
        result = explore(scenario.initial, ExploreConfig())
        assert json.loads(capsys.readouterr().out) == {
            "verdict": result.verdict,
            "states_visited": result.states_visited,
            "transitions": result.transitions,
            "depth_reached": result.depth_reached,
            "frontier_size": result.frontier_size,
        }

        def undated(text):
            header, *rest = text.splitlines()
            header = json.loads(header)
            header.pop("created_at")
            return [header] + rest

        # the library has no default seed or simulate length: the CLI's are 0 and 100
        for command, trace in [
            ("converge", converge(scenario.initial, Schedule(seed=0))),
            ("simulate", simulate(scenario.initial, Schedule(seed=0), steps=100)),
        ]:
            assert main([command, path]) == EXIT_OK
            buf = io.StringIO()
            write_trace(trace, buf, scenario.digest)
            assert undated(capsys.readouterr().out) == undated(buf.getvalue()), command

    def test_explore_depth_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, IDEAL3)
        assert main(["explore", path, "--depth", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["states_visited"] == 1

    def test_explore_cap_hit_distinct_status(self, tmp_path):
        path = write_scenario(tmp_path, IDEAL3)
        assert main(["explore", path, "--depth", "6", "--max-states", "40"]) == EXIT_CAP_HIT

    def test_explore_violation_writes_trace(self, tmp_path, capsys):
        out_path = tmp_path / "cx.trace"
        code = main([
            "explore", str(SCENARIOS / "stranded_appendages_m6.json"),
            "--out", str(out_path),
        ])
        assert code == EXIT_VIOLATION
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "invariant-violated"
        trace = load_trace(str(out_path))
        assert len(trace.records) == 1

    def test_simulate_deterministic_files(self, tmp_path):
        path = write_scenario(tmp_path, IDEAL3)
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        assert main(["simulate", path, "--steps", "30", "--seed", "7", "--out", str(a)]) == EXIT_OK
        assert main(["simulate", path, "--steps", "30", "--seed", "7", "--out", str(b)]) == EXIT_OK

        def strip(p):
            lines = p.read_text().splitlines()
            header = json.loads(lines[0])
            header.pop("created_at")
            return [json.dumps(header, sort_keys=True)] + lines[1:]

        assert strip(a) == strip(b)

    def test_converge_join_scenario(self, tmp_path, capsys):
        code = main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        verdict = json.loads(lines[-1])
        assert verdict["verdict"] == "converged"

    def test_converge_rejects_invalid_network(self, capsys):
        code = main(["converge", str(SCENARIOS / "size_one_m6.json")])
        assert code == EXIT_VIOLATION

    def test_repro_fig3(self, tmp_path, capsys):
        out = tmp_path / "fig3.trace"
        assert main(["repro", "fig3", "--out", str(out)]) == EXIT_OK
        trace = load_trace(str(out))
        assert trace.records[-1].flags["one_live_successor"] is False

    def test_repro_fig4(self, tmp_path):
        out = tmp_path / "fig4.trace"
        assert main(["repro", "fig4", "--out", str(out)]) == EXIT_OK
        trace = load_trace(str(out))
        assert trace.records[-1].flags["ordered_ring"] is False

    def test_repro_unknown_is_usage_error(self):
        assert main(["repro", "fig9"]) == EXIT_USAGE

    def test_replay_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "fig3.trace"
        main(["repro", "fig3", "--out", str(out)])
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "replay-ok"

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "fig3.trace"
        main(["repro", "fig3", "--out", str(out)])
        lines = out.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["state_digest"] = "0" * 64
        lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(out)]) == EXIT_VIOLATION

    def test_replay_rederives_converge_outcome(self, tmp_path, capsys):
        out = tmp_path / "join.trace"
        main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5", "--out", str(out)])
        assert main(["replay", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        closing = json.loads(lines[-1])
        closing["verdict"] = "not-converged"
        lines[-1] = json.dumps(closing)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_VIOLATION
        assert "replay mismatch: verdict" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,relabel", [
        pytest.param(["explore", "stranded_appendages_m6.json"], "ok", id="explore"),
        pytest.param(["simulate", "ideal_ring_m3.json", "--seed", "3"], "invariant-violated",
                     id="simulate"),
    ])
    def test_replay_rederives_relabelled_verdict(self, tmp_path, capsys, argv, relabel):
        out = tmp_path / "run.trace"
        main([argv[0], str(SCENARIOS / argv[1]), *argv[2:], "--out", str(out)])
        assert main(["replay", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        closing = json.loads(lines[-1])
        closing["verdict"] = relabel
        lines[-1] = json.dumps(closing)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_VIOLATION
        assert "replay mismatch: verdict" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,header,verdict,code", [
        pytest.param(["repro", "fig4"], {}, "unexpected-pass", EXIT_VIOLATION, id="repro"),
        pytest.param(["explore", "stranded_appendages_m6.json"], {"kind": "run"}, "ok",
                     EXIT_VIOLATION, id="kind run"),
        pytest.param(["explore", "stranded_appendages_m6.json"], {"kind": None}, "ok",
                     EXIT_SCHEMA, id="no kind"),
    ])
    def test_replay_judges_every_kind(self, tmp_path, capsys, argv, header, verdict, code):
        # a repro verdict is re-derived from meta.violates, an unknown kind
        # is refused, and a header without a kind is malformed
        out = tmp_path / "run.trace"
        argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
        main([*argv, "--out", str(out)])
        assert main(["replay", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        doc = json.loads(lines[0])
        for key, value in header.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        closing = json.loads(lines[-1])
        closing["verdict"] = verdict
        out.write_text("\n".join([json.dumps(doc), *lines[1:-1], json.dumps(closing)]) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == code

    @pytest.mark.parametrize("field", ["ideal", "cumulative_error"])
    def test_replay_detects_tampering_on_repeated_member_table(self, tmp_path, capsys, field):
        out = tmp_path / "join.trace"
        main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5", "--out", str(out)])
        i = repeated_table_record(load_trace(str(out)))
        lines = out.read_text().splitlines()
        rec = json.loads(lines[1 + i])
        assert rec["index"] == i
        if field == "ideal":
            rec["flags"]["ideal"] = not rec["flags"]["ideal"]
        else:
            rec["cumulative_error"] += 1
        lines[1 + i] = json.dumps(rec)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_VIOLATION
        assert f"replay mismatch: records[{i}]" in capsys.readouterr().err

    def test_replay_rejects_truncated_trace(self, tmp_path):
        out = tmp_path / "join.trace"
        main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5", "--out", str(out)])
        out.write_text("\n".join(out.read_text().splitlines()[:3]) + "\n")
        assert main(["replay", str(out)]) == EXIT_SCHEMA

    def test_replay_rejects_string_counts(self, tmp_path):
        out = tmp_path / "join.trace"
        main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5", "--out", str(out)])
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        header["r"] = str(header["r"])
        out.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main(["replay", str(out)]) == EXIT_SCHEMA

    def test_replay_names_the_line_and_the_pending_entry(self, tmp_path, capsys):
        out = tmp_path / "join.trace"
        main(["converge", str(SCENARIOS / "join_lifecycle_m6.json"), "--seed", "5", "--out", str(out)])
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:1] + [""] + lines[1:3] + ["{bad"]) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("chordcheck: line 5: not valid JSON")
        header = json.loads(lines[0])
        header["initial"]["pending_notify"] = [[0, 2, 5]]
        out.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main(["replay", str(out)]) == EXIT_SCHEMA
        assert ("line 1: initial.pending_notify[0] must be a list of two integers, "
                "got [0, 2, 5]") in capsys.readouterr().err

    @pytest.mark.parametrize("argv,block", [
        *[pytest.param(argv, {}, id=" ".join(argv)) for argv in (
            ["explore", "--depth", "-1"],
            ["explore", "--max-states", "0"],
            ["simulate", "--fairness-window", "1"],
            ["converge", "--fairness-window", "1"],
            ["simulate", "--fairness-window", "0"],
            ["converge", "--fairness-window", "0"],
            ["simulate", "--steps", "-1"],
            ["converge", "--steps", "-1"],
            ["check", "--m", "0"],
            ["check", "--m", "20"],
        )],
        *[pytest.param([command], {command: {key: -1}}, id=f"scenario {command}.{key} -1")
          for command, key in (("simulate", "steps"), ("converge", "step_cap"))],
    ])
    def test_out_of_range_values_are_usage_errors(self, tmp_path, capsys, argv, block):
        path = write_scenario(tmp_path, {**IDEAL3, **block})
        assert main([argv[0], path, *argv[1:]]) == EXIT_USAGE
        if argv[1:2] == ["--m"]:
            # the message gives the flag's own value, not the scenario's
            err = capsys.readouterr().err
            assert f"usage error: {argv[1]} must be" in err and err.endswith(f"got {argv[2]}\n")

    def test_window_check_is_the_schedulers(self, capsys):
        # a run checks its scenario and its own settings before its
        # scheduler checks the window
        stranded = str(SCENARIOS / "stranded_appendages_m6.json")
        assert main(["simulate", stranded, "--fairness-window", "1"]) == EXIT_VIOLATION
        assert "initial state is not a valid initial network" in capsys.readouterr().err
        ideal = str(SCENARIOS / "ideal_ring_m3.json")
        assert main(["converge", ideal, "--steps", "-1", "--fairness-window", "1"]) == EXIT_USAGE
        assert "usage error: step_cap must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explore", "simulate"])
    def test_join_candidate_cap_is_an_unknown_setting(self, tmp_path, capsys, command):
        path = write_scenario(tmp_path, {**IDEAL3, command: {"join_candidate_cap": 2}})
        assert main([command, path]) == EXIT_SCHEMA
        assert f"unknown {command} setting 'join_candidate_cap'" in capsys.readouterr().err

    def test_usage_error_on_missing_command(self):
        assert main([]) == EXIT_USAGE

    def test_m_override_revalidates(self, tmp_path):
        path = write_scenario(tmp_path, IDEAL3)
        # shrinking the space below the member identifiers must fail loudly
        assert main(["check", path, "--m", "2"]) == EXIT_SCHEMA

    @pytest.mark.parametrize("command", ["check", "explore", "simulate", "converge"])
    def test_r_is_an_unknown_argument(self, tmp_path, capsys, command):
        # every succ_list holds exactly the scenario's r entries, so an
        # r override could only repeat it
        path = write_scenario(tmp_path, IDEAL3)
        for value in ("0", "2", "3"):
            assert main([command, path, "--r", value]) == EXIT_USAGE
            assert f"unrecognized arguments: --r {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code", [
        pytest.param(["repro", "fig3"], EXIT_OK, id="repro"),
        pytest.param(["explore", "size_one_m6.json", "--allow-invalid-initial"], EXIT_VIOLATION,
                     id="explore"),
    ])
    def test_closed_stdout_pipe_ends_quietly(self, monkeypatch, capsys, argv, code):
        # the reader went away: no traceback, stdout goes to the null
        # device, and the command still returns its own exit code
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        argv = [str(SCENARIOS / a) if a.endswith(".json") else a for a in argv]
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == code
        sink = sys.stdout
        assert sink.name == os.devnull
        sink.close()
        assert capsys.readouterr().err == ""

    def test_stdout_trace_when_no_out(self, tmp_path, capsys):
        assert main(["repro", "fig3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert json.loads(lines[-1])["type"] == "verdict"


class TestRefusalPaths:
    """The refusals that a malformed input or a misused call meets, each
    with the exit code the command line gives it."""

    @pytest.mark.parametrize("command,what", [("check", "scenario"), ("replay", "trace")])
    def test_unreadable_path(self, tmp_path, capsys, command, what):
        missing = str(tmp_path / "missing")
        assert main([command, missing]) == EXIT_SCHEMA
        assert f"cannot read {what} {missing}" in capsys.readouterr().err

    def test_initial_that_the_prelude_does_not_reach(self, every_trace_kind, tmp_path, capsys):
        # the notification the prelude delivered, put back in flight
        path = tmp_path / "converge.trace"
        save_trace(every_trace_kind["converge"], str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["initial"]["pending_notify"] == []
        header["initial"]["pending_notify"] = [[2, 0]]
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert main(["replay", str(path)]) == EXIT_VIOLATION
        assert "prelude does not reproduce the initial state" in capsys.readouterr().err

    def test_prelude_without_seed_state(self, every_trace_kind):
        # the pairing is the trace's own rule, so no writer is handed one
        # that would lose its prelude on the way to the file
        with pytest.raises(ValueError, match="together, or neither"):
            replace(every_trace_kind["converge"], seed_state=None)

    def test_seed_state_without_prelude(self):
        ring = ideal_ring(IdSpace(3), 2, [0, 2, 5])
        with pytest.raises(ValueError, match="together, or neither"):
            replace(converge(ring, Schedule(1)), seed_state=ring, prelude=[])

    def test_repro_meta_that_is_not_its_header(self, tmp_path, capsys):
        # replay cannot rebuild a reproduction without importing repro, so
        # 'scenario' is only a label; 'm' and 'r' must be the initial state's
        out = tmp_path / "fig3.trace"
        assert main(["repro", "fig3", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        for name, value in (("m", 9), ("r", 5)):
            closing = json.loads(lines[-1])
            closing["meta"][name] = value
            out.write_text("\n".join([*lines[:-1], json.dumps(closing)]) + "\n")
            capsys.readouterr()
            assert main(["replay", str(out)]) == EXIT_VIOLATION
            assert f"meta '{name}' {value} is not its initial state's" in capsys.readouterr().err
        # an absent entry still replays, as every meta entry does
        closing = json.loads(lines[-1])
        del closing["meta"]["m"], closing["meta"]["r"]
        out.write_text("\n".join([*lines[:-1], json.dumps(closing)]) + "\n")
        assert main(["replay", str(out)]) == EXIT_OK

    def test_repro_violating_no_flag(self, tmp_path, capsys):
        out = tmp_path / "fig4.trace"
        assert main(["repro", "fig4", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        closing = json.loads(lines[-1])
        closing["meta"]["violates"] = "tidy"
        out.write_text("\n".join([*lines[:-1], json.dumps(closing)]) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == EXIT_VIOLATION
        assert "'violates' must name a flag of its last record, got 'tidy'" in capsys.readouterr().err

    def test_repro_that_does_not_reproduce(self, monkeypatch, capsys):
        real = cli.run_scenario
        monkeypatch.setattr(cli, "run_scenario",
                            lambda name: replace(real(name), verdict="unexpected-pass"))
        assert main(["repro", "fig4"]) == EXIT_VIOLATION
        assert "fig4: the expected violation did not reproduce" in capsys.readouterr().err
