from __future__ import annotations

from looptorsion import action, verify
from looptorsion.freealg import DEFAULT_CONVENTION, GRADED, UNGRADED
from looptorsion.presentation import THEOREM1_PARAMS, format_relation_set, relation_set_E


def test_checks_print_nothing_and_verification_reports_one_line_per_check(capsys, tmp_path):
    path = tmp_path / "relations.txt"
    path.write_text(format_relation_set(relation_set_E(THEOREM1_PARAMS, 3, GRADED)))
    report = verify.run_verification(str(path), quiet=False)
    captured = capsys.readouterr()
    assert report["ok"]
    # the progress lines are the only output, so every check itself is silent
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == len(report["checks"]) == 16
    assert len(set(lines)) == 16
    module_checks = {
        name for name, obj in vars(verify).items() if name.startswith("check_") and obj.__module__ == verify.__name__
    }
    assert len(module_checks) == 15
    labels = {name.removeprefix("check_").replace("_", " ") for name in module_checks - {"check_relations_file"}}
    assert labels <= set(lines)
    assert "given relations file" in lines


def test_convention_selection_fails_when_the_declared_default_fails(monkeypatch):
    assert DEFAULT_CONVENTION == GRADED
    real = action.check_preserves_ideal

    def graded_fails(images, rels, maxdeg):
        report = real(images, rels, maxdeg)
        return {**report, "ok": report["ok"] and rels.convention != GRADED}

    monkeypatch.setattr(action, "check_preserves_ideal", graded_fails)
    # every other check passes as a stub, so only the selection can fail
    for name, obj in list(vars(verify).items()):
        if name.startswith("check_") and obj.__module__ == verify.__name__:
            monkeypatch.setattr(verify, name, lambda name=name: {"name": name, "ok": True})
    report = verify.run_verification(quiet=True)
    assert report["convention_selection"]["passing"] == [UNGRADED]
    assert report["convention_selection"]["selected_default"] is None
    selection = next(c for c in report["checks"] if c["name"] == "convention-selection")
    assert not selection["ok"] and selection["selected_default"] is None
    assert not report["ok"]
