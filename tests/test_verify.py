from __future__ import annotations

from looptorsion import verify
from looptorsion.freealg import GRADED
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
