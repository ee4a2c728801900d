"""CLI and packaging surface tests for nclint / nccheck.

Covers the console-script callables (exit codes, JSON artifacts), the
``tools/`` checkout shims CI invokes, and the ``[project.scripts]``
entry-point declarations.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import subprocess
import sys

from repro.analysis.cli import nccheck_main, nclint_main

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_nclint_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "repro" / "core" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("x = 1\n")
    assert nclint_main([str(clean)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_nclint_exit_one_and_json_on_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    report_path = tmp_path / "report.json"
    assert nclint_main([str(bad), "--json", str(report_path)]) == 1
    assert "NC101" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["kind"] == "nclint-report"
    # `import random` trips both the entropy ban (NC101) and the
    # ambient-RNG rule (NC108).
    assert report["violation_count"] == 2
    assert set(report["counts_by_code"]) == {"NC101", "NC108"}


def test_nclint_select_limits_rules(tmp_path):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    assert nclint_main([str(bad), "--select", "NC107"]) == 0


def test_nclint_list_rules(capsys):
    assert nclint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("NC101", "NC104", "NC107"):
        assert code in out


def test_nccheck_list_checks(capsys):
    assert nccheck_main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in ("NC201", "NC207"):
        assert code in out


def test_nccheck_self_test_writes_artifact(tmp_path, capsys):
    report_path = tmp_path / "selftest.json"
    assert nccheck_main(["--self-test", "--json", str(report_path)]) == 0
    assert "0 failure(s)" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["kind"] == "nccheck-selftest"
    assert report["failures"] == []
    codes = [check["code"] for check in report["checks"]]
    assert codes == [f"NC20{i}" for i in range(1, 8)]


def test_nccheck_requires_a_mode(capsys):
    assert nccheck_main([]) == 2
    assert "nothing to do" in capsys.readouterr().out


def test_checkout_shims_run_without_install(tmp_path):
    """CI calls the tools/ shims directly; they must bootstrap src/."""
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "nclint.py"), str(bad)],
        capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    assert "NC101" in result.stdout


def _declared_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of pyproject.toml, by line scan
    (Python 3.10 has no ``tomllib``)."""
    scripts: dict[str, str] = {}
    in_table = False
    for line in (REPO / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line and not line.startswith("#"):
            name, target = line.split("=", 1)
            scripts[name.strip()] = target.strip().strip('"')
    return scripts


def test_entry_points_declared_and_importable():
    declared = _declared_scripts()
    assert {"neurocube-experiments", "ncprof", "nclint",
            "nccheck"} <= set(declared)
    for name, target in declared.items():
        module_name, func_name = target.split(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name)), name


def test_every_cli_has_a_checkout_shim():
    for name in ("ncprof", "nclint", "nccheck"):
        shim = REPO / "tools" / f"{name}.py"
        assert shim.exists(), f"missing checkout shim tools/{name}.py"
        assert "sys.path.insert" in shim.read_text()
