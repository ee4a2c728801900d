"""Command-line front ends for nclint and nccheck.

Installed as the ``nclint`` / ``nccheck`` console scripts
(``pyproject.toml``); also reachable without installation through the
``tools/nclint.py`` and ``tools/nccheck.py`` shims.  Both exit nonzero
on any violation, so a CI step is just the bare invocation.
"""

from __future__ import annotations

import argparse

from repro.analysis import nccheck, nclint


def nclint_main(argv: list[str] | None = None) -> int:
    """Lint source trees against the NC1xx simulator invariants."""
    parser = argparse.ArgumentParser(
        prog="nclint",
        description="AST linter for Neurocube simulator invariants "
                    "(rules NC101-NC1xx; see docs/static_analysis.md).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write the JSON report here "
                             "(the CI artifact)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on its seeded "
                             "fixture and that allow() waives it")
    args = parser.parse_args(argv)

    if args.list_rules:
        for entry in nclint.rule_catalogue():
            print(f"{entry['code']}: {entry['title']}")
            print(f"    {entry['rationale']}")
        return 0

    if args.self_test:
        failures = nclint.self_test()
        for failure in failures:
            print(f"nclint self-test FAILED: {failure}")
        rules = nclint.rule_catalogue()
        print(f"nclint self-test: {len(rules)} rule(s), "
              f"{len(failures)} failure(s)")
        if args.json_path:
            nclint.write_report(
                {"kind": "nclint-selftest-report",
                 "rules_checked": len(rules),
                 "failures": failures}, args.json_path)
        return 1 if failures else 0

    select = (args.select.split(",") if args.select else None)
    violations, files_checked = nclint.lint_paths(args.paths or ["src"],
                                                  select=select)
    for violation in violations:
        print(violation.format())
    if args.json_path:
        nclint.write_report(
            nclint.report_dict(violations, files_checked),
            args.json_path)
    print(f"nclint: {len(violations)} violation(s) in "
          f"{files_checked} file(s)")
    return 1 if violations else 0


def nccheck_main(argv: list[str] | None = None) -> int:
    """Statically verify compiled neurosequence plans."""
    parser = argparse.ArgumentParser(
        prog="nccheck",
        description="Static verifier for compiled PassPlans (checks "
                    "NC201-NC2xx; see docs/static_analysis.md).")
    parser.add_argument("--self-test", action="store_true",
                        help="seed a violation for every plan check and "
                             "verify each fires (the CI mode)")
    parser.add_argument("--demo", action="store_true",
                        help="compile a small conv/pool/fc network and "
                             "verify every descriptor of its inference "
                             "and training programs")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write the JSON report here "
                             "(the CI artifact)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for entry in nccheck.CHECK_CATALOGUE:
            print(f"{entry.code}: {entry.title}")
            print(f"    {entry.guarantee}")
        return 0

    if args.self_test:
        failures = nccheck.self_test()
        checks = nccheck.CHECK_CATALOGUE
        report = {"kind": "nccheck-selftest",
                  "checks": [vars(e) for e in checks],
                  "failures": failures}
        if args.json_path:
            nccheck.write_report(report, args.json_path)
        for failure in failures:
            print(f"nccheck self-test FAILED: {failure}")
        print(f"nccheck self-test: {len(checks)} checks, "
              f"{len(failures)} failure(s)")
        return 1 if failures else 0

    if args.demo:
        from repro.core.compiler import compile_inference, compile_training
        from repro.core.config import NeurocubeConfig
        from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten
        from repro.nn.network import Network

        network = Network(
            [Conv2D(4, 3), AvgPool2D(2), Flatten(), Dense(10)],
            input_shape=(2, 12, 12), name="nccheck-demo")
        config = NeurocubeConfig.hmc_15nm()
        reports = []
        for program in (compile_inference(network, config),
                        compile_training(network, config)):
            reports.extend(nccheck.verify_program(program, config))
        if args.json_path:
            nccheck.write_report(nccheck.report_dict(reports),
                                 args.json_path)
        bad = 0
        for report in reports:
            status = ("skipped" if not report.checked
                      else "FAIL" if report.violations else "ok")
            note = f"  ({report.note})" if report.note else ""
            print(f"  {report.name}: {status}{note}")
            for violation in report.violations:
                print(f"    {violation.format()}")
                bad += 1
        print(f"nccheck: {bad} violation(s) across "
              f"{len(reports)} descriptor(s)")
        return 1 if bad else 0

    parser.print_usage()
    print("nccheck: nothing to do (pass --self-test, --demo or "
          "--list-checks)")
    return 2
