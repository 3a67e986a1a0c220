"""Public API surface checks."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.config",
            "repro.sim",
            "repro.flash",
            "repro.flash.endurance",
            "repro.ftl",
            "repro.ftl.gc",
            "repro.dedup",
            "repro.core",
            "repro.schemes",
            "repro.device",
            "repro.workloads",
            "repro.workloads.fiu_format",
            "repro.workloads.analysis",
            "repro.metrics",
            "repro.experiments",
            "repro.obs",
            "repro.obs.trace",
            "repro.obs.telemetry",
            "repro.obs.log",
            "repro.obs.heartbeat",
            "repro.cli",
        ],
    )
    def test_modules_importable(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "package",
        ["repro.sim", "repro.flash", "repro.ftl", "repro.dedup", "repro.schemes",
         "repro.device", "repro.workloads", "repro.metrics", "repro.obs"],
    )
    def test_package_all_resolves(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.{name}"

    def test_every_public_symbol_documented(self):
        """Every class/function reachable from repro.__all__ has a
        docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestCompareCommand:
    def test_compare_runs(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "compare",
                "--preset",
                "homes",
                "--blocks",
                "64",
                "--pages-per-block",
                "16",
                "--fill-factor",
                "2.0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for scheme in ("baseline", "inline-dedupe", "cagc", "lba-hotcold"):
            assert scheme in out
