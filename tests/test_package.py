"""Package-level smoke tests: imports, exports and version."""

import importlib

import pytest


PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.policies",
    "repro.runtime",
    "repro.simulation",
    "repro.simulation.pipeline",
    "repro.simulation.replication",
    "repro.apps.face",
    "repro.apps.translate",
    "repro.profiles",
    "repro.planner",
    "repro.tools",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_version(self):
        import repro
        assert repro.__version__ == "1.0.0"

    def test_core_exports_resolve(self):
        import repro.core as core
        for name in core.__all__:
            assert getattr(core, name) is not None, name

    def test_simulation_exports_resolve(self):
        import repro.simulation as simulation
        for name in simulation.__all__:
            assert getattr(simulation, name) is not None, name

    def test_runtime_exports_resolve(self):
        import repro.runtime as runtime
        for name in runtime.__all__:
            assert getattr(runtime, name) is not None, name

    def test_app_exports_resolve(self):
        from repro.apps import face, translate
        for module in (face, translate):
            for name in module.__all__:
                assert getattr(module, name) is not None, name
