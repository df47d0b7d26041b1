"""API-hygiene tests for the top-level package."""

from __future__ import annotations

import pydoc


import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing {name}"

    def test_no_private_names_exported(self):
        private = [
            n for n in repro.__all__
            if n.startswith("_") and n != "__version__"
        ]
        assert not private

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert major.isdigit() and minor.isdigit() and patch.isdigit()

    def test_every_export_has_a_docstring(self):
        undocumented = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            item = getattr(repro, name)
            if isinstance(item, type) or callable(item):
                if not (getattr(item, "__doc__", None) or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_errors_form_one_hierarchy(self):
        for name in (
            "ValidationError",
            "NotStochasticError",
            "DimensionMismatchError",
            "StateSpaceError",
            "QueryError",
            "ObservationError",
            "InfeasibleEvidenceError",
            "SerializationError",
        ):
            error_class = getattr(repro, name)
            assert issubclass(error_class, repro.ReproError)

    def test_help_renders(self):
        # pydoc walks the whole public surface; a broken signature or
        # import loop would raise here
        text = pydoc.render_doc(repro)
        assert "Querying Uncertain Spatio-Temporal Data" in text
