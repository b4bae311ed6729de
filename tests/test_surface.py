"""Every `__all__` name of the library is read in `src/` or in the acceptance
gate, outside its own definition and any definition without such a reader
(an import counts, so the package's re-exports do): not by unit tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*sorted((ROOT / "src" / "chflow").glob("*.py")), ROOT / "tests/test_acceptance.py"]
ALLOWED = {
    # the closed-form curvature tensor, the oracle of the curvature tests
    ("chart_geometry", "riemann_coordinate_at"),
    # the ellipticity range, which the planned per-step flow log reads (ROADMAP)
    ("flow_engine", "ellipticity_pencil_range"),
}


def uncalled_public_names() -> set[tuple[str, str]]:
    public, readers = set(), {}
    for path in SOURCES:
        library = path.parent.name == "chflow" and path.stem != "__init__"
        for top in ast.parse(path.read_text()).body:
            target = getattr(top, "targets", [None])[0]
            if library and getattr(target, "id", None) == "__all__":
                public |= {(path.stem, elt.value) for elt in top.value.elts}
            where = (path.stem, getattr(top, "name", None))  # enclosing definition
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    names = [getattr(node, "id", getattr(node, "attr", None))]
                for name in names:
                    readers.setdefault(name, set()).add(where)
    # a reader inside an uncalled definition does not count, unless it is allowed
    dead: set[tuple[str, str]] = set()
    while grown := {
        key for key in public - dead if readers.get(key[1], set()) <= {key} | (dead - ALLOWED)
    }:
        dead |= grown
    return dead


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == ALLOWED
