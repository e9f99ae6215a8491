"""The package's top-level names are the ones the README's library sketch
imports, no more and no fewer."""

import re
from pathlib import Path

import metareweight

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_readme_sketch_import_line():
    imports = re.search(r"^from metareweight import \(([^)]*)\)", README.read_text(),
                        re.MULTILINE)
    assert imports is not None, "README has no library sketch import"
    names = [name.strip() for name in imports.group(1).split(",")]
    assert sorted(metareweight.__all__) == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(metareweight, name) for name in names)
