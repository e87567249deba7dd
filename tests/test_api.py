"""The public surface: each module's __all__ against the README's API list."""

import importlib
import pkgutil
import re
from pathlib import Path

import rubberroll

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_api() -> dict[str, list[str]]:
    """Module name -> the names of its line in the README's API section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^- `(rubberroll[\w.]*)`: (.*)$", section, flags=re.M)
    return {module: re.findall(r"`([\w]+)`", names) for module, names in rows}


def _modules() -> list[str]:
    return ["rubberroll"] + [f"rubberroll.{m.name}"
                             for m in pkgutil.iter_modules(rubberroll.__path__)]


def test_every_module_lists_its_public_names_as_the_readme_does():
    api = _readme_api()
    assert sorted(api) == sorted(_modules())
    for name in _modules():
        module = importlib.import_module(name)
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        assert [n for n in exported if not hasattr(module, n)] == [], name
        assert sorted(api[name]) == sorted(exported), name
