"""The README's "Library use" example runs as documented, its imports
are the whole of the package's public surface, and its layout paragraph
names every default factory."""

import ast
import re
import types
from pathlib import Path

import tetherlaunch

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_library_use() -> str:
    """The Python block of the README's Library use section."""
    section = README.read_text(encoding="utf-8").split("## Library use")[1]
    return section.split("```python\n")[1].split("```")[0]


def test_library_use_runs(capsys):
    namespace: dict = {}
    exec(compile(readme_library_use(), str(README), "exec"), namespace)
    # One line for the sizing verdict, one for the take-off.
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert namespace["result"].liftoff_time > 0.0


def test_package_exports_only_the_readme_names():
    block = ast.parse(readme_library_use())
    imported = {alias.name for node in ast.walk(block)
                if isinstance(node, ast.ImportFrom)
                and node.module == "tetherlaunch"
                for alias in node.names}
    exported = {name for name, value in vars(tetherlaunch).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == imported


def test_layout_names_the_default_factories():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("`src/tetherlaunch/` layout:")[1].split("\n\n")[0]
    cited = set(re.findall(r"\bdefault_\w+", paragraph))
    defined = {name for path in (ROOT / "src").rglob("*.py")
               for name in re.findall(r"^def (default_\w+)",
                                      path.read_text(encoding="utf-8"),
                                      re.MULTILINE)}
    assert cited == defined
