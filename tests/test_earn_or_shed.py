"""``tools/earn_or_shed.py`` on a small fixture tree with known answers."""

import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "earn_or_shed", ROOT / "tools" / "earn_or_shed.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the tool's dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


FILES = {
    "src/repro/__init__.py": """
        from repro.mod import reexported_only
        __all__ = ["reexported_only"]
    """,
    "src/repro/mod.py": '''
        """Mentions ghost in prose, which is not a use."""
        from dataclasses import dataclass, field

        __all__ = ["kept", "ghost", "Box", "Cfg"]


        def kept(x, *, knob=1, free=2):
            return x


        def ghost():
            """ghost"""
            return 0  # ghost


        def reexported_only():
            return 1


        def named_in_string():
            return 2


        def dup(x=1):
            return x


        class Box:
            def opened(self, lid=True):
                return lid

            def sealed(self):
                return None


        @dataclass
        class Cfg:
            a: int = 1
            b: int = 2
            c: list = field(default_factory=list)
            d: int = 4
            e: int = 5

            @classmethod
            def quick(cls):
                return cls(e=0)
    ''',
    "src/repro/other.py": """
        from repro.mod import Box, Cfg, dup, ghost, kept


        def dup(y=2):
            return y


        def run(cfg):
            kept(1, knob=3)
            Box().opened(False)
            cfg.d = 7
            return Cfg(5), Cfg.quick(), dup()
    """,
    "bench/spans.py": """
        from repro.other import run

        TARGET = "repro.mod.named_in_string"
        run(None)
    """,
    "examples/demo.py": """
        from repro.mod import kept

        kept(0, free=9)
    """,
    "tests/test_mod.py": """
        from repro.mod import Box, Cfg, ghost, kept

        ghost()
        Box().sealed()
        kept(0, free=3)
        Cfg(b=1)
    """,
}


def _tree(tmp_path):
    for rel, text in FILES.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip("\n"))
    return tmp_path


def test_scans_on_a_fixture_tree(tmp_path, capsys):
    tool = _tool()
    root = _tree(tmp_path)

    # keep rule: tests, prose, imports, __all__ and __init__ re-exports are
    # not uses; a string naming the target (a span wrapper) and an example are
    assert sorted(tool.keep_findings(root)) == [
        ("repro.mod", "Box.sealed"),
        ("repro.mod", "ghost"),
        ("repro.mod", "reexported_only"),
    ]

    # options rule: examples/ and tests/ callers do not count; positional,
    # keyword, cls(...) and attribute assignment do; default_factory fields
    # are state, and a callee name defined twice is ambiguous
    findings, ambiguous = tool.options_findings(root)
    assert sorted((sig.callee, params) for sig, params in findings) == [
        ("Cfg", ["b"]),
        ("kept", ["free"]),
    ]
    assert ambiguous == [("dup", ["repro.mod", "repro.other"])]

    assert tool.main(["--root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "* `ghost`, `reexported_only`, `Box.sealed` (`repro.mod`);" in out
    assert "* `Cfg(b)` (5 settable), `kept(free)` (3 settable) (`repro.mod`);" in out
    assert "Ambiguous (callee name defined more than once, not scanned): `dup`" in out
