#!/usr/bin/env python
"""Print the two earn-or-shed scans (report only; the exit code is 0).

Usage: ``python tools/earn_or_shed.py [--root DIR]`` (``make shed-scan``)

*Keep rule* — a public name stays only if something outside ``tests/``
uses it.  The scan lists every public ``def`` / ``class`` name in
``src/repro`` (module-level functions and classes, and the public methods
of those classes) that no file under ``src/``, ``bench/``,
``benchmarks/``, ``examples/`` or ``tools/`` mentions as a whole word.
Comments, docstrings, import statements, ``__all__`` lists, the
definition line itself and every package ``__init__.py`` (re-exports)
do not count as uses; other strings do (a span wrapper names its target
in one).

*Options rule* — an option stays only if two callers outside ``tests/``
and ``examples/`` need different values.  The scan lists every defaulted
parameter, and every defaulted dataclass field, that no call under
``src/``, ``bench/``, ``benchmarks/`` or ``tools/`` passes, by keyword or
by position.  A call is matched to its callee by the called name alone
(``f(...)``, ``obj.f(...)``; a class name means its constructor, and so
does ``cls(...)`` inside the class body), so a
callee name defined twice in ``src/repro`` is reported as ambiguous
instead.  Not scanned: private callees (a leading ``_``), the trace and
bus event records (``TraceEvent`` / ``ServiceEvent`` and their subclasses:
every field is an output) and dataclass fields with a ``default_factory``
(state the object fills in).  For a dataclass field, ``replace(field=...)``
and an assignment ``x.field = ...`` count as passing it, for every
dataclass with a field of that name.

Both lists print in the ROADMAP's format, one bullet per module.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

KEEP_DIRS = ("src", "bench", "benchmarks", "examples", "tools")
CALLER_DIRS = ("src", "bench", "benchmarks", "tools")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
EVENT_RECORDS = ("TraceEvent", "ServiceEvent")


def _py_files(root: Path, dirs) -> Iterator[Path]:
    for d in dirs:
        base = root / d
        if base.is_dir():
            yield from sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(path: Path) -> Tuple[str, ast.Module]:
    text = path.read_text(encoding="utf-8")
    return text, ast.parse(text, filename=str(path))


def _module(root: Path, path: Path) -> str:
    return path.relative_to(root / "src").with_suffix("").as_posix().replace("/", ".")


# --------------------------------------------------------------------- #
# keep rule
# --------------------------------------------------------------------- #
def public_names(root: Path) -> List[Tuple[str, str, str]]:
    """``(module, qualname, name)`` of every public def / class in src/repro."""
    out = []
    for path in _py_files(root, ("src/repro",)):
        if path.name == "__init__.py":
            continue
        _, tree = _parse(path)
        mod = _module(root, path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((mod, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.append((mod, f"{node.name}.{item.name}", item.name))
    return out


def _skipped(tree: ast.Module) -> Tuple[Set[int], Set[Tuple[int, str]], Set[int]]:
    """Lines of imports and ``__all__``, definition-name sites, docstring lines."""
    lines: Set[int] = set()
    defs: Set[Tuple[int, str]] = set()
    docs: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                lines.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add((node.lineno, node.name))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docs.add(body[0].lineno)
    return lines, defs, docs


def word_uses(root: Path) -> Counter:
    """Whole-word uses in kept code, by the rule in the module docstring."""
    uses: Counter = Counter()
    for path in _py_files(root, KEEP_DIRS):
        if path.name == "__init__.py":
            continue
        text, tree = _parse(path)
        lines, defs, docs = _skipped(tree)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            line = tok.start[0]
            if line in lines:
                continue
            if tok.type == tokenize.NAME:
                if (line, tok.string) not in defs:
                    uses[tok.string] += 1
            elif tok.type == tokenize.STRING and line not in docs:
                uses.update(_WORD.findall(tok.string))
    return uses


def keep_findings(root: Path) -> List[Tuple[str, str]]:
    uses = word_uses(root)
    return [(mod, qual) for mod, qual, name in public_names(root) if not uses[name]]


# --------------------------------------------------------------------- #
# options rule
# --------------------------------------------------------------------- #
@dataclass
class Signature:
    """A callee's parameters in positional order, and which have defaults."""

    module: str
    callee: str
    params: List[str]
    keyword_only: List[str]
    defaulted: List[str]
    dataclass_fields: bool = False
    passed: Set[str] = field(default_factory=set)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _decorators(node: ast.FunctionDef) -> Set[str]:
    return {getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list}


def _function_params(node: ast.FunctionDef, bound: bool) -> Tuple[List[str], List[str], List[str]]:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if bound and positional and "staticmethod" not in _decorators(node):
        positional = positional[1:]
    n_defaults = len(args.defaults)
    defaulted = positional[len(positional) - n_defaults :] if n_defaults else []
    keyword_only = [a.arg for a in args.kwonlyargs]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, keyword_only, defaulted


def _field_params(node: ast.ClassDef) -> Tuple[List[str], List[str]]:
    """Own init fields of a dataclass body, and which have defaults."""
    names, defaulted = [], []
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            kws = {k.arg: k.value for k in value.keywords}
            init = kws.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if "default" in kws:
                defaulted.append(item.target.id)
        elif value is not None:
            defaulted.append(item.target.id)
        names.append(item.target.id)
    return names, defaulted


def signatures(root: Path) -> Dict[str, List[Signature]]:
    """Callee name -> every signature defined under that name in src/repro."""
    classes: Dict[str, Tuple[str, ast.ClassDef]] = {}
    index: Dict[str, List[Signature]] = defaultdict(list)
    for path in _py_files(root, ("src/repro",)):
        _, tree = _parse(path)
        mod = _module(root, path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                pos, kwo, dflt = _function_params(node, bound=False)
                index[node.name].append(Signature(mod, node.name, pos, kwo, dflt))
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = (mod, node)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        pos, kwo, dflt = _function_params(item, bound=True)
                        index[item.name].append(
                            Signature(mod, f"{node.name}.{item.name}", pos, kwo, dflt)
                        )

    def constructor(name: str, seen: Set[str]) -> Optional[Signature]:
        if name not in classes or name in seen:
            return None
        seen.add(name)
        mod, node = classes[name]
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                pos, kwo, dflt = _function_params(item, bound=True)
                return Signature(mod, name, pos, kwo, dflt)
        bases = [getattr(b, "id", getattr(b, "attr", "")) for b in node.bases]
        inherited = next(
            (sig for sig in (constructor(b, seen) for b in bases) if sig is not None), None
        )
        if not _is_dataclass(node):
            return None if inherited is None else Signature(
                mod, name, inherited.params, inherited.keyword_only, inherited.defaulted
            )
        own, dflt = _field_params(node)
        params = [p for p in (inherited.params if inherited else []) if p not in own] + own
        defaulted = [p for p in (inherited.defaulted if inherited else []) if p not in own] + dflt
        return Signature(mod, name, params, [], defaulted, dataclass_fields=True)

    def is_event(name: str) -> bool:
        if name in EVENT_RECORDS:
            return True
        if name not in classes:
            return False
        return any(is_event(getattr(b, "id", "")) for b in classes[name][1].bases)

    for name in classes:
        sig = constructor(name, set())
        if sig is not None and not is_event(name):
            index[name].append(sig)
    return index


def _credit(sig: Signature, call: ast.Call) -> None:
    if any(isinstance(a, ast.Starred) for a in call.args):
        sig.passed.update(sig.params)
    else:
        sig.passed.update(sig.params[: len(call.args)])
    for kw in call.keywords:
        if kw.arg is None:  # **mapping: anything could be in it
            sig.passed.update(sig.params + sig.keyword_only)
        else:
            sig.passed.add(kw.arg)


def _calls(node: ast.AST, cls: Optional[str] = None) -> Iterator[Tuple[ast.Call, str]]:
    """Every call under *node* with its called name (``cls`` resolved)."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and cls is not None:
            name = cls
        if name is not None:
            yield node, name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, cls)


def options_findings(root: Path):
    """``(findings, ambiguous)``: unpassed defaults per signature, and the
    callee names with unpassed defaults that are defined more than once."""
    index = signatures(root)
    dataclass_sigs = [s for sigs in index.values() for s in sigs if s.dataclass_fields]
    for path in _py_files(root, CALLER_DIRS):
        _, tree = _parse(path)
        for node, name in _calls(tree):
            if name == "replace":
                fields = {kw.arg for kw in node.keywords if kw.arg is not None}
                for sig in dataclass_sigs:
                    sig.passed.update(fields & set(sig.params))
            sigs = index.get(name)
            if sigs and len(sigs) == 1:
                _credit(sigs[0], node)
        assigned = {
            target.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute)
        }
        for sig in dataclass_sigs:
            sig.passed.update(assigned & set(sig.params))
    findings, ambiguous = [], []
    for name, sigs in sorted(index.items()):
        if name.startswith("_"):
            continue
        unpassed = [(s, [p for p in s.defaulted if p not in s.passed]) for s in sigs]
        unpassed = [(s, ps) for s, ps in unpassed if ps]
        if not unpassed:
            continue
        if len(sigs) > 1:
            ambiguous.append((name, sorted({s.module for s in sigs})))
        else:
            sig, params = unpassed[0]
            findings.append((sig, params))
    return findings, ambiguous


# --------------------------------------------------------------------- #
def _by_module(items: List[Tuple[str, str]]) -> Dict[str, List[str]]:
    grouped: Dict[str, List[str]] = defaultdict(list)
    for mod, text in items:
        grouped[mod].append(text)
    return grouped


def _join_methods(quals: List[str]) -> List[str]:
    """``A.x``, ``A.y`` -> ``A.x` / `y`` (the ROADMAP's spelling)."""
    out: List[str] = []
    last_cls = None
    for qual in quals:
        cls, _, meth = qual.rpartition(".")
        if cls and cls == last_cls:
            out[-1] += f" / `{meth}`"
        else:
            out.append(f"`{qual}`")
        last_cls = cls or None
    return out


def report(root: Path) -> None:
    keep = keep_findings(root)
    print(f"Keep rule: {len(keep)} public names in src/repro with no use outside tests/")
    for mod, quals in _by_module(keep).items():
        print(f"  * {', '.join(_join_methods(quals))} (`{mod}`);")
    findings, ambiguous = options_findings(root)
    total = sum(len(params) for _, params in findings)
    print(
        f"Options rule: {total} settable values no caller outside tests/ and "
        "examples/ passes"
    )
    rows = [
        (sig.module, f"`{sig.callee}({', '.join(params)})` "
         f"({len(sig.params) + len(sig.keyword_only)} settable)")
        for sig, params in findings
    ]
    for mod, texts in _by_module(rows).items():
        print(f"  * {', '.join(texts)} (`{mod}`);")
    if ambiguous:
        print(
            "Ambiguous (callee name defined more than once, not scanned): "
            + ", ".join(f"`{name}`" for name, _ in ambiguous)
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (holds src/repro, bench/, benchmarks/, tools/ ...)",
    )
    args = parser.parse_args(argv)
    report(args.root.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
