"""Every name a docstring or comment in ``src/cuspidal`` cites is bound there.

The package's losslessness arguments live in docstrings and cite the
functions they rely on, in double backticks or in a ``:func:``,
``:class:``, ``:data:`` or ``:mod:`` role.  A deletion or a rename that
leaves such a citation behind turns a proof into one about code that no
longer exists, so this check fails on it.

A citation counts as a name when it is a dotted identifier, optionally
called (``main(argv)``); formulas such as ``a = P_1`` and literals such as
``16,8_4,4_3,2_3`` are not names.  A dotted name must resolve by attribute
lookup from the citing module, from the package or from one of its
modules.  A plain name must be bound somewhere in the package's source:
defined, assigned, imported or taken as a parameter, since docstrings
cite locals and parameters too.  String values and standard-library
names pass only by the explicit lists below.
"""

import ast
import importlib
import io
import re
import tokenize
from functools import reduce
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cuspidal"
# every module imported, so the package holds each one as an attribute
MODULES = {
    path.stem: importlib.import_module(
        "cuspidal" if path.stem == "__init__" else f"cuspidal.{path.stem}"
    )
    for path in PACKAGE.glob("*.py")
}

CITATION = re.compile(r"``([^`]+)``|:(?:func|class|data|mod):`~?([^`]+)`")
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", re.DOTALL)

# names that docstrings cite as string values, not as bindings: table ids,
# search modes, an environment variable, a word of the multiplicity syntax
STRING_VALUES = frozenset({
    "all", "onepair", "twopairs", "threepairs", "fourpairs", "induct",
    "paranoid", "pruned", "CUSPIDAL_JOBS", "smooth",
})
# standard-library modules and builtins, cited by their own names
STANDARD_LIBRARY = frozenset({"ValueError", "dataclasses", "fractions"})


def _citations(text: str) -> list[str]:
    """The citations in the docstrings and comments of one module."""
    chunks = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    chunks += [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT
    ]
    return [m.group(1) or m.group(2) for chunk in chunks for m in CITATION.finditer(chunk)]


def _bound_names(text: str) -> set[str]:
    """Every identifier that the module's source binds, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
    return names


def _resolves(dotted: str, module_name: str) -> bool:
    names = dotted.split(".")
    if names[0] == "cuspidal":
        names = names[1:]
    for scope in (MODULES[module_name], MODULES["__init__"]):
        try:
            reduce(getattr, names, scope)
            return True
        except AttributeError:
            pass
    return False


def cited_names(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, citation, name) of every citation that is a name, for the
    package whose module texts ``sources`` maps by module name."""
    cited = []
    for module_name, text in sources.items():
        for citation in _citations(text):
            match = NAME.fullmatch(citation.strip())
            if match is not None:  # else a formula or a literal
                cited.append((module_name, citation, match.group(1)))
    return cited


def stale(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, citation) of every cited name that is not bound."""
    bound = set().union(*map(_bound_names, sources.values()))
    return [
        (module_name, citation)
        for module_name, citation, name in cited_names(sources)
        if name not in STRING_VALUES
        and name.split(".")[0] not in STANDARD_LIBRARY
        and not (_resolves(name, module_name) if "." in name else name in bound)
    ]


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_cited_name_is_bound_in_the_package():
    sources = _package_sources()
    cited = cited_names(sources)
    assert len(cited) > 200  # the scan still sees the citations
    # an entry of the lists that nothing cites any more is dropped from them
    heads = {name.split(".")[0] for _, _, name in cited}
    assert STRING_VALUES | STANDARD_LIBRARY <= heads
    assert stale(sources) == []


def test_a_stale_citation_is_flagged():
    sources = _package_sources()
    sources["invariants"] += "\n# reads the chain as ``_newton_from_chain`` does\n"
    sources["enumerate"] += '\n\ndef _f():\n    """See :func:`semigroup._span_cache`."""\n'
    assert stale(sources) == [
        ("enumerate", "semigroup._span_cache"),
        ("invariants", "_newton_from_chain"),
    ]
