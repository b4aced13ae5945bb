"""Every citation in the README and docs/*.md still names something that exists.

The docs state contracts by pointing at the code and tests that hold them,
so a rename that leaves a pointer dangling fails here:

- a test cited as ``tests/<file>.py::<Name>[::<method>]`` is defined there;
- a backticked dotted name headed by a ``calibrec`` module resolves by
  ``getattr`` (a file name such as ``perk.jsonl`` is told apart by its
  suffix);
- a backticked ``<section>.<key>`` of a config section is a
  ``cli.CONFIG_SPEC`` key;
- a ``docs/<file>.md, "<Section>"`` pointer, in the docs or in ``src/``,
  names a heading of that file that begins with those words;
- a relative markdown link resolves.

CHANGES.md and ROADMAP.md are history and are not read.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from calibrec import cli

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
SOURCES = sorted((ROOT / "src" / "calibrec").glob("*.py"))
MODULES = sorted(path.stem for path in SOURCES if not path.stem.startswith("_"))
SECTIONS = sorted({key.split(".")[0] for key in cli.CONFIG_SPEC if "." in key})
FILE_SUFFIXES = {"bin", "csv", "json", "jsonl", "md", "py", "txt"}

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
TEST_CITATION = re.compile(r"tests/(\w+\.py)::\s*(\w+)(?:::(\w+))?")
POINTER = re.compile(r"docs/([\w-]+\.md)[`)\]]*,\s+\"([^\"]+)\"")
LINK = re.compile(r"\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#+\s+(.*)$", re.M)


def _prose(path):
    """The file's text without fenced code blocks."""
    return FENCE.sub("", path.read_text(encoding="utf-8"))


def _words(text):
    return " ".join(text.replace("`", "").split())


def _ids(paths):
    return [path.relative_to(ROOT).as_posix() for path in paths]


def _defined(path):
    """Top-level functions and classes of a Python file, each with the
    functions and classes defined in its body."""
    defs = (ast.FunctionDef, ast.ClassDef)
    return {
        node.name: {child.name for child in node.body if isinstance(child, defs)}
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, defs)
    }


def _resolves(dotted):
    module, *attrs = dotted.split(".")
    value = importlib.import_module(f"calibrec.{module}")
    for attr in attrs:
        if not hasattr(value, attr):
            return False
        value = getattr(value, attr)
    return True


def cited_test_problems(text):
    problems = []
    for file_name, name, method in TEST_CITATION.findall(text):
        path = ROOT / "tests" / file_name
        cited = f"tests/{file_name}::{name}" + (f"::{method}" if method else "")
        if not path.is_file():
            problems.append(f"{cited}: no such file")
            continue
        defined = _defined(path)
        if name not in defined:
            problems.append(f"{cited}: {name} is not defined in {file_name}")
        elif method and method not in defined[name]:
            problems.append(f"{cited}: {method} is not defined in {name}")
    return problems


def dotted_name_problems(text):
    problems = []
    for span in SPAN.findall(text):
        head = DOTTED.match(span)
        if not head:
            continue
        dotted = head.group().removeprefix("calibrec.")
        parts = dotted.split(".")
        if len(parts) == 2 and parts[1] in FILE_SUFFIXES:
            continue  # a file name, such as perk.jsonl or train.txt
        is_key = dotted in cli.CONFIG_SPEC
        if parts[0] in SECTIONS and parts[0] not in MODULES and not is_key:
            problems.append(f"`{span}`: {dotted} is not a cli.CONFIG_SPEC key")
        elif parts[0] in MODULES and not is_key and not _resolves(dotted):
            problems.append(f"`{span}`: calibrec.{dotted} does not resolve")
    return problems


def pointer_problems(text):
    problems = []
    for file_name, section in POINTER.findall(text):
        path = ROOT / "docs" / file_name
        if not path.is_file():
            problems.append(f'docs/{file_name}, "{section}": no such file')
            continue
        headings = [_words(h) for h in HEADING.findall(_prose(path))]
        if not any(heading.startswith(_words(section)) for heading in headings):
            problems.append(f'docs/{file_name}, "{_words(section)}": no heading begins so')
    return problems


def link_problems(path, text):
    problems = []
    for target in LINK.findall(text):
        if re.match(r"[a-z]+:", target) or target.startswith("#"):
            continue
        if not (path.parent / target.split("#")[0]).exists():
            problems.append(f"({target}): no such file")
    return problems


@pytest.mark.parametrize("path", DOCS, ids=_ids(DOCS))
class TestDocCitations:
    def test_cited_tests_exist(self, path):
        assert cited_test_problems(_prose(path)) == []

    def test_dotted_names_resolve(self, path):
        assert dotted_name_problems(_prose(path)) == []

    def test_section_pointers_name_headings(self, path):
        assert pointer_problems(_prose(path)) == []

    def test_relative_links_resolve(self, path):
        assert link_problems(path, _prose(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=_ids(SOURCES))
def test_source_pointers_name_headings(path):
    assert pointer_problems(path.read_text(encoding="utf-8")) == []


class TestCheckers:
    """Each check finds what it is for, so a passing run means something."""

    def test_a_missing_test_is_found(self):
        assert cited_test_problems("tests/test_docs.py::TestCheckers") == []
        assert cited_test_problems("tests/test_docs.py::TestCheckers::test_nothing") != []
        assert cited_test_problems("tests/test_docs.py::\n  TestNothing") != []
        assert cited_test_problems("tests/test_nothing.py::TestCheckers") != []

    def test_a_name_that_does_not_resolve_is_found(self):
        assert dotted_name_problems("`ranker.top_k(params, users)` `calibrec.perk.UTILITIES`") == []
        assert dotted_name_problems("`perk.jsonl` `train.txt` `np.add.at` `perk.k_max`") == []
        assert dotted_name_problems("`ranker.top_kk`") != []
        assert dotted_name_problems("`calibrec.dataset.Csr.nothing`") != []

    def test_a_key_outside_the_spec_is_found(self):
        assert dotted_name_problems("`train.lr` `bd.eta` `eval.ks=5`") == []
        assert dotted_name_problems("`train.learning_rate`") != []
        assert dotted_name_problems("`perk.kmax`") != []

    def test_a_pointer_to_no_heading_is_found(self):
        assert pointer_problems('docs/perk.md, "Why only\n   F1"') == []
        assert pointer_problems('`docs/perk.md`, "No such section"') != []
        assert pointer_problems('docs/nothing.md, "Setup"') != []

    def test_a_dangling_link_is_found(self):
        readme = ROOT / "README.md"
        assert link_problems(readme, "[a](docs/perk.md#setup) [b](https://example.org)") == []
        assert link_problems(readme, "[a](docs/nothing.md)") != []
