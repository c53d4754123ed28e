"""Generate docs/API.md — a public-API reference from docstrings.

Walks every module under ``repro``, lists public classes and functions
with their signatures and docstring summaries.  Run after API changes:

    python scripts/generate_api_docs.py [--check]

``--check`` writes nothing: it exits 1 when the committed ``docs/API.md``
no longer matches what the docstrings generate (the CI ``lint`` job).
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro


def summary_of(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().split("\n\n")[0].replace("\n", " ").strip()
    return first


def signature_of(obj: object) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(…)"


def document_module(module) -> List[str]:
    lines: List[str] = []
    mod_summary = summary_of(module)
    lines.append(f"### `{module.__name__}`\n")
    if mod_summary:
        lines.append(mod_summary + "\n")

    members = inspect.getmembers(module)
    classes = [
        (name, obj)
        for name, obj in members
        if inspect.isclass(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]
    functions = [
        (name, obj)
        for name, obj in members
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]

    for name, cls in sorted(classes):
        lines.append(f"- **class `{name}`** — {summary_of(cls)}")
        methods = [
            (m_name, m_obj)
            for m_name, m_obj in inspect.getmembers(cls, inspect.isfunction)
            if not m_name.startswith("_") and m_obj.__qualname__.startswith(cls.__name__)
        ]
        for m_name, m_obj in sorted(methods):
            lines.append(
                f"    - `{m_name}{signature_of(m_obj)}` — {summary_of(m_obj)}"
            )
    for name, fn in sorted(functions):
        lines.append(f"- `{name}{signature_of(fn)}` — {summary_of(fn)}")
    lines.append("")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if docs/API.md is out of date",
    )
    args = parser.parse_args()

    lines = [
        "# API reference",
        "",
        "Generated from docstrings by `scripts/generate_api_docs.py` — do not",
        "edit by hand.",
        "",
    ]
    package_path = Path(repro.__file__).parent
    module_names = sorted(
        name
        for _finder, name, _ispkg in pkgutil.walk_packages(
            [str(package_path)], prefix="repro."
        )
        if "__main__" not in name
    )
    current_package = None
    for module_name in module_names:
        module = importlib.import_module(module_name)
        package = module_name.split(".")[1] if "." in module_name else ""
        if package != current_package:
            current_package = package
            lines.append(f"## `repro.{package}`\n")
        lines.extend(document_module(module))

    output = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    generated = "\n".join(lines)
    if args.check:
        committed = output.read_text() if output.exists() else ""
        drift = list(
            difflib.unified_diff(
                committed.splitlines(),
                generated.splitlines(),
                "docs/API.md (committed)",
                "docs/API.md (generated)",
                lineterm="",
            )
        )
        for line in drift:
            print(line)
        print("docs/API.md is out of date" if drift else "docs/API.md is current")
        return 1 if drift else 0
    output.write_text(generated)
    print(f"wrote {output} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
