"""README's "File formats" section gives each artifact format at the
version the code reads and writes, so a format bump cannot leave the
README stale."""

import json
from pathlib import Path

from streammem.assembly import RWLI
from streammem.memory import RWMB, SPILL_MANIFEST
from streammem.params import RWPM
from streammem.stream import RWFS

README = Path(__file__).resolve().parent.parent / "README.md"


def formats_section(text: str) -> str:
    """The body of the "## File formats" section of a markdown text."""
    return text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]


def stale_versions(section: str) -> list:
    """What `section` should read but does not: a list item opening with
    `<magic>` v<version> for each binary format, and the spill manifest as
    `buffer.manifest` v<version> with its one line."""
    items = [line for line in section.splitlines() if line.startswith("- ")]
    missing = [f"`{fmt.name}` v{fmt.version}"
               for fmt in (RWFS, RWMB, RWPM, RWLI)
               if not any(item.startswith(f"- `{fmt.name}` v{fmt.version} ")
                          for item in items)]
    version = json.loads(SPILL_MANIFEST)["version"]
    manifest = [f"`buffer.manifest` v{version},",
                f"`{SPILL_MANIFEST.decode().rstrip()}`"]
    return missing + [text for text in manifest if text not in section]


def test_readme_gives_every_format_version():
    section = formats_section(README.read_text(encoding="utf-8"))
    assert stale_versions(section) == []


def test_guard_sees_stale_versions():
    section = formats_section(README.read_text(encoding="utf-8"))
    rwli = f"`RWLI` v{RWLI.version}"
    line = f"`{SPILL_MANIFEST.decode().rstrip()}`"
    stale = section.replace(rwli + " ", "`RWLI` v0 ").replace(line, "`{}`")
    assert stale_versions(stale) == [rwli, line]
