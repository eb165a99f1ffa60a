#!/usr/bin/env python3
"""List the public surface of src/ that only tests/ uses: deletion candidates.

Surface = every field of a struct named *Config, *Options or *Spec in a
src/ header, plus every public function (free or member) declared in a src/
header. For each entry the audit checks whether bench/, examples/,
perfbench/ and tests/ use it:
  * a field is used where `.name` or `->name` appears (set or read);
  * a function is used where `Name(` appears as a call, not a declaration.
A field that src/ itself sets (a preset such as DeviceSpec::V100_16GB) or a
function that src/ itself calls is in use by the program and never listed.
Matching is by name, so a name shared by two structs counts for both: the
audit can miss a candidate but does not invent one.

--knobs lists instead the fields that no file in bench/, examples/ or
perfbench/ mentions and that src/ never assigns: options only their default
(or a test) ever sets, which should be constants. It exits 1 when that list
is non-empty. --root DIR audits another tree (default: this repository).

Run from the repository root:  python3 tools/surface_audit.py [--knobs]
"""
import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ("bench", "examples", "perfbench")
USERS = PROGRAMS + ("tests",)
SOURCE = {".h", ".cc", ".cpp"}
KEYWORDS = {"return", "else", "case", "throw", "new", "co_return"}
# One pass over strings, character literals and comments, so a "//" inside a
# string does not start a comment and a quote inside a comment opens nothing.
TOKEN = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])+\'|//[^\n]*|/\*.*?\*/', re.S)
SCOPE = re.compile(r"\s*(?:template\s*<[^>]*>\s*)?(class|struct)\s+(\w+)[^;{]*\{")
# `\s*+` takes the whole indent, so the keyword guard sees the first word.
FIELD = re.compile(r"\s*+(?!return\b|using\b|static\b|friend\b|enum\b|typedef\b)"
                   r"[\w:<>,\s*&]+?[\s*&](\w+)\s*(?:=[^;]*|\{[^}]*\})?;\s*$")
FUNC = re.compile(r"\s*(?:(?:static|virtual|inline|explicit|constexpr|friend)\s+)*"
                  r"(?:\[\[\w+\]\]\s*)?[\w:<>,*&\s]+?[\s*&](\w+)\s*\(")


def strip(text):
    return TOKEN.sub(lambda m: '""' if m.group(0)[0] in "\"'" else "", text)


def sources(top):
    return [p for p in sorted((ROOT / top).rglob("*")) if p.suffix in SOURCE]


def surface():
    """Yields (kind, qualified name, bare name, header) for every entry."""
    for header in sources("src"):
        if header.suffix != ".h":
            continue
        stack = []  # [kind, name, public] per open brace
        for line in strip(header.read_text()).splitlines():
            scope = SCOPE.match(line)
            access = re.match(r"\s*(public|private|protected)\s*:", line)
            if access and stack:
                stack[-1][2] = access.group(1) == "public"
            top = stack[-1] if stack else ["ns", "", True]
            classes = [s[1] for s in stack if s[0] in ("class", "struct")]
            if not scope and top[0] != "other" and top[2]:
                func = FUNC.match(line)
                field = FIELD.match(line)
                if func and func.group(1) not in classes + ["operator"]:
                    name = func.group(1)
                    yield "function", "::".join(classes + [name]), name, header
                elif (field and classes
                      and re.search(r"(Config|Options|Spec)$", classes[-1])):
                    name = field.group(1)
                    yield "field", "::".join(classes + [name]), name, header
            for i, char in enumerate(c for c in line if c in "{}"):
                if char == "}":
                    stack and stack.pop()
                elif scope and i == 0:
                    stack.append([scope.group(1), scope.group(2), scope.group(1) == "struct"])
                elif re.match(r"\s*(?:inline\s+)?namespace\b", line) and i == 0:
                    stack.append(["ns", "", True])
                else:
                    stack.append(["other", "", False])


def calls(text, name):
    """True when `text` calls `name`: no return type precedes it on its line."""
    for match in re.finditer(r"(?<![\w~])(?:\w+::)*" + name + r"\s*\(", text):
        before = text[text.rfind("\n", 0, match.start()) + 1:match.start()].rstrip()
        word = re.search(r"(\w+)$", before)
        if word.group(1) in KEYWORDS if word else not re.search(r"(?<!-)>$|\w\s*[*&]$", before):
            return True
    return False


def main():
    global ROOT
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--knobs", action="store_true",
                        help="list config fields no program sets; exit 1 if any")
    parser.add_argument("--root", type=pathlib.Path, default=ROOT,
                        help="tree to audit (default: this repository)")
    args = parser.parse_args()
    ROOT = args.root.resolve()
    texts = {d: {p: strip(p.read_text()) for p in sources(d)} for d in USERS + ("src",)}
    joined = {d: "\n".join(files.values()) for d, files in texts.items()}
    seen = set()
    rows = []
    for kind, qualified, name, header in surface():
        if qualified in seen or (args.knobs and kind != "field"):
            continue
        seen.add(qualified)
        if kind == "field":
            access = re.compile(r"(?:\.|->)" + name + r"\b")
            used = {d: bool(access.search(joined[d])) for d in USERS}
            used["src"] = bool(re.search(access.pattern + r"\s*=(?!=)", joined["src"]))
        else:
            used = {d: calls(joined[d], name) for d in USERS}
            used["src"] = calls(joined["src"], name)
        if args.knobs:
            listed = not any(used[d] for d in PROGRAMS + ("src",))
        else:
            listed = used["tests"] and not any(used[d] for d in used if d != "tests")
        if listed:
            rows.append((kind, qualified, header.relative_to(ROOT)))
    what = "fields no program sets" if args.knobs else "entries only tests/ uses"
    print(f"{len(rows)} {what} (of {len(seen)} audited):")
    for kind, qualified, header in rows:
        print(f"  {kind:8} {qualified:52} {header}")
    return 1 if args.knobs and rows else 0


if __name__ == "__main__":
    sys.exit(main())
