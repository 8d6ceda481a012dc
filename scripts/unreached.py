#!/usr/bin/env python3
"""List the functions in src/ that no product binary contains.

Usage:
    unreached.py [--build-dir DIR] [--jobs N] [--allow FILE]

Configures a Debug build with one section per function and section
garbage collection at link time, builds the product binaries (the
`memoria` CLI, every bench/ binary and every examples/ program), and
compares symbol tables with nm. A strong function (nm type T) defined
by an object under src/ that appears in none of the linked binaries is
code only the tests reach, or nothing at all.

Each such function must be named on the allowlist (default
scripts/unreached_allow.txt): one demangled name without its parameter
list per line, then `#` and the reason it stays, such as a test hook or
a test's ground truth. Debug keeps every call out of line, so a function
a binary calls is present in it.

Exit status: 0 = every unreached function is allowed and every allowed
name is unreached; 1 = an unreached function is not allowed, or an
allowlist entry is stale; 2 = the build failed.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def product_targets():
    """The CLI plus every executable bench/ and examples/ declare."""
    targets = ["memoria_cli"]
    pattern = re.compile(
        r"^\s*(?:memoria_bench|memoria_example|add_executable)\((\w+)",
        re.M)
    for sub in ("bench", "examples"):
        text = (ROOT / sub / "CMakeLists.txt").read_text()
        targets += pattern.findall(text)
    return targets


def build(build_dir, jobs, targets):
    configure = [
        "cmake", "-S", str(ROOT), "-B", str(build_dir),
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "-j", str(jobs),
                 "--target", *targets]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            raise SystemExit(2)


def text_symbols(path, types):
    """Mangled names of defined symbols in `path` whose nm type is in
    `types`."""
    out = subprocess.run(["nm", "--defined-only", "-P", str(path)],
                         capture_output=True, text=True, check=True)
    names = set()
    for line in out.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in types:
            names.add(fields[0])
    return names


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def base_name(demangled):
    """`ns::Cls::fn[abi:cxx11](int) const` -> `ns::Cls::fn`."""
    demangled = re.sub(r"\[abi:\w+\]", "", demangled)
    depth = 0
    for i, c in enumerate(demangled):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0 and i > 0:
            return demangled[:i]
    return demangled


def load_allowlist(path):
    allowed = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        entry, _, reason = line.partition("#")
        entry = entry.strip()
        if not entry:
            continue
        if not reason.strip():
            raise SystemExit(f"{path}:{n}: '{entry}' gives no reason")
        allowed[entry] = reason.strip()
    return allowed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=str(ROOT / "build-unreached"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--allow",
                    default=str(ROOT / "scripts" / "unreached_allow.txt"))
    args = ap.parse_args()

    build_dir = Path(args.build_dir).resolve()
    targets = product_targets()
    build(build_dir, args.jobs, targets)

    defined = set()
    for obj in sorted((build_dir / "src").rglob("*.o")):
        defined |= text_symbols(obj, {"T"})

    linked = set()
    for exe in (p for p in build_dir.rglob("*")
                if p.is_file() and os.access(p, os.X_OK)
                and p.name in targets + ["memoria"]):
        linked |= text_symbols(exe, {"T", "t", "W", "w"})

    # Constructor and destructor variants demangle to one name.
    unreached = sorted(set(demangle(sorted(defined - linked))))
    allowed = load_allowlist(Path(args.allow))

    print(f"{len(unreached)} strong src/ functions in no product binary "
          f"({len(targets)} binaries)")
    failed = False
    seen = set()
    for name in unreached:
        base = base_name(name)
        seen.add(base)
        if base in allowed:
            print(f"  allowed  {name}  # {allowed[base]}")
        else:
            print(f"  UNREACHED {name}")
            failed = True
    for entry in sorted(set(allowed) - seen):
        print(f"  STALE    {entry}  (reached now, or gone: drop the entry)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
