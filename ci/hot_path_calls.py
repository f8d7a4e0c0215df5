#!/usr/bin/env python3
"""Checks that the queue's single-value fast paths make no out-of-line calls.

Usage (from the root of the repository, after a release build):

    cargo build --release -p wfq-examples --bin quickstart
    python3 ci/hot_path_calls.py target/release/quickstart

The binary is a downstream crate built like any user's: no LTO, default
codegen units, so only what is `#[inline]` (or generic) crosses the crate
boundary. The script disassembles every instance of
`RawQueue::enqueue_internal` and `RawQueue::dequeue_internal` and fails if
either calls anything but the cold bodies named in ALLOWED. A new call on
the fast path (a helper that lost its `#[inline]`, a call through the GOT)
shows here as an unexpected callee. Calls through the GOT (how a generic
function instantiated downstream reaches a non-generic one in `wfqueue`)
are resolved to the function the slot holds. Exit status 0 = clean, 1 = unexpected
calls, 2 = the functions were not found (inlined away or renamed: point the
script at their new home rather than letting it pass vacuously).
"""

import re
import subprocess
import sys

HOT = ("dequeue_internal", "enqueue_internal")

# The only calls the two functions may make: each is reached on a rare
# branch (slow path, segment boundary, pending peer request, cleanup
# threshold, reserved-value panic).
ALLOWED = (
    "deq_slow",
    "enq_slow",
    "help_deq_work",
    "find_cell_walk",
    "cleanup_cold",
    "reserved_value",
)

FUNC = re.compile(r"^([0-9a-f]+) <(.*)>:$")
CALL = re.compile(r"\s(call|jmp)q?\s+(\S.*)$")
TARGET = re.compile(r"^[0-9a-f]+ <(.*?)(\+0x[0-9a-f]+)?>$")
SLOT = re.compile(r"^\*0x[0-9a-f]+\(%rip\)\s+# ([0-9a-f]+) ")
RELOC = re.compile(r"^([0-9a-f]+) (R_X86_64_\w+)\s+(\S+)")


def got_slots(binary, funcs):
    """Maps each GOT slot address to the name of the function it holds."""
    out = subprocess.run(["objdump", "-R", "-C", binary], capture_output=True, text=True).stdout
    slots = {}
    for line in out.splitlines():
        m = RELOC.match(line)
        if not m:
            continue
        slot, kind, value = int(m.group(1), 16), m.group(2), m.group(3)
        if kind == "R_X86_64_RELATIVE" and value.startswith("*ABS*+"):
            slots[slot] = funcs.get(int(value[len("*ABS*+"):], 16), value)
        else:
            slots[slot] = value
    return slots


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", "-C", sys.argv[1]],
        capture_output=True, text=True, check=True,
    ).stdout

    funcs = {int(m.group(1), 16): m.group(2) for m in map(FUNC.match, out.splitlines()) if m}
    slots = got_slots(sys.argv[1], funcs)

    found = {name: 0 for name in HOT}
    bad = []
    current = None
    for line in out.splitlines():
        m = FUNC.match(line)
        if m:
            sym = m.group(2)
            current = next((h for h in HOT if sym.endswith("RawQueue<_>::" + h)), None)
            if current:
                found[current] += 1
            continue
        if not current or not line.strip():
            continue
        c = CALL.search(line)
        if not c:
            continue
        op, operand = c.groups()
        # A direct target reads `addr <symbol+off>`; anything else (`*%rax`,
        # `*0x...(%rip)`, a call through the GOT) is indirect.
        t = TARGET.match(operand.strip())
        callee = t.group(1) if t else operand.strip()
        g = SLOT.match(operand.strip())
        if g and int(g.group(1), 16) in slots:
            callee = slots[int(g.group(1), 16)]
        if op == "jmp":
            # Intra-function branches are fine; a jmp to another function
            # is a tail call and counts as a call.
            if t and callee.endswith("RawQueue<_>::" + current):
                continue
            if not t and not g:
                bad.append((current, line.strip()))
                continue
        if not any(callee.endswith(a) or ("::" + a) in callee for a in ALLOWED):
            bad.append((current, f"{line.strip()}  [{callee}]"))

    missing = [n for n, k in found.items() if k == 0]
    if missing:
        print(f"hot_path_calls: no out-of-line instance of {missing} in {sys.argv[1]}")
        return 2
    for name, k in found.items():
        print(f"hot_path_calls: {name}: {k} instance(s) checked")
    if bad:
        for fn, line in bad:
            print(f"hot_path_calls: unexpected call in {fn}: {line}")
        return 1
    print("hot_path_calls: fast paths call only " + ", ".join(ALLOWED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
