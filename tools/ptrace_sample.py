#!/usr/bin/env python3
"""A ptrace sampling profiler for one command.

Runs COMMAND as a child and, about every millisecond, stops each of its
running threads with PTRACE_INTERRUPT, reads the instruction pointer and
lets it go again. The sampled addresses are resolved with
`addr2line -f -i -C`, which expands inlined frames, so a fat-LTO build
whose hot code is all inlined into a few symbols still reports the
inlined functions and lines. Prints the sample shares by innermost
function, by enclosing `phase_*` frame (the cycle loop's phases; code
not inlined into a phase is listed by its own symbol, as there is no
stack unwinding) and by source line.

Exit status: COMMAND's, or 0 with a message on stderr when this host
refuses ptrace.

Usage: tools/ptrace_sample.py [--top N] -- COMMAND...
"""

import argparse
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGSET = 0x4204
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
NT_PRSTATUS = 1
ADDR = re.compile(r"0x[0-9a-f]+")
WALL = 0x40000000
# Seconds between two sampling ticks.
INTERVAL_S = 0.001
# Index of the instruction pointer in the NT_PRSTATUS register set.
PC_INDEX = {"x86_64": 16, "aarch64": 32}

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


class IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


def ptrace(req, tid, addr=None, data=None):
    if libc.ptrace(req, tid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def read_pc(tid, pc_index):
    buf = (ctypes.c_ulong * 64)()
    iov = IoVec(ctypes.cast(buf, ctypes.c_void_p), ctypes.sizeof(buf))
    ptrace(PTRACE_GETREGSET, tid, NT_PRSTATUS, ctypes.byref(iov))
    return buf[pc_index]


def thread_state(pid, tid):
    """The thread's scheduler state letter (`R` running, `Z` exited)."""
    try:
        with open(f"/proc/{pid}/task/{tid}/stat") as f:
            stat = f.read()
    except OSError:
        return "X"
    return stat[stat.rindex(")") + 2]


def sample_once(pid, tid, pc_index):
    """Interrupts one seized thread, reads its pc and resumes it."""
    ptrace(PTRACE_INTERRUPT, tid)
    while True:
        _, status = os.waitpid(tid, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return None
        if not os.WIFSTOPPED(status):
            continue
        sig = os.WSTOPSIG(status)
        event = status >> 16
        if event == 0 and sig not in (signal.SIGTRAP, signal.SIGSTOP):
            # A signal-delivery stop: pass the signal on, then wait for
            # the interrupt's own stop.
            ptrace(PTRACE_CONT, tid, None, sig)
            continue
        pc = read_pc(tid, pc_index)
        ptrace(PTRACE_CONT, tid, None, None)
        return pc


def load_maps(pid):
    """Executable file mappings: (start, end, file offset, path)."""
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and "x" in parts[1] and parts[5].startswith("/"):
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return maps


def elf_loads(path):
    """PT_LOAD segments of a 64-bit little-endian ELF: (offset, vaddr, filesz)."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    loads = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return loads


def to_file_vaddr(pc, maps, loads_by_path):
    for lo, hi, off, path in maps:
        if lo <= pc < hi:
            file_off = pc - lo + off
            for p_offset, p_vaddr, p_filesz in loads_by_path.setdefault(path, elf_loads(path)):
                if p_offset <= file_off < p_offset + p_filesz:
                    return path, file_off - p_offset + p_vaddr
            return path, None
    return None, None


def resolve(path, addrs):
    """addr -> inline chain [(function, file:line)], innermost first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True).stdout.splitlines()
    chains, cur, k = {}, None, 0
    while k < len(out):
        line = out[k]
        if ADDR.fullmatch(line):
            cur = int(line, 16)
            chains[cur] = []
            k += 1
            continue
        fn, loc = line, out[k + 1] if k + 1 < len(out) else "??:0"
        loc = loc.split(" (discriminator")[0]
        chains[cur].append((fn, loc.rsplit("/", 1)[-1] if "/" in loc else loc))
        k += 2
    return chains


def short(fn):
    """Drops the generic arguments and crate paths down to `Type::method`."""
    depth, plain = 0, []
    for ch in fn:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            plain.append(ch)
    parts = [p for p in "".join(plain).split("::") if p]
    return "::".join(parts[-2:]) if parts else fn


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("command", nargs="+")
    args = ap.parse_args()
    pc_index = PC_INDEX.get(os.uname().machine)
    if pc_index is None:
        print(f"ptrace_sample: unsupported machine {os.uname().machine}; skipping",
              file=sys.stderr)
        return 0

    child = subprocess.Popen(args.command, stdout=subprocess.DEVNULL)
    pid = child.pid
    seized, samples, idle, ticks = set(), collections.Counter(), 0, 0
    maps, started = [], time.time()
    while child.poll() is None:
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
            maps = load_maps(pid) or maps
        except OSError:
            break
        for tid in tids:
            if tid not in seized:
                try:
                    ptrace(PTRACE_SEIZE, tid)
                except OSError as e:
                    if not seized and e.errno in (1, 13):  # EPERM, EACCES
                        print(f"ptrace_sample: ptrace refused on this host ({e.strerror}); "
                              "skipping", file=sys.stderr)
                        child.wait()
                        return 0
                    continue
                seized.add(tid)
            state = thread_state(pid, tid)
            if state in "ZX" and tid != pid:
                # A traced thread that exited stays a zombie until its
                # tracer reaps it, and the process cannot end before.
                try:
                    os.waitpid(tid, WALL | os.WNOHANG)
                except ChildProcessError:
                    pass
                continue
            if state != "R":
                idle += 1
                continue
            try:
                pc = sample_once(pid, tid, pc_index)
            except (OSError, ChildProcessError):
                continue
            if pc is not None:
                samples[pc] += 1
        ticks += 1
        time.sleep(INTERVAL_S)
    status = child.wait()
    wall = time.time() - started
    total = sum(samples.values())
    print(f"== ptrace samples: {total} on-CPU thread samples ({idle} idle) over {ticks} "
          f"ticks in {wall:.1f} s ==")
    if total == 0:
        return status

    by_path, loads = collections.defaultdict(dict), {}
    unresolved = 0
    for pc, n in samples.items():
        path, vaddr = to_file_vaddr(pc, maps, loads)
        if vaddr is None:
            unresolved += n
        else:
            by_path[path][vaddr] = by_path[path].get(vaddr, 0) + n
    funcs, phases, lines = collections.Counter(), collections.Counter(), collections.Counter()
    for path, counts in by_path.items():
        addrs = sorted(counts)
        chains = {}
        for k in range(0, len(addrs), 2000):
            chains.update(resolve(path, addrs[k:k + 2000]))
        for addr, n in counts.items():
            chain = chains.get(addr) or [(os.path.basename(path), "??:0")]
            funcs[short(chain[0][0])] += n
            lines[f"{short(chain[0][0])} @ {chain[0][1]}"] += n
            # A function that was not inlined into its phase is its own
            # symbol: report it by that outermost frame.
            phase = next((short(fn) for fn, _ in chain if "::phase_" in fn), None)
            phases[phase or f"(symbol) {short(chain[-1][0])}"] += n
    if unresolved:
        funcs["(unmapped)"] += unresolved

    def table(title, counter, top):
        print(f"== {title} ==")
        for name, n in counter.most_common(top):
            print(f"{100.0 * n / total:6.1f}%  {n:7d}  {name}")

    table(f"innermost function (top {args.top})", funcs, args.top)
    table(f"enclosing phase or symbol (top {args.top})", phases, args.top)
    table(f"source line (top {args.top})", lines, args.top)
    return status


if __name__ == "__main__":
    sys.exit(main())
