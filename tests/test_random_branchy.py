"""Property test: random *branchy* programs agree across configurations.

Extends the straight-line-loop property of ``test_vm_end_to_end`` with
structured control flow — nested counted loops containing data-dependent
if/else diamonds and early-skip branches — which exercises superblock
formation with side exits, condition inversion, chaining across many
blocks, and multi-path profiling.  VM.soft and Interp+SBT run each
program once more on code caches too small to hold it, so every example
also checks what a flush leaves behind; a sixth VM warm-boots from the
store VM.soft's run saves, so every example also checks what a warm
start rebuilds (the fixed-seed run loads superblocks).
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    CoDesignedVM,
    interp_sbt,
    ref_superscalar,
    vm_be,
    vm_fe,
    vm_soft,
)
from repro.isa.x86lite import assemble
from tests.conftest import outcome, run_on_tiny_caches, warm_from

ALL = [ref_superscalar, vm_soft, vm_be, vm_fe, interp_sbt]

_REGS = ["eax", "ebx", "edx", "esi"]
_OPS = ["add", "sub", "xor", "or", "and"]
_CONDS = ["jz", "jnz", "js", "jns", "jl", "jge"]


@st.composite
def branchy_program(draw):
    label_counter = [0]

    def fresh(prefix):
        label_counter[0] += 1
        return f"{prefix}{label_counter[0]}"

    def straight_line(depth):
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            reg = draw(st.sampled_from(_REGS))
            op = draw(st.sampled_from(_OPS))
            if draw(st.booleans()):
                other = draw(st.sampled_from(_REGS))
                lines.append(f"    {op} {reg}, {other}")
            else:
                lines.append(f"    {op} {reg}, "
                             f"{draw(st.integers(-500, 500))}")
        return lines

    def diamond(depth):
        """if/else on a data-dependent condition."""
        else_label = fresh("else")
        end_label = fresh("end")
        reg = draw(st.sampled_from(_REGS))
        cond = draw(st.sampled_from(_CONDS))
        lines = [f"    test {reg}, {draw(st.integers(1, 255))}",
                 f"    {cond} {else_label}"]
        lines += block(depth + 1)
        lines += [f"    jmp {end_label}", f"{else_label}:"]
        lines += block(depth + 1)
        lines += [f"{end_label}:"]
        return lines

    def loop(depth):
        top = fresh("loop")
        iterations = draw(st.integers(1, 12))
        lines = [f"    push ecx",
                 f"    mov ecx, {iterations}",
                 f"{top}:"]
        lines += block(depth + 1)
        lines += ["    dec ecx", f"    jnz {top}", "    pop ecx"]
        return lines

    def block(depth):
        lines = []
        for _ in range(draw(st.integers(1, 3))):
            if depth >= 3:
                lines += straight_line(depth)
                continue
            kind = draw(st.sampled_from(["straight", "diamond", "loop"]))
            if kind == "straight":
                lines += straight_line(depth)
            elif kind == "diamond":
                lines += diamond(depth)
            else:
                lines += loop(depth)
        return lines

    body = ["start:"]
    for reg in _REGS:
        body.append(f"    mov {reg}, {draw(st.integers(0, 0xFFFF))}")
    body += loop(0)
    body += ["    mov eax, 1", "    mov ebx, esi", "    int 0x80",
             "    mov eax, 0", "    mov ebx, 0", "    int 0x80"]
    return "\n".join(body)


class TestBranchyEquivalence:
    def test_branchy_programs_agree_everywhere(self):
        superblocks_loaded = []

        @given(source=branchy_program(),
               threshold=st.sampled_from([2, 7]))
        @settings(max_examples=25, deadline=None, derandomize=True)
        def check(source, threshold):
            image = assemble(source)
            results = []
            for factory in ALL:
                vm = CoDesignedVM(factory(), hot_threshold=threshold)
                vm.load(image)
                results.append(outcome(vm))
                if factory is vm_soft:
                    warm, report = warm_from(vm, image)
            # a sixth VM, warm-booted from VM.soft's store
            results.append(warm)
            superblocks_loaded.append(report.sbt_loaded)
            assert all(result == results[0] for result in results[1:])
            regs, flags, _pages, output, (_exit, code) = results[0]
            for factory in (vm_soft, interp_sbt):
                vm = run_on_tiny_caches(factory, image)
                stats = vm.stats()
                assert stats["bbt_flushes"] + stats["sbt_flushes"]
                assert (list(vm.state.regs), vm.state.output,
                        vm.state.flags_tuple(), vm.state.exit_code) == \
                    (regs, output, flags, code)
        check()
        assert sum(superblocks_loaded) > 0
