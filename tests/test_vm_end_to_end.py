"""End-to-end VM tests: the same program must produce identical
architected results under every machine configuration of Table 2 —
reference superscalar (pure interpretation), VM.soft, VM.be, VM.fe, and
Interp+SBT — across translation, chaining, hotspot promotion and fusion.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CoDesignedVM,
    interp_sbt,
    ref_superscalar,
    vm_be,
    vm_fe,
    vm_soft,
)
from repro.isa.x86lite import ArchException, Reg, assemble
from tests.conftest import outcome, run_on_tiny_caches, warm_from

ALL = [ref_superscalar, vm_soft, vm_be, vm_fe, interp_sbt]
VM_ONLY = [vm_soft, vm_be, vm_fe, interp_sbt]


def run_all(source, hot_threshold=4, configs=ALL, max_uops=80_000_000):
    image = assemble(source)
    reports = []
    for factory in configs:
        vm = CoDesignedVM(factory(), hot_threshold=hot_threshold)
        vm.load(image)
        reports.append((vm, vm.run(max_uops=max_uops)))
    return reports


def assert_all_agree(source, hot_threshold=4):
    reports = run_all(source, hot_threshold)
    reference_vm, reference = reports[0]
    for vm, report in reports[1:]:
        assert report.output == reference.output, report.config_name
        assert report.exit_code == reference.exit_code, report.config_name
        assert vm.state.regs == reference_vm.state.regs, report.config_name
        assert vm.state.flags_tuple() == reference_vm.state.flags_tuple(), \
            report.config_name
    return reports


FIB_LOOP = """
start:
    mov eax, 0
    mov ebx, 1
    mov ecx, 40
loop:
    mov edx, eax
    add edx, ebx
    mov eax, ebx
    mov ebx, edx
    dec ecx
    jnz loop
    mov eax, 1
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

NESTED_LOOPS = """
start:
    mov esi, 0          ; accumulator
    mov ecx, 12         ; outer
outer:
    mov edx, 9          ; inner
inner:
    lea esi, [esi+edx*2+1]
    dec edx
    jnz inner
    dec ecx
    jnz outer
    mov eax, 1
    mov ebx, esi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

RECURSION = """
start:
    push 10
    call fib
    mov ebx, eax
    mov eax, 1
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
fib:                        ; fib(n), exponential recursion
    mov eax, [esp+4]
    cmp eax, 2
    jge recurse
    ret 4
recurse:
    dec eax
    push eax
    push eax
    call fib
    pop ebx                 ; n-1 back
    mov [esp-4], eax        ; stash fib(n-1) below stack top (scratch)
    dec ebx
    push eax                ; save fib(n-1) on stack properly
    push ebx
    call fib
    pop ebx                 ; fib(n-1)
    add eax, ebx
    ret 4
"""

MEMORY_AND_STRINGS = """
start:
    mov edi, 0x600000
    mov eax, 7
    mov ecx, 16
    rep stosd               ; fill 16 words
    mov esi, 0x600000
    mov edi, 0x601000
    mov ecx, 16
    rep movsd               ; copy them
    mov esi, 0x601000
    mov ecx, 16
    mov ebx, 0
sumloop:
    lodsd
    add ebx, eax
    dec ecx
    jnz sumloop
    mov eax, 1
    int 0x80                ; print 112
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

HOT_FUNCTION = """
start:
    mov edi, 0
    mov ecx, 60
again:
    push ecx
    call work
    pop ecx
    add edi, eax
    dec ecx
    jnz again
    mov eax, 1
    mov ebx, edi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
work:
    mov eax, [esp+4]
    imul eax, eax
    and eax, 0xFF
    ret
"""

BRANCHY = """
start:
    mov ecx, 50
    mov ebx, 0
    mov esi, 12345
top:
    mov eax, esi
    and eax, 1
    jz even
    lea esi, [esi+esi*2+1]  ; 3n+1
    jmp next
even:
    shr esi, 1
next:
    add ebx, esi
    dec ecx
    jnz top
    mov eax, 1
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

CMOV_AND_FLAGS = """
start:
    mov ecx, 30
    mov ebx, 0              ; max
    mov esi, 0x600000
    mov eax, 17
fill:
    imul eax, eax, 31
    add eax, 7
    and eax, 0xFFFF
    mov [esi], eax
    add esi, 4
    dec ecx
    jnz fill
    mov esi, 0x600000
    mov ecx, 30
scan:
    mov eax, [esi]
    cmp eax, ebx
    cmovg ebx, eax
    add esi, 4
    dec ecx
    jnz scan
    mov eax, 1
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

DIVISION = """
start:
    mov edi, 0
    mov ecx, 20
top:
    mov eax, ecx
    imul eax, eax, 1000
    mov edx, 0
    mov ebx, 7
    div ebx
    add edi, edx            ; sum remainders
    dec ecx
    jnz top
    mov eax, 1
    mov ebx, edi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""


class TestProgramEquivalence:
    @pytest.mark.parametrize("source,expected", [
        (FIB_LOOP, 165580141),  # ebx = fib(41) after 40 iterations
        (NESTED_LOOPS, 12 * (2 * 45 + 9)),
        (RECURSION, 55),
        (MEMORY_AND_STRINGS, 112),
        (HOT_FUNCTION, None),
        (BRANCHY, None),
        (CMOV_AND_FLAGS, None),
        (DIVISION, None),
    ], ids=["fib", "nested", "recursion", "strings", "hotfn", "branchy",
            "cmov", "division"])
    def test_all_configs_agree(self, source, expected):
        reports = assert_all_agree(source)
        if expected is not None:
            assert reports[0][1].output == [expected]

    def test_vm_actually_translates(self):
        reports = run_all(FIB_LOOP, configs=[vm_soft])
        report = reports[0][1]
        assert report.blocks_translated >= 3
        assert report.superblocks_translated >= 1
        assert report.uops_executed > 0
        assert report.chains_made >= 1

    def test_hot_loop_promoted_and_fused(self):
        reports = run_all(NESTED_LOOPS, configs=[vm_soft])
        report = reports[0][1]
        assert report.superblocks_translated >= 1
        assert report.pairs_fused >= 1
        assert report.fused_pairs_executed > 0

    def test_vm_be_uses_hardware_assist(self):
        reports = run_all(FIB_LOOP, configs=[vm_be])
        vm, report = reports[0]
        assert report.xltx86_invocations > 0

    def test_vm_fe_uses_bbb_detector(self):
        reports = run_all(FIB_LOOP, configs=[vm_fe])
        vm, report = reports[0]
        from repro.hwassist import BranchBehaviorBuffer
        assert isinstance(vm.runtime.profiler, BranchBehaviorBuffer)
        assert report.blocks_translated == 0  # no BBT in VM.fe
        assert report.superblocks_translated >= 1

    def test_interp_config_interprets_cold_code(self):
        reports = run_all(FIB_LOOP, configs=[interp_sbt], hot_threshold=25)
        report = reports[0][1]
        assert report.instructions_interpreted > 0
        assert report.blocks_translated == 0


class TestPreciseExceptions:
    DIV_FAULT = """
    start:
        mov ecx, 10
    warm:                  ; make the block hot and translated
        mov eax, 100
        mov edx, 0
        mov ebx, ecx
        div ebx
        dec ecx
        jnz warm           ; last iteration divides by... ecx=1 fine
        mov ebx, 0
        mov eax, 100
        mov edx, 0
        div ebx            ; #DE here
        hlt
    """

    @pytest.mark.parametrize("factory", VM_ONLY,
                             ids=lambda f: f.__name__)
    def test_divide_error_is_precise(self, factory):
        image = assemble(self.DIV_FAULT)
        vm = CoDesignedVM(factory(), hot_threshold=3)
        vm.load(image)
        with pytest.raises(ArchException) as excinfo:
            vm.run()
        # precise state: EIP points at the faulting DIV
        assert vm.state.eip == excinfo.value.addr
        assert vm.state.regs[Reg.EAX] == 100  # operands intact
        assert vm.state.regs[Reg.EBX] == 0

    def test_reference_agrees_on_fault_address(self):
        image = assemble(self.DIV_FAULT)
        addrs = []
        for factory in [ref_superscalar] + VM_ONLY:
            vm = CoDesignedVM(factory(), hot_threshold=3)
            vm.load(image)
            with pytest.raises(ArchException) as excinfo:
                vm.run()
            addrs.append(excinfo.value.addr)
        assert len(set(addrs)) == 1


# -- property-based cross-configuration equivalence ---------------------------

_SAFE_REGS = ["eax", "ebx", "edx", "esi", "edi"]
_BIN_OPS = ["add", "sub", "and", "or", "xor", "imul"]
_UN_OPS = ["inc", "dec", "neg", "not"]


@st.composite
def random_loop_program(draw):
    """A random counted loop over straight-line register arithmetic."""
    iterations = draw(st.integers(1, 25))
    lines = ["start:"]
    for reg in _SAFE_REGS:
        lines.append(f"    mov {reg}, {draw(st.integers(0, 0xFFFF))}")
    lines.append(f"    mov ecx, {iterations}")
    lines.append("body:")
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["bin", "un", "imm", "shift", "mem"]))
        reg = draw(st.sampled_from(_SAFE_REGS))
        if kind == "bin":
            other = draw(st.sampled_from(_SAFE_REGS))
            lines.append(f"    {draw(st.sampled_from(_BIN_OPS))} "
                         f"{reg}, {other}")
        elif kind == "un":
            lines.append(f"    {draw(st.sampled_from(_UN_OPS))} {reg}")
        elif kind == "imm":
            value = draw(st.integers(-1000, 100000))
            lines.append(f"    {draw(st.sampled_from(_BIN_OPS))} "
                         f"{reg}, {value}")
        elif kind == "shift":
            op = draw(st.sampled_from(["shl", "shr", "sar"]))
            lines.append(f"    {op} {reg}, {draw(st.integers(1, 7))}")
        else:
            slot = draw(st.integers(0, 15))
            if draw(st.booleans()):
                lines.append(f"    mov [0x600000+{slot * 4}], {reg}")
            else:
                lines.append(f"    mov {reg}, [0x600000+{slot * 4}]")
    lines.append("    dec ecx")
    lines.append("    jnz body")
    lines.append("    mov eax, 1")
    lines.append("    int 0x80")      # print ebx
    lines.append("    mov eax, 0")
    lines.append("    mov ebx, 0")
    lines.append("    int 0x80")
    return "\n".join(lines)


class TestRandomProgramEquivalence:
    def test_random_loops_agree_everywhere(self):
        superblocks_loaded = []

        @given(source=random_loop_program(),
               threshold=st.sampled_from([2, 5, 23]))
        @settings(max_examples=40, deadline=None, derandomize=True)
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
            # and on caches too small for the program: a flush mid-run
            for factory in (vm_soft, interp_sbt):
                vm = run_on_tiny_caches(factory, image)
                stats = vm.stats()
                assert stats["bbt_flushes"] + stats["sbt_flushes"]
                assert (list(vm.state.regs), vm.state.output,
                        vm.state.flags_tuple()) == \
                    (results[0][0], results[0][3], results[0][1])
        check()
        assert sum(superblocks_loaded) > 0
