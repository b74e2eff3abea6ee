"""Superblock formation tests."""

from repro.isa.x86lite import assemble
from repro.memory import AddressSpace, load_image
from repro.translator import form_superblock
from repro.vmm.profiling import EdgeProfile
from tests.sbt_oracle import scan_block


def block_fallthrough(memory, entry):
    """Address of the instruction after a block's terminator."""
    return scan_block(memory, entry)[-1].next_addr


def setup(source):
    image = assemble(source)
    memory = AddressSpace()
    load_image(image, memory)
    return memory, image.labels, image.entry


LOOP = """
start:
    mov ecx, 100
loop:
    add eax, ecx
    dec ecx
    jnz loop
    ret
"""


class TestFormation:
    def test_self_loop_detected(self):
        memory, labels, _entry = setup(LOOP)
        edges = EdgeProfile()
        edges.record(labels["loop"], labels["loop"], 99)
        edges.record(labels["loop"], labels["loop"] + 5, 1)
        superblock = form_superblock(memory, labels["loop"], edges)
        assert superblock.loops_to_head
        assert len(superblock.blocks) == 1
        assert superblock.blocks[0].followed == "taken"

    def test_unbiased_branch_stops_trace(self):
        memory, labels, _entry = setup(LOOP)
        edges = EdgeProfile()
        edges.record(labels["loop"], labels["loop"], 50)
        edges.record(labels["loop"], labels["loop"] + 5, 50)
        superblock = form_superblock(memory, labels["loop"], edges)
        assert not superblock.loops_to_head
        assert superblock.blocks[0].followed is None

    def test_no_profile_single_block(self):
        memory, labels, _entry = setup(LOOP)
        superblock = form_superblock(memory, labels["loop"], EdgeProfile())
        assert len(superblock.blocks) == 1

    def test_follows_unconditional_jumps(self):
        source = """
        start:
            mov eax, 1
            jmp second
        filler: .zero 16
        second:
            add eax, 2
            jmp third
        filler2: .zero 16
        third:
            ret
        """
        memory, labels, entry = setup(source)
        superblock = form_superblock(memory, entry, EdgeProfile())
        assert superblock.entries == [entry, labels["second"],
                                      labels["third"]]
        assert superblock.blocks[0].followed == "jump"
        assert superblock.blocks[-1].followed is None

    def test_fallthrough_bias_follows_not_taken(self):
        source = """
        check:
            cmp eax, 0
            je rare
            add ebx, 1
            ret
        rare:
            ret
        """
        memory, labels, _entry = setup(source)
        edges = EdgeProfile()
        fallthrough = block_fallthrough(memory, labels["check"])
        edges.record(labels["check"], fallthrough, 90)
        edges.record(labels["check"], labels["rare"], 10)
        superblock = form_superblock(memory, labels["check"], edges)
        assert superblock.blocks[0].followed == "fallthrough"
        assert len(superblock.blocks) == 2

    def test_instr_limit_respected(self):
        source = "start:\n" + "\n".join(["add eax, 1"] * 50) + \
            "\njmp start"
        memory, _labels, entry = setup(source)
        edges = EdgeProfile()
        superblock = form_superblock(memory, entry, edges, max_instrs=20)
        assert superblock.instr_count <= 20 + 64  # one block may overshoot

    def test_side_exit_count(self):
        source = """
        a:
            cmp eax, 1
            je out1
            cmp eax, 2
            je out2
            jmp a
        out1: ret
        out2: ret
        """
        memory, labels, _entry = setup(source)
        edges = EdgeProfile()
        a = labels["a"]
        block2 = block_fallthrough(memory, a)
        edges.record(a, block2, 95)
        edges.record(a, labels["out1"], 5)
        edges.record(block2, block_fallthrough(memory, block2), 95)
        superblock = form_superblock(memory, a, edges)
        assert superblock.side_exit_count >= 1

    def test_ends_at_complex(self):
        source = "start:\nmov eax, 0\nint 0x80"
        memory, _labels, entry = setup(source)
        superblock = form_superblock(memory, entry, EdgeProfile())
        assert len(superblock.blocks) == 1
        assert superblock.blocks[0].last.cmplx

    def test_ends_at_indirect(self):
        source = "start:\nmov eax, 1\njmp eax"
        memory, _labels, entry = setup(source)
        superblock = form_superblock(memory, entry, EdgeProfile())
        assert superblock.blocks[0].followed is None
