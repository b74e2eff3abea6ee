"""Nothing in ``src/`` without a caller.

Parses ``src/``, ``tools/``, ``perf/``, ``benchmarks/`` and ``examples/``
with :mod:`ast` and finds every ``src/`` definition -- function, class,
method, property or module constant -- that no program reaches.  A
definition is reached when its name appears outside its own body as a
loaded name or an attribute, in an import that is not a package
``__init__`` re-export, or as an identifier-valued string outside
``__all__``; a reference counts only when the code holding it is
reached itself, so the scan iterates to a fixpoint.  Registration
decorators (``@rule``, ``@register_rule``) and the cache server's
``_op_*`` handlers (dispatched by ``getattr``) count as reached;
dunders are exempt.

Names are matched by their last component, so the scan errs towards
"reached": a dead method that shares its name with a live one is not
found.  ``TEST_FACING`` lists the definitions that only tests call and
that stay because tests drive or observe other code through them.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tools", "perf", "benchmarks", "examples")
REGISTRARS = frozenset({"rule", "register_rule"})

#: Reached by tests only, kept because tests drive or observe other code
#: through them (or compare other code against them).
TEST_FACING = frozenset({
    "repro.analysis.breakeven.BreakevenRow.capped",
    "repro.cacheserver.server.CacheServer.active_connections",
    "repro.core.vm.run_program",
    "repro.faults.harness.ChaosOutcome.total_injected",
    "repro.faults.injector.FaultInjector.total_injected",
    "repro.hwassist.hotspot_detector.BranchBehaviorBuffer.forget",
    "repro.hwassist.hotspot_detector.BranchBehaviorBuffer.is_hot",
    "repro.hwassist.hotspot_detector.BranchBehaviorBuffer.occupancy",
    "repro.hwassist.hotspot_detector.BranchBehaviorBuffer.reset",
    "repro.isa.fusible.encoding.stream_length",
    "repro.isa.fusible.machine.FusibleMachine.execute_uops",
    "repro.isa.fusible.microop.MicroOp.is_short",
    "repro.isa.fusible.opcodes.BARRIER_OPS",
    "repro.isa.fusible.opcodes.BRANCH_OPS",
    "repro.isa.fusible.opcodes.FLAG_READING_UOPS",
    "repro.isa.fusible.opcodes.FUSIBLE_HEAD_OPS",
    "repro.isa.fusible.opcodes.FUSIBLE_TAIL_OPS",
    "repro.isa.fusible.opcodes.LONG_LATENCY_OPS",
    "repro.isa.fusible.opcodes.MEMORY_OPS",
    "repro.isa.fusible.opcodes.SHORT_OPS",
    "repro.isa.x86lite.assembler.assemble_to_bytes",
    "repro.isa.x86lite.instruction.Instruction.is_conditional",
    "repro.isa.x86lite.state.X86State.copy_architected",
    "repro.lint.core.LintEngine.lint_sources",
    "repro.memory.address_space.AddressSpace.read_i32",
    "repro.memory.address_space.AddressSpace.resident_pages",
    "repro.persist.remote.RemoteRepository.ping",
    "repro.timing.caches.ColdFootprintModel.is_warm",
    "repro.translator.superblock.Superblock.side_exit_count",
    "repro.verify.cfg.CFG.branches",
    "repro.verify.dataflow.definitely_defined",
    "repro.verify.dataflow.flag_provenance",
    "repro.verify.rules.VerifyContext.from_code",
    "repro.verify.rules.rule_ids",
    "repro.verify.sanitizer.raising",
    "repro.vmm.profiling.SoftwareProfiler.forget",
    "repro.vmm.profiling.SoftwareProfiler.is_hot",
    "repro.vmm.profiling.SoftwareProfiler.reset",
    "repro.workloads.programs.EXPECTED_OUTPUT",
})


@dataclass(eq=False)
class Definition:
    qualname: str
    name: str
    parent: "Definition | None"
    forced: bool = False

    def within(self, other: "Definition") -> bool:
        node: Definition | None = self
        while node is not None:
            if node is other:
                return True
            node = node.parent
        return False


@dataclass
class Scan:
    definitions: list[Definition] = field(default_factory=list)
    #: name -> the definitions holding a reference to it (None: top level)
    references: dict[str, list[Definition | None]] = field(
        default_factory=lambda: defaultdict(list))


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Collector(ast.NodeVisitor):
    """Definitions (``src/`` only) and references of one module."""

    def __init__(self, scan: Scan, module: str | None, package_init: bool):
        self.scan = scan
        self.module = module
        self.package_init = package_init
        self.owner: Definition | None = None

    def refer(self, name: str) -> None:
        self.scan.references[name].append(self.owner)

    def define(self, name: str, forced: bool = False) -> Definition | None:
        if self.module is None or _is_dunder(name):
            return None
        prefix = self.owner.qualname if self.owner else self.module
        definition = Definition(f"{prefix}.{name}", name, self.owner, forced)
        self.scan.definitions.append(definition)
        return definition

    def visit_owned(self, definition: Definition | None, nodes) -> None:
        saved = self.owner
        if definition is not None:
            self.owner = definition
        for node in nodes:
            self.visit(node)
        self.owner = saved

    def visit_FunctionDef(self, node) -> None:
        forced = (any(_decorator_name(d) in REGISTRARS
                      for d in node.decorator_list)
                  or node.name.startswith("_op_"))
        self.visit_owned(self.define(node.name, forced),
                         [*node.decorator_list, node.args, *node.body]
                         + ([node.returns] if node.returns else []))

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        forced = any(_decorator_name(d) in REGISTRARS
                     for d in node.decorator_list)
        self.visit_owned(self.define(node.name, forced),
                         [*node.decorator_list, *node.bases,
                          *node.keywords, *node.body])

    def visit_Module(self, node) -> None:
        for statement in node.body:
            self.visit_top(statement)

    def visit_top(self, statement) -> None:
        if isinstance(statement, (ast.If, ast.Try)):
            if isinstance(statement, ast.If):
                self.visit(statement.test)
            for block in ("body", "orelse", "finalbody"):
                for inner in getattr(statement, block, ()):
                    self.visit_top(inner)
            for handler in getattr(statement, "handlers", ()):
                self.visit(handler)
            return
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target]
                   if isinstance(statement, ast.AnnAssign) else [])
        names = [t.id for target in targets for t in ast.walk(target)
                 if isinstance(t, ast.Name)]
        if "__all__" in names:
            return
        if not names or self.module is None:
            self.visit(statement)
            return
        for name in names:
            definition = self.define(name)
            self.visit_owned(definition, [statement])

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.refer(node.id)

    def visit_Attribute(self, node) -> None:
        self.refer(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node) -> None:
        if not self.package_init:
            for alias in node.names:
                self.refer(alias.name)

    def visit_Constant(self, node) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.refer(node.value)


def _collect(scan: Scan, path: Path, module: str | None) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    _Collector(scan, module, path.name == "__init__.py"
               and module is not None).visit(tree)


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _scan_callers() -> Scan:
    scan = Scan()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            _collect(scan, path,
                     _module_name(path) if directory == "src" else None)
    return scan


def unreached_definitions(scan: Scan, roots=frozenset()) -> set[str]:
    """Qualified names of the ``src/`` definitions no program reaches.

    ``roots`` count as reached, and so does what they reach.
    """
    reached: set[int] = set()

    def reaches(definition: Definition) -> bool:
        if definition.parent is not None \
                and id(definition.parent) not in reached:
            return False
        if definition.forced or definition.qualname in roots:
            return True
        return any(owner is None or (id(owner) in reached
                                     and not owner.within(definition))
                   for owner in scan.references.get(definition.name, ()))

    changed = True
    while changed:
        changed = False
        for definition in scan.definitions:
            if id(definition) not in reached and reaches(definition):
                reached.add(id(definition))
                changed = True
    return {d.qualname for d in scan.definitions if id(d) not in reached}


def _outermost(names: set[str]) -> list[str]:
    """``names`` without those inside another of them (a dead class's
    methods go with it)."""
    return sorted(name for name in names
                  if not any(name.startswith(other + ".") for other in names))


def _test_references() -> set[str]:
    scan = Scan()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        if path.name != Path(__file__).name:
            _collect(scan, path, None)
    return set(scan.references)


@pytest.fixture(scope="module")
def scan() -> Scan:
    return _scan_callers()


def test_every_src_definition_has_a_caller(scan):
    dead = _outermost(unreached_definitions(scan, roots=TEST_FACING))
    assert not dead, ("no program outside tests/ reaches these src/ "
                      "definitions; delete them (and the tests that only "
                      "pin them) or give them a caller:\n  "
                      + "\n  ".join(dead))


def test_test_facing_entries_are_test_only(scan):
    now_reached = sorted(TEST_FACING - unreached_definitions(scan))
    assert not now_reached, ("a program reaches these now, or they are "
                             "gone; drop them from TEST_FACING:\n  "
                             + "\n  ".join(now_reached))
    tested = _test_references()
    untested = sorted(name for name in TEST_FACING
                      if name.rsplit(".", 1)[1] not in tested)
    assert not untested, ("no test references these; delete them from src/ "
                          "and TEST_FACING:\n  " + "\n  ".join(untested))
