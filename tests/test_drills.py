"""The drill runner's own contract (``tools/drills.py``): the table is
well-formed data and the runner reports honestly.  Fast, no sockets —
the drills themselves run under ``make drills``."""

import re
import sys
from pathlib import Path

import pytest

from repro.faults import all_fault_names, run_matrix
from repro.workloads.programs import PROGRAMS

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def drills():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import drills
        return drills
    finally:
        sys.path.remove(str(REPO / "tools"))


def test_rows_are_unique_and_cite_a_real_docs_heading(drills):
    names = [row.name for row in drills.DRILLS]
    assert len(set(names)) == len(names)
    for row in drills.DRILLS:
        path, _, heading = row.claim.partition("#")
        assert path.startswith("docs/"), row.claim
        assert re.search(rf"^#+ {re.escape(heading)}$",
                         (REPO / path).read_text(), re.M), row.claim


def test_list_prints_every_row(drills, capsys):
    assert drills.main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == \
        [row.name for row in drills.DRILLS]


def test_unknown_name_exits_2_with_a_clean_message(drills, capsys):
    with pytest.raises(SystemExit) as excinfo:
        drills.main(["chaos", "nope"])
    assert excinfo.value.code == 2
    assert "unknown drill(s) nope" in capsys.readouterr().err


def test_a_failed_row_is_reported_and_the_rows_after_it_run(
        drills, capsys):
    ran = []

    def row(name, outcome):
        def run(workdir):
            assert workdir.is_dir()
            ran.append(name)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return drills.Drill(name, "docs/x.md#X", run)

    table = (row("first", []), row("broken", ["it broke"]),
             row("dies", RuntimeError("spawn failed")), row("last", []))
    assert drills.main([], table=table) == 1
    out = capsys.readouterr().out
    assert ran == ["first", "broken", "dies", "last"]
    assert "FAIL  broken: it broke" in out
    assert "FAIL  dies: Traceback" in out and "spawn failed" in out
    assert "drills: 2 of 4 FAILED" in out
    assert drills.main(["last", "first"], table=table) == 0
    assert ran[4:] == ["first", "last"]         # table order


def test_sweep_rows_are_runnable_data(drills, tmp_path):
    for _, workloads, fault_sets, seeds, mode, _ in drills.SWEEP:
        assert set(workloads) <= set(PROGRAMS) and seeds
        assert mode in ("surface", "local", "remote", "cluster")
        for fault_set in fault_sets:
            assert set(fault_set) <= set(all_fault_names())
    # one local row through the loop the sweep uses: a translator
    # fault has cold surface only, and the run matches its baseline
    seen = []
    outcomes = run_matrix({"fibonacci": PROGRAMS["fibonacci"]},
                          [("bbt-fault",)], (11,), str(tmp_path),
                          hot_threshold=20, progress=seen.append,
                          rate=1.0)
    assert outcomes == seen and [o.mode for o in outcomes] == ["cold"]
    assert outcomes[0].ok and outcomes[0].injected["bbt-fault"] > 0
    with pytest.raises(ValueError, match="unknown sweep mode"):
        run_matrix({}, [], (), str(tmp_path), mode="wan")
