"""Unit tests for the SeqScan plan node (heapfile paging + filtering)."""

from repro.algebra import Scan, Select, SeqScan, evaluate
from repro.algebra.plan import EvaluationContext
from repro.constraints import parse_constraints
from repro.governor import Budget
from repro.model.database import Database
from repro.obs import MetricsRegistry
from repro.storage.heapfile import HeapFile
from repro.workloads import build_constraint_relation, generate_data

PREDS = tuple(parse_constraints("x >= 100, x <= 600, y >= 100, y <= 600"))


def _context(with_heap: bool):
    relation = build_constraint_relation(generate_data(80, seed=9)).with_name("boxes")
    database = Database({"boxes": relation})
    heapfiles = {"boxes": HeapFile(relation)} if with_heap else None
    return EvaluationContext(database, registry=MetricsRegistry(), heapfiles=heapfiles)


class TestSeqScan:
    def test_equals_select_over_scan(self):
        context = _context(with_heap=False)
        via_seq = evaluate(SeqScan("boxes", PREDS), context)
        via_select = evaluate(Select(Scan("boxes"), list(PREDS)), context)
        assert list(via_seq.tuples) == list(via_select.tuples)

    def test_no_predicates_returns_everything(self):
        context = _context(with_heap=False)
        result = evaluate(SeqScan("boxes"), context)
        assert len(result) == len(context.database.get("boxes"))

    def test_heapfile_path_charges_page_io(self):
        context = _context(with_heap=True)
        heap = context.heapfiles["boxes"]
        budget = Budget(io_accesses=10 ** 6)
        with budget.activate():
            result = evaluate(SeqScan("boxes", PREDS), context)
        memory = evaluate(SeqScan("boxes", PREDS), _context(with_heap=False))
        assert list(result.tuples) == list(memory.tuples)
        assert budget.consumed["io_accesses"] >= heap.page_count

    def test_describe(self):
        assert SeqScan("boxes").describe() == "SeqScan(boxes)"
        assert "SeqScan(boxes; " in SeqScan("boxes", PREDS).describe()
