"""Adaptor framework tests (section 5.3): Web service, Java function,
XML/CSV file sources."""

import pytest

from repro.clock import VirtualClock
from repro.errors import SchemaError, SourceError
from repro.schema import leaf, shape
from repro.sources import (
    Adaptor,
    CSVFileAdaptor,
    JavaFunctionAdaptor,
    WebServiceAdaptor,
    WebServiceDescriptor,
    WebServiceOperation,
    XMLFileAdaptor,
    from_python,
    to_python,
)
from repro.xml import AtomicValue, ElementNode, element, serialize


class TestBaseProtocol:
    def test_unavailable_source_raises(self):
        adaptor = Adaptor("x")
        adaptor.available = False
        with pytest.raises(SourceError):
            adaptor.invoke([])

    def test_extra_latency_charged(self):
        clock = VirtualClock()

        class Echo(Adaptor):
            def call(self, connection, params):
                return None

            def translate_result(self, result):
                return [AtomicValue(1, "xs:integer")]

        adaptor = Echo("x", clock)
        adaptor.extra_latency_ms = 25.0
        adaptor.invoke([])
        assert clock.now_ms() == 25.0
        assert adaptor.invocations == 1


RATING_IN = shape("req", [leaf("name", "xs:string")])
RATING_OUT = shape("resp", [leaf("score", "xs:integer")])


def doc_service(handler, latency=5.0):
    op = WebServiceOperation("op", RATING_IN, RATING_OUT, handler, latency_ms=latency)
    return WebServiceAdaptor(WebServiceDescriptor("S", [op]), op, VirtualClock())


class TestWebServiceAdaptor:
    def test_document_style_roundtrip(self):
        def handler(doc):
            name = doc.child_elements()[0].string_value()
            return element("resp", element("score", len(name)))

        adaptor = doc_service(handler)
        [result] = adaptor.invoke([[element("req", element("name", "Jones"))]])
        assert serialize(result) == "<resp><score>5</score></resp>"
        # result came through schema validation -> typed token stream
        assert result.child_elements()[0].type_annotation == "xs:integer"

    def test_latency_charged(self):
        adaptor = doc_service(lambda doc: element("resp", element("score", 1)),
                              latency=30.0)
        adaptor.invoke([[element("req", element("name", "x"))]])
        assert adaptor.clock.now_ms() == 30.0

    def test_input_validated(self):
        adaptor = doc_service(lambda doc: element("resp", element("score", 1)))
        with pytest.raises(SchemaError):
            adaptor.invoke([[element("req", element("WRONG", "x"))]])

    def test_output_validated(self):
        adaptor = doc_service(lambda doc: element("resp", element("bogus", 1)))
        with pytest.raises(SchemaError):
            adaptor.invoke([[element("req", element("name", "x"))]])

    def test_rpc_style(self):
        op = WebServiceOperation("add", None, shape("sum", [leaf("v", "xs:integer")]),
                                 lambda a, b: element("sum", element("v", a + b)),
                                 style="rpc")
        adaptor = WebServiceAdaptor(WebServiceDescriptor("S", [op]), op, VirtualClock())
        [result] = adaptor.invoke([[AtomicValue(2, "xs:integer")],
                                   [AtomicValue(3, "xs:integer")]])
        assert result.string_value() == "5"

    def test_document_style_requires_one_element(self):
        adaptor = doc_service(lambda doc: element("resp", element("score", 1)))
        with pytest.raises(SourceError):
            adaptor.invoke([[AtomicValue("not-an-element", "xs:string")]])


class TestJavaFunctionAdaptor:
    def test_scalar_roundtrip(self):
        adaptor = JavaFunctionAdaptor("triple", lambda x: x * 3)
        [result] = adaptor.invoke([[AtomicValue(4, "xs:integer")]])
        assert result == AtomicValue(12, "xs:integer")

    def test_none_is_empty_sequence(self):
        adaptor = JavaFunctionAdaptor("nothing", lambda x: None)
        assert adaptor.invoke([[AtomicValue(1, "xs:integer")]]) == []

    def test_array_support(self):
        adaptor = JavaFunctionAdaptor("spread", lambda xs: [x + 1 for x in xs])
        out = adaptor.invoke([[AtomicValue(1, "xs:integer"), AtomicValue(2, "xs:integer")]])
        assert [a.value for a in out] == [2, 3]

    def test_element_argument_atomized(self):
        adaptor = JavaFunctionAdaptor("echo", lambda x: x)
        [result] = adaptor.invoke([[element("X", 9, type_annotation="xs:integer")]])
        assert result.value == 9

    def test_unmappable_result_rejected(self):
        adaptor = JavaFunctionAdaptor("bad", lambda x: object())
        with pytest.raises(SourceError):
            adaptor.invoke([[AtomicValue(1, "xs:integer")]])

    def test_conversion_helpers(self):
        assert to_python([AtomicValue(5, "xs:integer")]) == 5
        assert to_python([]) is None
        assert [a.value for a in from_python([1, 2])] == [1, 2]
        assert from_python(True)[0].type_name == "xs:boolean"


RECORD = shape("ROW", [leaf("ID", "xs:integer"), leaf("NAME", "xs:string", "?")])


class TestFileAdaptors:
    def test_xml_file(self, tmp_path):
        path = tmp_path / "data.xml"
        path.write_text("<ROWS><ROW><ID>1</ID><NAME>a</NAME></ROW>"
                        "<ROW><ID>2</ID></ROW></ROWS>")
        adaptor = XMLFileAdaptor("rows", path, RECORD, VirtualClock())
        out = adaptor.invoke([])
        assert len(out) == 2
        assert out[0].child_elements()[0].typed_value()[0].value == 1

    def test_xml_file_validation_failure(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<ROWS><ROW><WRONG>1</WRONG></ROW></ROWS>")
        adaptor = XMLFileAdaptor("rows", path, RECORD, VirtualClock())
        with pytest.raises(SchemaError):
            adaptor.invoke([])

    def test_missing_file_is_source_error(self, tmp_path):
        adaptor = XMLFileAdaptor("rows", tmp_path / "nope.xml", RECORD, VirtualClock())
        with pytest.raises(SourceError):
            adaptor.invoke([])

    def test_csv_file_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ID,NAME\n1,alpha\n2,beta\n")
        adaptor = CSVFileAdaptor("rows", path, RECORD, clock=VirtualClock())
        out = adaptor.invoke([])
        assert serialize(out[1]) == "<ROW><ID>2</ID><NAME>beta</NAME></ROW>"

    def test_csv_header_in_another_order_is_rejected(self, tmp_path):
        """Fields are mapped by position, so a header naming them in another
        order would swap them silently: it is an error naming both."""
        path = tmp_path / "data.csv"
        path.write_text("NAME,ID\nalpha,1\n")
        adaptor = CSVFileAdaptor("rows", path, RECORD, clock=VirtualClock())
        with pytest.raises(SourceError, match="header names NAME, ID; "
                                              "the record shape names ID, NAME"):
            adaptor.invoke([])
        path.write_text(" ID , NAME\n1,alpha\n")  # whitespace around a name is not a name
        assert serialize(adaptor.invoke([])) == "<ROW><ID>1</ID><NAME>alpha</NAME></ROW>"

    def test_csv_missing_value_is_missing_element(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ID,NAME\n1,\n")
        adaptor = CSVFileAdaptor("rows", path, RECORD, clock=VirtualClock())
        [row] = adaptor.invoke([])
        assert serialize(row) == "<ROW><ID>1</ID></ROW>"

    def test_csv_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ID,NAME\n1,a,EXTRA\n")
        adaptor = CSVFileAdaptor("rows", path, RECORD, clock=VirtualClock())
        with pytest.raises(SourceError):
            adaptor.invoke([])

    def test_csv_shape_must_be_flat(self, tmp_path):
        from repro.schema import group

        nested = shape("ROW", [group("INNER", [leaf("X", "xs:string")])])
        with pytest.raises(SourceError):
            CSVFileAdaptor("rows", tmp_path / "x.csv", nested)


class TestFileMemo:
    """The file adaptors keep the tokens of the last content that
    validated; a call whose text is unchanged skips parse/validate only."""

    @staticmethod
    def _csv(tmp_path, text="ID,NAME\n1,alpha\n2,beta\n"):
        path = tmp_path / "data.csv"
        path.write_text(text)
        clock = VirtualClock()
        return path, clock, CSVFileAdaptor("rows", path, RECORD, clock=clock,
                                           latency_ms=3.0)

    def test_rewritten_file_is_seen_by_the_next_call(self, tmp_path):
        import os

        path, _clock, adaptor = self._csv(tmp_path)
        assert serialize(adaptor.invoke([])[0]) == "<ROW><ID>1</ID><NAME>alpha</NAME></ROW>"
        stamp = os.stat(path)
        path.write_text("ID,NAME\n1,gamma\n2,beta\n")  # same length
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))  # same second
        assert os.stat(path).st_size == stamp.st_size
        assert serialize(adaptor.invoke([])[0]) == "<ROW><ID>1</ID><NAME>gamma</NAME></ROW>"

    def test_xml_rewritten_file_is_seen_by_the_next_call(self, tmp_path):
        path = tmp_path / "data.xml"
        path.write_text("<ROWS><ROW><ID>1</ID><NAME>a</NAME></ROW></ROWS>")
        adaptor = XMLFileAdaptor("rows", path, RECORD, VirtualClock())
        first = adaptor.invoke([])
        assert serialize(adaptor.invoke([])) == serialize(first)
        path.write_text("<ROWS><ROW><ID>1</ID><NAME>b</NAME></ROW></ROWS>")
        assert serialize(adaptor.invoke([])) == "<ROW><ID>1</ID><NAME>b</NAME></ROW>"

    def test_unchanged_text_skips_validation_only(self, tmp_path, monkeypatch):
        from repro.sources import files

        calls = []
        real = files.validate
        monkeypatch.setattr(files, "validate",
                            lambda elem, shape_: calls.append(1) or real(elem, shape_))
        path, _clock, adaptor = self._csv(tmp_path)
        first = adaptor.invoke([])
        assert len(calls) == 2
        second = adaptor.invoke([])
        assert len(calls) == 2  # memo hit: nothing validated again
        assert serialize(second) == serialize(first)
        assert second[0].child_elements()[0].typed_value()[0] == AtomicValue(1, "xs:integer")
        path.write_text("ID,NAME\n1,alpha\n")
        adaptor.invoke([])
        assert len(calls) == 3

    def test_invalid_after_valid_raises_then_recovers(self, tmp_path):
        path, _clock, adaptor = self._csv(tmp_path)
        good = path.read_text()
        expected = serialize(adaptor.invoke([]))
        path.write_text("ID,NAME\nnot-a-number,alpha\n")
        for _ in range(2):  # a failure is never remembered as a result
            with pytest.raises(SchemaError):
                adaptor.invoke([])
        path.write_text("ID,NAME\n1,a,EXTRA\n")
        with pytest.raises(SourceError):
            adaptor.invoke([])
        path.write_text(good)
        assert serialize(adaptor.invoke([])) == expected

    def test_fault_plan_behaves_as_before(self, tmp_path):
        from repro.resilience import FaultInjector

        _path, _clock, adaptor = self._csv(tmp_path)
        expected = serialize(adaptor.invoke([]))  # memo is warm
        injector = FaultInjector().drop_mid_result(keep_rows=1).attach(adaptor)
        with pytest.raises(SourceError, match="dropped mid-result after 1 of 2 rows"):
            adaptor.invoke([])
        assert injector.injected_drops == 1
        adaptor.faults = None
        assert serialize(adaptor.invoke([])) == expected
        FaultInjector().fail_first(1).attach(adaptor)
        with pytest.raises(SourceError, match="injected fault"):
            adaptor.invoke([])
        assert serialize(adaptor.invoke([])) == expected

    def test_calls_share_no_node(self, tmp_path):
        _path, _clock, adaptor = self._csv(tmp_path)
        first = adaptor.invoke([])
        second = adaptor.invoke([])  # memo hit
        ids = [{id(n) for row in rows for n in [row, *row.children()]}
               for rows in (first, second)]
        assert not ids[0] & ids[1]
        second[0].add_child(element("EXTRA", "x"))
        second[0].child_elements()[0].children()[0].content = "999"
        third = adaptor.invoke([])
        assert serialize(third) == serialize(first)
        assert serialize(third) != serialize(second)

    def test_clock_charged_once_per_call_hit_or_miss(self, tmp_path):
        path, clock, adaptor = self._csv(tmp_path)
        adaptor.invoke([])
        assert clock.now_ms() == 3.0
        adaptor.invoke([])  # hit
        assert clock.now_ms() == 6.0
        path.write_text("ID,NAME\n5,eps\n")
        adaptor.invoke([])  # miss
        assert clock.now_ms() == 9.0
        assert adaptor.invocations == 3

    def test_memo_swap_is_lock_guarded(self):
        """``repro lint --concurrency`` checks the memo: the class is
        registered, clean as written, and flagged once the lock goes."""
        from pathlib import Path

        from repro.analysis import REGISTRY, analyze_source
        from repro.sources import files

        assert REGISTRY["sources/files.py"] == ("FileAdaptor",)
        source = Path(files.__file__).read_text()

        def errors(text):
            return analyze_source(text, "sources/files.py",
                                  classes=("FileAdaptor",)).errors

        assert errors(source) == []
        unguarded = source.replace("        with self._lock:\n            self._memo",
                                   "        if True:\n            self._memo")
        assert unguarded != source and errors(unguarded)


TYPED = shape("ROW", [leaf("ID", "xs:integer"), leaf("NAME", "xs:string", "?"),
                      leaf("PRICE", "xs:decimal", "?"), leaf("OK", "xs:boolean", "?")])
#: empty fields, a blank line, text to escape, lexical forms a typed value
#: does not keep ("1.50", "007.0", "0")
TYPED_TEXT = "ID,NAME,PRICE,OK\n1,alpha,1.50,true\n2,,,0\n3,a&b <c>,007.0,\n\n4, ,2,1\n"


class TestRowBackedRecords:
    """A delimited file's records are built from the memo's rows through a
    compiled template; each must be the record the typed token stream
    builds (``Adaptor.result_items``, the path a fault plan takes)."""

    @staticmethod
    def both(tmp_path, text=TYPED_TEXT):
        path = tmp_path / "typed.csv"
        path.write_text(text)
        adaptor = CSVFileAdaptor("rows", path, TYPED, clock=VirtualClock())
        return adaptor, Adaptor.result_items(adaptor, text)

    def test_records_serialize_as_the_token_built_ones(self, tmp_path):
        from repro.xml.items import DeferredElement

        adaptor, tokens = self.both(tmp_path)
        for _ in range(2):  # a miss, then a memo hit
            rows = adaptor.invoke([])
            assert all(type(row) is DeferredElement and row._source is not None
                       for row in rows)
            assert serialize(rows) == serialize(tokens)
        assert serialize(rows[1]) == "<ROW><ID>2</ID><OK>0</OK></ROW>"

    def test_each_field_atomizes_as_the_token_built_one(self, tmp_path):
        from tests.test_pushed_rebuild import lane, outcome, pairs, shape, stepped

        adaptor, tokens = self.both(tmp_path)
        rows = adaptor.invoke([])
        for field in ("ID", "NAME", "PRICE", "OK", "NONE"):
            for row, token_row in zip(rows, tokens):
                assert lane(field, [row]) == stepped(field, [token_row]), field
            assert lane(field, rows) == stepped(field, tokens)
            # a field of the record is read from the row; NONE needs the tree
            assert all(row._source is not None for row in rows) == (field != "NONE")
        assert lane("PRICE", adaptor.invoke([])[:1]) == [(1.5, "xs:decimal")]
        for mine, theirs in pairs(rows, tokens):  # each leaf, before it is read
            if isinstance(mine, ElementNode):
                assert mine.string_value() == theirs.string_value()
                assert outcome(mine.typed_value) == outcome(theirs.typed_value)
        assert [shape(row) for row in rows] == [shape(row) for row in tokens]

    @pytest.mark.parametrize("text", [
        "ID,NAME,PRICE,OK\n1,a,x,true\n",          # not a decimal
        "ID,NAME,PRICE,OK\n,a,1,true\n",           # a required field left empty
        "ID,NAME,PRICE,OK\n1,a,1,true\nz,b,2,0\n",  # a later line invalid
        "ID,NAME,PRICE,OK\nz,a,1,true\n1,2\n",     # invalid before a ragged line
        "ID,NAME,PRICE,OK\n1,2\nz,a,1,true\n",     # ragged before an invalid line
    ])
    def test_content_that_fails_fails_alike_on_every_call(self, tmp_path, text):
        adaptor, _tokens = self.both(tmp_path)
        adaptor.invoke([])  # a valid memo first
        (tmp_path / "typed.csv").write_text(text)
        with pytest.raises((SchemaError, SourceError)) as tree_path:
            Adaptor.result_items(adaptor, text)
        for _ in range(2):
            with pytest.raises(tree_path.type, match="^" + __import__("re").escape(
                    str(tree_path.value)) + "$"):
                adaptor.invoke([])

    def test_an_installed_fault_plan_takes_the_token_path(self, tmp_path):
        from repro.resilience import FaultInjector

        adaptor, tokens = self.both(tmp_path)
        adaptor.invoke([])  # the memo is warm
        FaultInjector().attach(adaptor)
        rows = adaptor.invoke([])
        assert all(type(row) is ElementNode for row in rows)
        assert serialize(rows) == serialize(tokens)

    def test_a_change_to_one_calls_record_leaves_the_next_calls(self, tmp_path):
        from repro.sdo.dataobject import DataObject

        adaptor, tokens = self.both(tmp_path)
        first = adaptor.invoke([])
        record = DataObject(first[0])
        record.set("NAME", "renamed")
        record.set("ID", 10)
        assert serialize(first[0]) == "<ROW><ID>10</ID><NAME>renamed</NAME>" \
            "<PRICE>1.50</PRICE><OK>true</OK></ROW>"
        second = adaptor.invoke([])
        assert serialize(second) == serialize(tokens)
        assert second[0]._source is not None and first[0]._source is None
