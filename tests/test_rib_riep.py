"""Unit tests for the RIEP protocol helpers."""

import pytest

from repro.core.riep import (M_CONNECT, M_CONNECT_R, M_READ, M_WRITE,
                             RESULT_DENIED, RESULT_OK, InvokeTable,
                             RiepMessage, response_opcode)
from repro.sim.engine import Engine


class TestRiepMessages:
    def test_response_opcode_pairs(self):
        assert response_opcode(M_CONNECT) == M_CONNECT_R
        assert response_opcode(M_WRITE) == "M_WRITE_R"

    def test_response_opcode_rejects_responses(self):
        with pytest.raises(ValueError):
            response_opcode(M_CONNECT_R)

    def test_reply_echoes_identity(self):
        request = RiepMessage(M_READ, obj="/x", invoke_id=9)
        reply = request.reply(value=1, result=RESULT_DENIED)
        assert reply.opcode == "M_READ_R"
        assert reply.obj == "/x"
        assert reply.invoke_id == 9
        assert not reply.ok

    def test_ok_flag(self):
        assert RiepMessage(M_READ, result=RESULT_OK).ok

    def test_estimate_size_grows_with_value(self):
        small = RiepMessage(M_WRITE, obj="/x", value=1)
        big = RiepMessage(M_WRITE, obj="/x", value=["y" * 100] * 5)
        assert big.estimate_size() > small.estimate_size() + 400

    def test_estimate_size_handles_all_value_shapes(self):
        for value in (None, True, 3, 2.5, "s", b"b", [1, 2], (1,), {1, 2},
                      {"k": "v"}, object()):
            assert RiepMessage(M_WRITE, value=value).estimate_size() > 0


class TestInvokeTable:
    def test_response_dispatched_to_handler(self):
        engine = Engine()
        table = InvokeTable(engine)
        seen = []
        message = table.new_request(RiepMessage(M_READ, obj="/x"), seen.append)
        assert message.invoke_id > 0
        reply = message.reply(value=5)
        assert table.dispatch_response(reply)
        assert seen[0].value == 5

    def test_stale_response_rejected(self):
        engine = Engine()
        table = InvokeTable(engine)
        assert not table.dispatch_response(RiepMessage("M_READ_R", invoke_id=99))

    def test_timeout_delivers_none(self):
        engine = Engine()
        table = InvokeTable(engine, default_timeout=1.0)
        seen = []
        table.new_request(RiepMessage(M_READ), seen.append)
        engine.run(until=2.0)
        assert seen == [None]
        assert table.pending_count() == 0

    def test_response_cancels_timeout(self):
        engine = Engine()
        table = InvokeTable(engine, default_timeout=1.0)
        seen = []
        message = table.new_request(RiepMessage(M_READ), seen.append)
        table.dispatch_response(message.reply())
        engine.run(until=2.0)
        assert len(seen) == 1 and seen[0] is not None

    def test_custom_timeout(self):
        engine = Engine()
        table = InvokeTable(engine, default_timeout=10.0)
        seen = []
        table.new_request(RiepMessage(M_READ), seen.append, timeout=0.5)
        engine.run(until=1.0)
        assert seen == [None]

    def test_invoke_ids_unique(self):
        engine = Engine()
        table = InvokeTable(engine)
        ids = {table.new_request(RiepMessage(M_READ), lambda r: None).invoke_id
               for _ in range(10)}
        assert len(ids) == 10
