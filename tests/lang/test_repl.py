"""Tests for the REPL, driven through StringIO streams."""

import io

import pytest

from repro.lang.repl import Repl, run_repl


def drive(lines):
    """Feed lines to a fresh Repl; return its full output."""
    out = io.StringIO()
    repl = Repl(out)
    for line in lines:
        alive = repl.feed(line)
        if not alive:
            break
    return out.getvalue(), repl


class TestStatements:
    def test_command_then_query(self):
        output, _ = drive(
            [
                "define_relation(r, rollback);",
                'modify_state(r, state (k: integer) { (1), (2) });',
                "rollback(r, now);",
            ]
        )
        assert "ok (txn 1)" in output
        assert "ok (txn 2)" in output
        assert "1" in output and "2" in output

    def test_multiline_statement(self):
        output, _ = drive(
            [
                "define_relation(r, rollback);",
                "modify_state(r,",
                "  state (k: integer)",
                "  { (7) });",
                "rollback(r, now);",
            ]
        )
        assert "7" in output

    def test_error_reported_not_fatal(self):
        output, repl = drive(
            [
                "select [oops] (nope);",
                "define_relation(r, rollback);",
            ]
        )
        assert "error:" in output
        assert "ok (txn 1)" in output
        assert repl.session.transaction_number == 1

    def test_empty_set_result(self):
        output, _ = drive(
            [
                "define_relation(r, rollback);",
                "rollback(r, now);",
            ]
        )
        assert "∅" in output

    def test_blank_lines_ignored(self):
        output, repl = drive(["", "   ", "define_relation(r, rollback);"])
        assert repl.session.transaction_number == 1


class TestMeta:
    def test_txn_and_relations(self):
        output, _ = drive(
            [
                "define_relation(a, rollback);",
                "define_relation(b, temporal);",
                ".txn",
                ".relations",
            ]
        )
        assert "\n2\n" in output
        assert "a: rollback" in output
        assert "b: temporal" in output

    def test_relations_when_empty(self):
        output, _ = drive([".relations"])
        assert "(no relations)" in output

    def test_help(self):
        output, _ = drive([".help"])
        assert "define_relation" in output
        assert ".save" in output

    def test_unknown_meta(self):
        output, _ = drive([".frobnicate"])
        assert "unknown meta command" in output

    def test_quit_stops(self):
        output, repl = drive(
            [".quit", "define_relation(r, rollback);"]
        )
        assert repl.session.transaction_number == 0

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "db.json"
        output, _ = drive(
            [
                "define_relation(r, rollback);",
                'modify_state(r, state (k: integer) { (5) });',
                f".save {path}",
            ]
        )
        assert "saved" in output

        output2, repl2 = drive([f".load {path}", "rollback(r, now);"])
        assert "loaded" in output2
        assert "5" in output2
        assert repl2.session.transaction_number == 2

    def test_save_without_path(self):
        output, _ = drive([".save"])
        assert "usage" in output

    def test_load_missing_file(self, tmp_path):
        output, _ = drive([f".load {tmp_path}/none.json"])
        assert "error" in output


class TestColonAliases:
    """Every meta command is also reachable with a ':' prefix — the
    spelling common in other database shells."""

    def test_colon_save_and_load(self, tmp_path):
        path = tmp_path / "db.json"
        output, _ = drive(
            [
                "define_relation(r, rollback);",
                'modify_state(r, state (k: integer) { (7) });',
                f":save {path}",
            ]
        )
        assert "saved" in output

        output2, repl2 = drive([f":load {path}", "rollback(r, now);"])
        assert "loaded" in output2
        assert "7" in output2
        assert repl2.session.transaction_number == 2

    def test_colon_txn_and_relations(self):
        output, _ = drive(
            ["define_relation(r, rollback);", ":txn", ":relations"]
        )
        assert "1" in output
        assert "r: rollback" in output

    def test_colon_help_and_quit(self):
        output, repl = drive([":help", ":quit", ".txn"])
        assert ":save" in output  # help mentions the ':' spelling
        assert "0" not in output.splitlines()[-1]  # .txn never ran

    def test_colon_unknown_is_reported(self):
        output, _ = drive([":frobnicate"])
        assert "unknown meta command" in output


class TestRunRepl:
    def test_banner_and_eof(self):
        stdin = io.StringIO("define_relation(r, rollback);\n")
        stdout = io.StringIO()
        run_repl(stdin, stdout)
        text = stdout.getvalue()
        assert "McKenzie" in text
        assert "ok (txn 1)" in text


class TestRemoteConnection:
    """``.connect`` turns the shell into a wire client; ``.disconnect``
    returns it to the local session."""

    @pytest.fixture
    def server(self):
        from repro.server.server import ServerConfig, ThreadedServer

        with ThreadedServer(ServerConfig(port=0, workers=2)) as handle:
            yield handle

    def test_connect_execute_query_disconnect(self, server):
        output, repl = drive(
            [
                f".connect {server.host}:{server.port}",
                "define_relation(remote, rollback);",
                "modify_state(remote, state (k: integer) { (5) });",
                "rollback(remote, now);",
                ".txn",
                ".disconnect",
                ".txn",
            ]
        )
        assert "connected to" in output
        assert "ok (txn 1)" in output
        assert "ok (txn 2)" in output
        assert "5" in output  # the printed remote relation
        assert "disconnected" in output
        # after disconnect the *local* session (txn 0) answers .txn
        assert output.rstrip().splitlines()[-1] == "0"
        assert not repl.connected

    def test_remote_errors_are_reported_not_fatal(self, server):
        output, repl = drive(
            [
                f".connect {server.host}:{server.port}",
                "rollback(missing, now);",
                "define_relation(r, rollback);",
            ]
        )
        assert "error:" in output
        assert "ok (txn 1)" in output
        assert repl.error_count == 1

    def test_connect_refused_is_reported(self):
        output, repl = drive([".connect 127.0.0.1:1"])
        assert "cannot connect" in output
        assert not repl.connected

    def test_connect_usage_errors(self):
        output, _ = drive([".connect", ".connect nocolon", ".connect h:x"])
        assert output.count("usage: .connect") >= 1
        assert "bad port" in output

    def test_disconnect_when_not_connected(self):
        output, _ = drive([".disconnect"])
        assert "not connected" in output

    def test_colon_connect_alias(self, server):
        output, _ = drive(
            [f":connect {server.host}:{server.port}", ":disconnect"]
        )
        assert "connected to" in output
        assert "disconnected" in output
