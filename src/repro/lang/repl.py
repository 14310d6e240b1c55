"""An interactive read-eval-print loop over the language.

Input lines accumulate until they form a complete statement terminated by
``;``.  A statement is either a command (executed, changing the session's
database) or a bare expression (evaluated and rendered as a table).  Meta
commands start with a dot:

* ``.relations`` — list defined relations with type, history length, txn;
* ``.txn`` — show the current transaction number;
* ``.save <path>`` / ``.load <path>`` — persist/restore via JSON;
* ``.connect <host:port>`` / ``.disconnect`` — attach the shell to a
  running ``python -m repro serve`` server: statements are then sent
  over the wire (commands via ``execute``, expressions via ``query``)
  instead of the in-process session;
* ``.help`` — summary; ``.quit`` — leave.

Every meta command is also reachable with a ``:`` prefix (``:save``,
``:load``, ...), the spelling common in other interactive database
shells, so sessions survive restarts whichever habit the user brings.

The loop is written against explicit input/output streams so it is unit-
testable; ``python -m repro`` wires it to stdin/stdout.
"""

from __future__ import annotations

from typing import IO

from repro.errors import ReproError
from repro.core.expressions import is_empty_set
from repro.lang.parser import Parser
from repro.lang.lexer import tokenize
from repro.lang.session import Session, format_state
from repro.lang.tokens import TokenType

__all__ = ["Repl", "run_repl"]

_BANNER = (
    "repro — McKenzie & Snodgrass (1987) transaction-time algebra\n"
    'commands end with ";"; bare expressions are evaluated; .help for help\n'
)

_HELP = """statements:
  define_relation(<name>, snapshot|rollback|historical|temporal);
  modify_state(<name>, <expression>);
  <expression>;                    -- evaluate and print

expressions:
  state (a: string, b: integer) { ("x", 1), ... }
  rollback(<name>, <txn>|now)
  E union E | E minus E | E times E
  project [a, b] (E) | select [a = 1 and b < 2] (E)
  derive [<temporal predicate> ; <temporal expression>] (E)

meta (also with a ':' prefix, e.g. :save / :connect):
  .relations  .txn  .save <path>  .load <path>  .help  .quit
  .connect <host:port>  .disconnect    -- talk to a running server
"""


class Repl:
    """A line-oriented interpreter over one :class:`Session`."""

    def __init__(self, out: IO[str]) -> None:
        self.session = Session()
        self._out = out
        self._buffer: list[str] = []
        #: Statements that raised (script mode exits non-zero on any).
        self.error_count = 0
        #: The remote client while ``.connect``-ed, else None.
        self._client = None
        self._remote = ""

    @property
    def pending(self) -> bool:
        """True when buffered input awaits its terminating ';'."""
        return bool(self._buffer)

    @property
    def connected(self) -> bool:
        """True while the shell proxies statements to a server."""
        return self._client is not None

    # -- driving -----------------------------------------------------------

    def feed(self, line: str) -> bool:
        """Process one input line; returns False when the REPL should
        exit."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith((".", ":")):
            return self._meta(stripped)
        if not stripped:
            return True
        self._buffer.append(line)
        if stripped.endswith(";"):
            source = "\n".join(self._buffer)
            self._buffer = []
            self._run(source.rstrip().rstrip(";"))
        return True

    def _print(self, text: str = "") -> None:
        self._out.write(text + "\n")

    # -- statement handling -------------------------------------------------

    def _run(self, source: str) -> None:
        if not source.strip():
            return
        try:
            if self._client is not None:
                self._run_remote(source)
            elif self._looks_like_command(source):
                self.session.execute(source)
                self._print(
                    f"ok (txn {self.session.transaction_number})"
                )
            else:
                result = self.session.query(source)
                if is_empty_set(result):
                    self._print("∅ (no recorded state)")
                else:
                    self._print(format_state(result))
        except ReproError as error:
            self.error_count += 1
            self._print(f"error: {error}")

    def _run_remote(self, source: str) -> None:
        """Proxy one statement to the connected server."""
        if self._looks_like_command(source):
            txn = self._client.execute(source)
            self._print(f"ok (txn {txn})")
        else:
            # the server renders the relation (or the ∅ marker) itself
            self._print(self._client.query(source))

    @staticmethod
    def _looks_like_command(source: str) -> bool:
        head = source.lstrip()
        return head.startswith("define_relation") or head.startswith(
            "modify_state"
        )

    # -- meta commands -----------------------------------------------------------

    def _meta(self, line: str) -> bool:
        parts = line.split(None, 1)
        name = parts[0]
        if name.startswith(":"):
            name = "." + name[1:]
        argument = parts[1].strip() if len(parts) > 1 else ""
        if name == ".quit":
            return False
        if name == ".help":
            self._print(_HELP)
            return True
        if name == ".txn":
            if self._client is not None:
                try:
                    self._print(str(self._client.ping()))
                except ReproError as error:
                    self._print(f"error: {error}")
                return True
            self._print(str(self.session.transaction_number))
            return True
        if name == ".connect":
            return self._connect(argument)
        if name == ".disconnect":
            return self._disconnect()
        if name == ".relations":
            database = self.session.database
            if not len(database.state):
                self._print("(no relations)")
            for identifier in database.state:
                relation = database.require(identifier)
                self._print(
                    f"  {identifier}: {relation.rtype.value}, "
                    f"{relation.history_length} states at txns "
                    f"{list(relation.transaction_numbers)}"
                )
            return True
        if name == ".save":
            return self._save(argument)
        if name == ".load":
            return self._load(argument)
        self._print(f"unknown meta command {name!r}; try .help")
        return True

    def _connect(self, address: str) -> bool:
        """Attach the shell to a running server (``host:port``)."""
        if not address or ":" not in address:
            self._print("usage: .connect <host:port>")
            return True
        host, _, port_text = address.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            self._print(f"error: bad port {port_text!r}")
            return True
        from repro.server.client import ReproClient

        try:
            client = ReproClient(host, port, timeout=10.0)
            txn = client.ping()
        except (ReproError, OSError) as error:
            self._print(f"error: cannot connect to {address}: {error}")
            return True
        self._disconnect(quiet=True)
        self._client = client
        self._remote = address
        self._print(
            f"connected to {address} (txn {txn}); statements now run "
            "on the server, .disconnect returns to the local session"
        )
        return True

    def _disconnect(self, quiet: bool = False) -> bool:
        if self._client is not None:
            self._client.close()
            self._client = None
            self._remote = ""
            if not quiet:
                self._print("disconnected; back to the local session")
        elif not quiet:
            self._print("not connected")
        return True

    def _save(self, path: str) -> bool:
        if not path:
            self._print("usage: .save <path>")
            return True
        from repro.persistence import dumps

        try:
            with open(path, "w") as fp:
                fp.write(dumps(self.session.database, indent=2))
            self._print(f"saved to {path}")
        except OSError as error:
            self._print(f"error: {error}")
        return True

    def _load(self, path: str) -> bool:
        if not path:
            self._print("usage: .load <path>")
            return True
        from repro.persistence import loads

        try:
            with open(path) as fp:
                database = loads(fp.read())
        except (OSError, ReproError, ValueError) as error:
            self._print(f"error: {error}")
            return True
        self.session.reanchor(database)
        self._print(
            f"loaded {path} (txn {database.transaction_number})"
        )
        return True


def run_repl(stdin: IO[str], stdout: IO[str]) -> None:
    """Run the REPL until EOF or ``.quit``."""
    stdout.write(_BANNER)
    repl = Repl(stdout)
    for line in stdin:
        if not repl.feed(line):
            break
