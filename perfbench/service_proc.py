"""Run one ``repro.cli`` service command (``serve`` or ``work``) for the benchmark.

    python3 perfbench/service_proc.py serve --port 0 --cache-dir DIR
    python3 perfbench/service_proc.py work --server URL
    PERFBENCH_SERVER_LOG=DIR/server.out python3 perfbench/service_proc.py work

The arguments go to ``repro.cli.main`` unchanged.  When
``PERFBENCH_SERVER_LOG`` names the server's log, the process imports
the program first, then waits for the server's ``listening on URL``
line there and appends ``--server URL``, so a worker can start up
alongside its server.  When
``PERFBENCH_LAYERS_OUT`` names a file, the process first installs the
benchmark's layer wrappers (and turns on ``repro.obs`` tracing for
``work``, which has no ``--trace`` flag), then writes the per-layer
totals there when the command returns after SIGINT.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


#: Longest wait for the server's URL to appear in its log.
URL_TIMEOUT_S = 60.0


def logged_url(path: Path) -> str | None:
    """The URL of a server's ``listening on URL`` log line, once written."""
    if path.is_file():
        for line in path.read_text(errors="replace").splitlines():
            if "listening on " in line:
                return line.split("listening on ", 1)[1].strip()
    return None


def await_logged_url(path: Path) -> str:
    """Poll the server's log until it names the URL."""
    deadline = time.monotonic() + URL_TIMEOUT_S
    while time.monotonic() < deadline:
        url = logged_url(path)
        if url is not None:
            return url
        time.sleep(0.01)
    raise SystemExit(f"error: no server URL in {path} after {URL_TIMEOUT_S:g}s")


def main(argv: list[str]) -> int:
    """Run the CLI command, wrapped and summarised when traced."""
    from repro.cli import main as cli_main

    server_log = os.environ.get("PERFBENCH_SERVER_LOG")
    if server_log:
        argv = [*argv, "--server", await_logged_url(Path(server_log))]
    out = os.environ.get("PERFBENCH_LAYERS_OUT")
    if not out:
        return cli_main(argv)

    from layers import Recorder
    from repro.obs import enable_tracing

    recorder = Recorder()
    recorder.install()
    if argv[:1] == ["work"]:
        enable_tracing()
    try:
        return cli_main(argv)
    finally:
        Path(out).write_text(json.dumps(recorder.summary()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
