"""``python -m halfspace_bubbles``: run the CLI, then exit without interpreter teardown.

Contract: when ``main`` returns, every file the call wrote is closed and a
report on standard output is flushed; what standard output or standard error
may still buffer, such as argparse's help text, is flushed here.  Only then
does the process leave with ``os._exit``, which skips module cleanup and
object freeing: about a tenth of a cold call's CPU time, spent after every
output is complete.
"""

import contextlib
import os
import sys

from .cli import main

code = main()
for stream in (sys.stdout, sys.stderr):
    # a stream is None when closed; a report it could not take was reported by main,
    # and the help text goes unreported, as argparse has it
    with contextlib.suppress(AttributeError, OSError):
        stream.flush()
os._exit(code)
