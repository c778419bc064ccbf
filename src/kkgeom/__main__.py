import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader closed stdout early (say, ``| head -1``).  Point stdout at
    # devnull so the interpreter's final flush stays quiet.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
sys.exit(code)
