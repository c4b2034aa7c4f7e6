"""One set-up: import streammem with its CLI (what the `streammem` entry
point loads) and, for requery, run `streammem process` once through the
CLI. Prints one JSON object with the times.

    python3 perfbench/probe.py [--process STREAM CONFIG OUT_DIR INSTRUCTION]
"""

import contextlib
import io
import json
import sys
import time


def main(argv):
    start = time.perf_counter()
    import streammem.cli
    import_s = time.perf_counter() - start
    result = {"import_s": import_s}
    if argv[:1] == ["--process"]:
        from child import subclip_hook

        stream, config, out_dir, instruction = argv[1:5]
        intervals = []
        with subclip_hook(intervals), \
                contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = streammem.cli.main(
                ["process", "--stream", stream, "--config", config,
                 "--out-dir", out_dir, "--instruction", instruction])
            process_s = time.perf_counter() - start
        result.update(process_s=process_s, subclip_ms=intervals)
        if code != 0:
            return code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
