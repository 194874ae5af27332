#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file exported by the trace collector.

Usage: check_trace.py <trace.json> [--require-span NAME]...

Fails (exit 1) unless the file parses as Chrome trace_event JSON
({"traceEvents": [...]}) and every complete event carries the keys a
trace viewer needs ("ph", "ts", "pid"; "X" events also "dur" and "name").
By default at least one serve-layer execution span ("serve.run",
"serve.exclusive", "serve.pure" or "serve.predict_batch") must be present
— an empty-but-well-formed file means the tracer was never wired into the
request path, which is exactly the regression this gate exists to catch.

--require-span NAME (repeatable) replaces the default requirement with an
explicit list: each named span must appear at least once.

CI runs this over the trace a traced net_server_demo session writes
(--trace-out), after net_client_demo drove a mixed load through it.
"""

import argparse
import collections
import json
import sys

DEFAULT_EXECUTION_SPANS = (
    "serve.run",
    "serve.exclusive",
    "serve.pure",
    "serve.predict_batch",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="require >= 1 event with this name (repeatable; replaces the "
        "default serve-execution-span requirement)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot parse {args.trace}: {e}")
        return 1

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"FAIL: {args.trace} has no traceEvents array")
        return 1

    names = collections.Counter()
    for i, ev in enumerate(events):
        for key in ("ph", "ts", "pid"):
            if key not in ev:
                print(f"FAIL: event #{i} is missing '{key}': {ev}")
                return 1
        if ev["ph"] == "X":
            for key in ("name", "dur", "tid"):
                if key not in ev:
                    print(f"FAIL: complete event #{i} is missing '{key}': {ev}")
                    return 1
            if ev["dur"] < 0:
                print(f"FAIL: event #{i} has negative duration: {ev}")
                return 1
            names[ev["name"]] += 1

    required = args.require_span or []
    if required:
        missing = [name for name in required if names[name] == 0]
        if missing:
            print(f"FAIL: required span(s) never recorded: {', '.join(missing)}")
            print(f"  spans present: {dict(names)}")
            return 1
    else:
        if not any(names[name] for name in DEFAULT_EXECUTION_SPANS):
            print(
                "FAIL: no serve-layer execution span "
                f"({', '.join(DEFAULT_EXECUTION_SPANS)}) in the trace — "
                "tracing is not wired into the request path"
            )
            print(f"  spans present: {dict(names)}")
            return 1

    total = sum(names.values())
    print(f"OK: {len(events)} events, {total} complete spans across "
          f"{len(names)} names")
    for name, count in sorted(names.items()):
        print(f"  {name:24s} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
