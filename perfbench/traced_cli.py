"""Run one cpwloss command with spans around the calls into each layer.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_JSON [CLI ARGS...]

Times `import cpwloss.cli` as the span cli.import, installs the
wrappers of tracing.py, then runs cli.main(CLI ARGS) as the span
cli.main and writes the spans to SPANS_JSON when it exits. With no CLI
ARGS it only imports, like `python -c "import cpwloss.cli"`.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    index = tracer.begin("cli.import")
    import cpwloss.cli as cli
    tracer.end(index)
    if not argv:
        tracer.write(spans_path)
        return 0
    tracing.install(tracer)
    index = tracer.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(index)
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
