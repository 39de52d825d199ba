"""The one CSV writer behind every table the package emits."""


def write_csv(path, header, rows) -> None:
    """``header`` and ``rows`` as comma-joined ``str()`` fields, lines ending
    in \\r\\n: what ``csv.writer`` writes for fields that need no quoting,
    which no field of these tables does. Every row has one field per
    header field."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("".join([line % tuple(row) for row in (header, *rows)]))
